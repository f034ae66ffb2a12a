(* The PolyUFC command-line driver.

   Subcommands mirror the stages of Fig. 3:
     parse        — parse a Polylang program and print it back
     tile         — Pluto-style tiling + parallelization
     analyze      — PolyUFC-CM cache analysis + OI
     characterize — CB/BB roofline characterization
     search       — POLYUFC-SEARCH cap selection per region
     run          — simulate (baseline vs capped) on a machine
     batch        — compile a manifest of kernels concurrently
     cache        — inspect / clear the persistent result cache
     workloads    — list the bundled benchmark suite

   [analyze], [search], [run] and [batch] share one resource-flag set
   (Resource_flags): --jobs N (0 = one per core), the content-addressed
   result cache under _polyufc_cache/ (or $POLYUFC_CACHE_DIR, opt out
   with --no-cache), and the governance flags --deadline/--fuel/--degrade
   that bound the analysis and fall back to degraded estimates (reported
   as "fidelity": "degraded") when the budget trips. *)

open Cmdliner
open Polyufc_core

let machine_of_string = function
  | "bdw" | "BDW" -> Ok Hwsim.Machine.bdw
  | "rpl" | "RPL" -> Ok Hwsim.Machine.rpl
  | s -> Error (`Msg (Printf.sprintf "unknown machine %S (use bdw or rpl)" s))

let machine_conv =
  Arg.conv
    ( machine_of_string,
      fun ppf m -> Format.fprintf ppf "%s" m.Hwsim.Machine.name )

let machine_arg =
  Arg.(
    value
    & opt machine_conv Hwsim.Machine.bdw
    & info [ "m"; "machine" ] ~docv:"MACHINE"
        ~doc:"Target machine: $(b,bdw) or $(b,rpl).")

let workload_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "w"; "workload" ] ~docv:"NAME"
        ~doc:"Use a bundled workload instead of a source file.")

let sizes_arg =
  Arg.(
    value
    & opt (list (pair ~sep:'=' string int)) []
    & info [ "s"; "size" ] ~docv:"P=N,..."
        ~doc:"Parameter bindings, e.g. $(b,-s n=200).")

let tile_size_arg =
  Arg.(
    value
    & opt int 32
    & info [ "tile-size" ] ~docv:"T" ~doc:"Pluto tile size (default 32).")

let epsilon_arg =
  Arg.(
    value
    & opt float 1e-3
    & info [ "epsilon" ] ~docv:"EPS"
        ~doc:"POLYUFC-SEARCH threshold (default 1e-3, Sec. VII-E).")

let objective_arg =
  let obj_conv =
    Arg.enum
      [ ("edp", Search.Edp); ("energy", Search.Energy); ("performance", Search.Performance) ]
  in
  Arg.(
    value
    & opt obj_conv Search.Edp
    & info [ "objective" ] ~docv:"OBJ"
        ~doc:"Optimization goal: $(b,edp), $(b,energy) or $(b,performance).")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON file of the pipeline's spans \
           (view in chrome://tracing or Perfetto).")

let stats_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "stats" ] ~docv:"FILE"
        ~doc:
          "Telemetry counters, quantile histograms and the span tree. With \
           no value (or $(b,-)): pretty-printed on stderr. With \
           $(b,--stats=FILE): the stats JSON document is written to FILE \
           atomically.")

let log_arg =
  Arg.(
    value
    & opt ~vopt:(Some "-") (some string) None
    & info [ "log" ] ~docv:"FILE"
        ~doc:
          "Emit structured JSON-lines events. With no value (or $(b,-)): on \
           stderr; otherwise appended to FILE. Level filtered by \
           $(b,POLYUFC_LOG_LEVEL) (debug|info|warn|error, default info); \
           $(b,POLYUFC_LOG) arms the same sink from the environment.")

let json_arg =
  Arg.(
    value
    & flag
    & info [ "json" ] ~doc:"Print the result record as JSON on stdout.")

let cache_dir_arg = Resource_flags.cache_dir_arg

let telemetry_term =
  let combine trace stats log = (trace, stats, log) in
  Term.(const combine $ trace_arg $ stats_arg $ log_arg)

(* Enable the registry when any telemetry output was requested, arm the
   event sink, run [f], then emit the requested views. *)
let with_telemetry (trace, stats, log) f =
  let active = trace <> None || stats <> None || log <> None in
  if active then begin
    Telemetry.reset ();
    Telemetry.enable ()
  end;
  (match log with
  | None -> ()
  | Some path -> (
    match Telemetry.Event.set_sink_path path with
    | Ok () -> ()
    | Error msg ->
      Format.eprintf "error: cannot open --log sink: %s@." msg;
      exit 1));
  Telemetry.Event.info "cli.start";
  let r = f () in
  Telemetry.Event.info "cli.done";
  (match trace with
  | Some path -> (
    try
      Telemetry.write_trace path;
      Format.eprintf "trace written to %s@." path
    with Sys_error msg ->
      Format.eprintf "error: cannot write trace: %s@." msg;
      exit 1)
  | None -> ());
  (match stats with
  | None -> ()
  | Some "-" ->
    Format.eprintf "%a@.%a@." Telemetry.pp_tree () Telemetry.pp_stats ()
  | Some path -> (
    try
      Engine.Io.write_atomic ~fault:Engine.Faultsim.Io_report_write path
        (Telemetry.Json.to_string (Telemetry.stats_json ()) ^ "\n");
      Format.eprintf "stats written to %s@." path
    with
    | Engine.Faultsim.Injected _ as e ->
      (* a write that failed through the retry is an internal fault: let
         Guard trap it, dump the flight recorder and exit 5 *)
      raise e
    | e ->
      Format.eprintf "error: cannot write stats: %s@." (Printexc.to_string e);
      exit 1));
  r

(* Crash-proof boundary: a subcommand body that lets any exception
   escape — malformed input, exhausted budget, a fault that survived the
   engine's retries — terminates through a structured Guard diagnostic
   with a defined exit code.  In --json mode the diagnostic is printed as
   a top-level {"error": ...} object on stdout, so consumers always get
   well-formed JSON. *)
let guarded ?(json = false) f =
  match Engine.Guard.protect f with
  | Ok () -> ()
  | Error d ->
    if json then
      Report.print_json
        (Telemetry.Json.Obj [ ("error", Engine.Guard.json_of d) ]);
    Format.eprintf "polyufc: %a@." Engine.Guard.pp d;
    exit d.Engine.Guard.code

let load ~workload ~file ~sizes =
  Engine.Guard.phase "parse" @@ fun () ->
  match workload with
  | Some name ->
    let w = Workloads.find name in
    let sizes = if sizes = [] then Workloads.param_values w else sizes in
    (Workloads.program w, sizes)
  | None -> (Polylang.parse_file file, sizes)

let file_or_default =
  Arg.(
    value
    & pos 0 string "/dev/null"
    & info [] ~docv:"FILE" ~doc:"Polylang source file (omit with --workload).")

let load_term =
  let combine workload file sizes = (workload, file, sizes) in
  Term.(const combine $ workload_arg $ file_or_default $ sizes_arg)

let parse_cmd =
  let run (workload, file, sizes) =
    guarded @@ fun () ->
    let prog, _ = load ~workload ~file ~sizes in
    Format.printf "%s@." (Polylang.to_string prog)
  in
  Cmd.v (Cmd.info "parse" ~doc:"Parse a program and print it back")
    Term.(const run $ load_term)

let tile_cmd =
  let run (workload, file, sizes) tile_size =
    guarded @@ fun () ->
    let prog, _ = load ~workload ~file ~sizes in
    let r = Poly_ir.Tiling.tile ~tile_size prog in
    Format.printf "%a@.%s@." Poly_ir.Tiling.pp_report r
      (Polylang.to_string r.Poly_ir.Tiling.tiled)
  in
  Cmd.v (Cmd.info "tile" ~doc:"Pluto-style tiling and parallelization")
    Term.(const run $ load_term $ tile_size_arg)

let analyze_cmd =
  let run (workload, file, sizes) machine tile_size telemetry json res =
    guarded ~json @@ fun () ->
    with_telemetry telemetry @@ fun () ->
    Resource_flags.with_ctx res @@ fun ~ctx ->
    let prog, sizes = load ~workload ~file ~sizes in
    let tiled = Poly_ir.Tiling.tile_program ~tile_size prog in
    let cm =
      Analysis_cache.analyze_gov ~ctx ~mode:Cache_model.Model.Set_associative
        ~apply_thread_heuristic:false ~machine tiled ~param_values:sizes
    in
    if json then Report.print_json (Report.json_of_cm cm)
    else Format.printf "%a@." Cache_model.Model.pp_result cm
  in
  Cmd.v (Cmd.info "analyze" ~doc:"PolyUFC-CM cache analysis and OI")
    Term.(
      const run $ load_term $ machine_arg $ tile_size_arg $ telemetry_term
      $ json_arg $ Resource_flags.term)

let characterize_cmd =
  let run (workload, file, sizes) machine tile_size telemetry =
    guarded @@ fun () ->
    with_telemetry telemetry @@ fun () ->
    let prog, sizes = load ~workload ~file ~sizes in
    let tiled = Poly_ir.Tiling.tile_program ~tile_size prog in
    let k = Roofline.for_machine ~ctx:Engine.Ctx.none machine in
    let cm =
      Cache_model.Model.analyze ~machine ~apply_thread_heuristic:false tiled
        ~param_values:sizes
    in
    let oi = cm.Cache_model.Model.oi in
    Format.printf "OI = %.3f FpB, B^t_DRAM = %.3f FpB -> %a@." oi
      k.Roofline.b_dram_t Roofline.pp_boundedness
      (Roofline.characterize k ~oi)
  in
  Cmd.v
    (Cmd.info "characterize" ~doc:"CB/BB roofline characterization (Sec. IV-D)")
    Term.(const run $ load_term $ machine_arg $ tile_size_arg $ telemetry_term)

let search_cmd =
  let run (workload, file, sizes) machine tile_size epsilon objective telemetry
      json res =
    guarded ~json @@ fun () ->
    with_telemetry telemetry @@ fun () ->
    Resource_flags.with_ctx res @@ fun ~ctx ->
    let prog, sizes = load ~workload ~file ~sizes in
    let k = Roofline.for_machine ~ctx machine in
    let c =
      Flow.compile ~ctx ~objective ~epsilon ~tile_size ~machine ~rooflines:k
        prog ~param_values:sizes
    in
    if json then Report.print_json (Report.json_of_compiled c)
    else Format.printf "%a@." Flow.pp_compiled c
  in
  Cmd.v
    (Cmd.info "search" ~doc:"Full compilation flow with POLYUFC-SEARCH caps")
    Term.(
      const run $ load_term $ machine_arg $ tile_size_arg $ epsilon_arg
      $ objective_arg $ telemetry_term $ json_arg $ Resource_flags.term)

let run_cmd =
  let run (workload, file, sizes) machine tile_size epsilon objective telemetry
      json res =
    guarded ~json @@ fun () ->
    with_telemetry telemetry @@ fun () ->
    Resource_flags.with_ctx res @@ fun ~ctx ->
    let prog, sizes = load ~workload ~file ~sizes in
    let k = Roofline.for_machine ~ctx machine in
    let c =
      Flow.compile ~ctx ~objective ~epsilon ~tile_size ~machine ~rooflines:k
        prog ~param_values:sizes
    in
    let e = Flow.evaluate ~ctx ~machine c ~param_values:sizes in
    if json then Report.print_json (Report.json_of_run c e)
    else begin
      Format.printf "%a@." Flow.pp_compiled c;
      Format.printf "%a@." Flow.pp_evaluation e
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"Compile with caps and simulate vs the UFS-driver baseline")
    Term.(
      const run $ load_term $ machine_arg $ tile_size_arg $ epsilon_arg
      $ objective_arg $ telemetry_term $ json_arg $ Resource_flags.term)

(* ---- analyze-multi: fleet analysis over co-scheduled tenants -------- *)

(* TENANT grammar: NAME_OR_FILE[:p=v[,p=v...]][:w=FLOAT][:c=INT] — e.g.
   gemm:n=96:w=2.0 or kernels/stream.poly:n=100000:c=2 *)
let parse_tenant_spec s =
  match String.split_on_char ':' s with
  | [] | [ "" ] -> Resource_flags.usage_error "empty tenant spec"
  | target :: mods ->
    let sizes = ref [] and weight = ref 1.0 and cores = ref 0 in
    let int_of seg v =
      match int_of_string_opt v with
      | Some n -> n
      | None ->
        Resource_flags.usage_error "tenant %S: %S is not an integer" s seg
    in
    List.iter
      (fun seg ->
        match String.index_opt seg '=' with
        | Some i when String.sub seg 0 i = "w" -> (
          let v = String.sub seg (i + 1) (String.length seg - i - 1) in
          match float_of_string_opt v with
          | Some w when w > 0.0 -> weight := w
          | _ ->
            Resource_flags.usage_error
              "tenant %S: w=%s is not a positive weight" s v)
        | Some i when String.sub seg 0 i = "c" ->
          let v = String.sub seg (i + 1) (String.length seg - i - 1) in
          let n = int_of seg v in
          if n < 0 then
            Resource_flags.usage_error "tenant %S: c=%d is negative" s n;
          cores := n
        | Some _ ->
          List.iter
            (fun kv ->
              match String.index_opt kv '=' with
              | Some j ->
                let p = String.sub kv 0 j in
                let v = String.sub kv (j + 1) (String.length kv - j - 1) in
                sizes := (p, int_of kv v) :: !sizes
              | None ->
                Resource_flags.usage_error
                  "tenant %S: segment %S is not p=v" s kv)
            (String.split_on_char ',' seg)
        | None ->
          Resource_flags.usage_error
            "tenant %S: segment %S is not p=v, w=F or c=N" s seg)
      mods;
    (target, List.rev !sizes, !weight, !cores)

(* resolve a tenant target to (name, program, sizes): a bundled workload
   by name, else a Polylang source file on disk *)
let load_tenant (target, sizes, weight, cores) =
  Engine.Guard.phase "parse" @@ fun () ->
  match Workloads.find_opt target with
  | Some w ->
    let sizes = if sizes = [] then Workloads.param_values w else sizes in
    (target, Workloads.program w, sizes, weight, cores)
  | None ->
    (Filename.remove_extension (Filename.basename target),
     Polylang.parse_file target, sizes, weight, cores)

let tenants_arg =
  Arg.(
    non_empty
    & pos_all string []
    & info [] ~docv:"TENANT"
        ~doc:
          "Co-scheduled tenant: a bundled workload name or Polylang \
           source file, optionally suffixed with $(b,:p=v,...) parameter \
           bindings, $(b,:w=F) QoS weight and $(b,:c=N) core count.")

let scatter_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "scatter" ] ~docv:"FILE"
        ~doc:"Write the roofline scatter rows as CSV to $(docv).")

let no_solo_arg =
  Arg.(
    value
    & flag
    & info [ "no-solo" ]
        ~doc:
          "Skip the per-tenant solo baseline runs (slowdowns are \
           reported as NaN).")

let write_scatter_csv path rows =
  Out_channel.with_open_bin path @@ fun oc ->
  Out_channel.output_string oc (Report.csv_of_scatter rows)

let analyze_multi_cmd =
  let run specs machine tile_size epsilon objective no_solo scatter_out
      telemetry json res =
    guarded ~json @@ fun () ->
    with_telemetry telemetry @@ fun () ->
    Resource_flags.with_ctx res @@ fun ~ctx ->
    let tenants = List.map (fun s -> load_tenant (parse_tenant_spec s)) specs in
    let specs =
      List.map
        (fun (name, prog, sizes, weight, cores) ->
          Fleet.spec ~sizes ~weight ~cores ~name prog)
        tenants
    in
    let k = Roofline.for_machine ~ctx machine in
    let r =
      Fleet.analyze ~ctx ~objective ~epsilon ~tile_size ~solo:(not no_solo)
        ~machine ~rooflines:k specs
    in
    Option.iter
      (fun path -> write_scatter_csv path (Fleet.scatter_of_result r))
      scatter_out;
    if json then Report.print_json (Fleet.json_of_result r)
    else Format.printf "%a@." Fleet.pp_result r
  in
  Cmd.v
    (Cmd.info "analyze-multi"
       ~doc:
         "Fleet analysis: compile each tenant, arbitrate one shared \
          uncore cap from their roofline demands, co-simulate the set")
    Term.(
      const run $ tenants_arg $ machine_arg $ tile_size_arg $ epsilon_arg
      $ objective_arg $ no_solo_arg $ scatter_out_arg $ telemetry_term
      $ json_arg $ Resource_flags.term)

let scop_cmd =
  let run (workload, file, sizes) tile tile_size =
    guarded @@ fun () ->
    let prog, _ = load ~workload ~file ~sizes in
    let prog =
      if tile then Poly_ir.Tiling.tile_program ~tile_size prog else prog
    in
    print_string (Poly_ir.Scop.export_isl (Poly_ir.Scop.extract prog))
  in
  let tile_flag =
    Arg.(value & flag & info [ "tiled" ] ~doc:"Extract from the Pluto-tiled form.")
  in
  Cmd.v
    (Cmd.info "scop"
       ~doc:"Dump the polyhedral representation in isl notation (OpenSCoP substitute)")
    Term.(const run $ load_term $ tile_flag $ tile_size_arg)

(* ---- batch: compile a manifest of kernels concurrently ---------------- *)

(* Manifest grammar, one kernel per line:
     name [p=v[,p=v...]]        e.g.  "gemm n=48" or "atax m=64,n=64"
   '#' starts a comment; blank lines are skipped.  Sizes default to the
   workload's bundled parameter values. *)
let parse_manifest path =
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let rec lines acc n =
    match input_line ic with
    | exception End_of_file -> List.rev acc
    | line -> lines ((n, line) :: acc) (n + 1)
  in
  List.filter_map
    (fun (n, line) ->
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      match
        String.split_on_char ' ' (String.trim line)
        |> List.concat_map (String.split_on_char '\t')
        |> List.filter (fun t -> t <> "")
      with
      | [] -> None
      | name :: size_toks ->
        let sizes =
          List.concat_map (String.split_on_char ',') size_toks
          |> List.filter (fun t -> t <> "")
          |> List.map (fun tok ->
                 match String.split_on_char '=' tok with
                 | [ p; v ] -> (
                   match int_of_string_opt v with
                   | Some v -> (p, v)
                   | None ->
                     failwith
                       (Printf.sprintf "%s:%d: bad size %S (want p=N)" path n
                          tok))
                 | _ ->
                   failwith
                     (Printf.sprintf "%s:%d: bad size %S (want p=N)" path n tok))
        in
        Some (n, name, sizes))
    (lines [] 1)

let batch_cmd =
  let run manifest machine tile_size epsilon objective telemetry json res =
    guarded ~json @@ fun () ->
    with_telemetry telemetry @@ fun () ->
    Resource_flags.with_ctx res @@ fun ~ctx ->
    let entries =
      Engine.Guard.phase "parse" (fun () -> parse_manifest manifest)
    in
    let k = Roofline.for_machine ~ctx machine in
    let compile_one (line, name, sizes) =
      match Workloads.find_opt name with
      | None ->
        failwith
          (Printf.sprintf "%s:%d: unknown workload %S (try `polyufc \
                           workloads')" manifest line name)
      | Some w ->
        let sizes = if sizes = [] then Workloads.param_values w else sizes in
        let c =
          Flow.compile ~ctx ~objective ~epsilon ~tile_size ~machine
            ~rooflines:k (Workloads.program w) ~param_values:sizes
        in
        (name, sizes, c)
    in
    (* one pool job per kernel; Pool.map keeps manifest order *)
    let results =
      match Engine.Ctx.pool ctx with
      | Some pool ->
        Engine.Pool.map ?cancel:(Engine.Ctx.cancel ctx) pool compile_one
          entries
      | None -> List.map compile_one entries
    in
    if json then
      Report.print_json
        (Telemetry.Json.Arr
           (List.map
              (fun (name, sizes, c) ->
                Telemetry.Json.Obj
                  [
                    ("kernel", Telemetry.Json.Str name);
                    ( "sizes",
                      Telemetry.Json.Obj
                        (List.map
                           (fun (p, v) ->
                             (p, Telemetry.Json.Int v))
                           sizes) );
                    ("report", Report.json_of_compiled c);
                  ])
              results))
    else
      List.iter
        (fun (name, _sizes, (c : Flow.compiled)) ->
          Format.printf "%-18s OI=%7.3f  caps:" name
            c.Flow.profile.Perfmodel.oi;
          List.iter
            (fun (v, f) -> Format.printf " %s->%.1f" v f)
            c.Flow.caps;
          Format.printf "@.")
        results;
    let counts = Engine.Rcache.counts () in
    if counts.Engine.Rcache.hits > 0 || counts.Engine.Rcache.stores > 0 then
      Format.eprintf "[cache: %d hit(s), %d miss(es)]@."
        counts.Engine.Rcache.hits counts.Engine.Rcache.misses;
    if counts.Engine.Rcache.quarantined > 0 then
      Format.eprintf "[cache: %d corrupt entr%s quarantined]@."
        counts.Engine.Rcache.quarantined
        (if counts.Engine.Rcache.quarantined = 1 then "y" else "ies")
  in
  let manifest_arg =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"MANIFEST"
          ~doc:"Kernel manifest: one $(b,name [p=v,...]) per line.")
  in
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Compile every kernel of a manifest, concurrently with --jobs")
    Term.(
      const run $ manifest_arg $ machine_arg $ tile_size_arg $ epsilon_arg
      $ objective_arg $ telemetry_term $ json_arg $ Resource_flags.term)

(* ---- stats: render a stats document in several formats ---------------- *)

(* Text rendering of a stats JSON document (the Telemetry.stats_json
   shape), used when the stats came from a file rather than the live
   registry. *)
let pp_stats_doc ppf doc =
  let module J = Telemetry.Json in
  let obj key = match J.member key doc with Some (J.Obj kvs) -> kvs | _ -> [] in
  let num field o =
    match Option.bind (J.member field o) J.number with
    | Some v -> v
    | None -> Float.nan
  in
  Format.fprintf ppf "@[<v>";
  (match obj "counters" with
  | [] -> ()
  | cs ->
    Format.fprintf ppf "counters:@,";
    List.iter
      (fun (name, v) ->
        match J.number v with
        | Some n -> Format.fprintf ppf "  %-36s %.0f@," name n
        | None -> ())
      cs);
  (match obj "gauges" with
  | [] -> ()
  | gs ->
    Format.fprintf ppf "gauges:@,";
    List.iter
      (fun (name, v) ->
        match J.number v with
        | Some n -> Format.fprintf ppf "  %-36s %.0f@," name n
        | None -> ())
      gs);
  (match obj "histograms" with
  | [] -> ()
  | hs ->
    Format.fprintf ppf "histograms:@,";
    List.iter
      (fun (name, h) ->
        Format.fprintf ppf
          "  %-36s n=%.0f mean=%.3g min=%.3g max=%.3g p50=%.3g p90=%.3g \
           p99=%.3g p999=%.3g@,"
          name (num "count" h) (num "mean" h) (num "min" h) (num "max" h)
          (num "p50" h) (num "p90" h) (num "p99" h) (num "p999" h))
      hs);
  (match obj "spans" with
  | [] -> ()
  | ss ->
    Format.fprintf ppf "spans:@,";
    List.iter
      (fun (name, s) ->
        Format.fprintf ppf "  %-36s n=%.0f total_us=%.0f@," name
          (num "count" s) (num "total_us" s))
      ss);
  Format.fprintf ppf "@]"

let stats_top_cmd =
  let format_arg =
    let fmt_conv =
      Arg.enum
        [ ("text", `Text); ("json", `Json); ("openmetrics", `Openmetrics) ]
    in
    Arg.(
      value
      & opt fmt_conv `Text
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: $(b,text), $(b,json), or $(b,openmetrics) \
             (Prometheus text exposition, terminated by $(b,# EOF)).")
  in
  let file_arg =
    Arg.(
      value
      & pos 0 (some string) None
      & info [] ~docv:"FILE"
          ~doc:
            "Stats JSON document to render (as written by \
             $(b,--stats=FILE)); $(b,-) reads stdin. Omitted: the live \
             registry of this process.")
  in
  let run format file =
    guarded @@ fun () ->
    let doc =
      match file with
      | None -> Telemetry.stats_json ()
      | Some path -> (
        let text =
          if path = "-" then In_channel.input_all stdin
          else In_channel.with_open_bin path In_channel.input_all
        in
        match Telemetry.Json.of_string text with
        | Ok doc -> doc
        | Error msg ->
          failwith (Printf.sprintf "%s: not a stats JSON document (%s)"
                      (if path = "-" then "<stdin>" else path) msg))
    in
    match format with
    | `Json -> Format.printf "%s@." (Telemetry.Json.to_string doc)
    | `Text -> Format.printf "%a@." pp_stats_doc doc
    | `Openmetrics -> (
      match Telemetry.openmetrics_of_stats doc with
      | Ok text -> print_string text
      | Error msg -> failwith ("cannot render OpenMetrics: " ^ msg))
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Render a telemetry stats document (text, JSON or OpenMetrics \
          exposition)")
    Term.(const run $ format_arg $ file_arg)

(* ---- serve / client: analysis as a service ---------------------------- *)

let default_socket () =
  Option.value (Sys.getenv_opt "POLYUFC_SOCKET") ~default:"_polyufc.sock"

let socket_arg =
  Arg.(
    value
    & opt string (default_socket ())
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain socket the daemon listens on (default \
           $(b,_polyufc.sock), or $(b,POLYUFC_SOCKET)).")

let serve_cmd =
  let pos_int ~what v = if v <= 0 then
      Resource_flags.usage_error "invalid %s %d (want a positive integer)" what v
  in
  let max_clients_arg =
    Arg.(
      value & opt int 64
      & info [ "max-clients" ] ~docv:"N"
          ~doc:"Concurrent connections beyond which new ones are rejected \
                with an $(b,overloaded) error (scope $(b,server)).")
  in
  let queue_depth_arg =
    Arg.(
      value & opt int 128
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:"Pending requests (queued + executing, all clients) beyond \
                which admission rejects with $(b,overloaded) (scope \
                $(b,queue)).")
  in
  let max_inflight_arg =
    Arg.(
      value & opt int 8
      & info [ "max-inflight" ] ~docv:"N"
          ~doc:"Unanswered requests one connection may pipeline before \
                being rejected with $(b,overloaded) (scope $(b,client)).")
  in
  let workers_arg =
    Arg.(
      value & opt int 4
      & info [ "workers" ] ~docv:"N"
          ~doc:"Executor threads draining the request queue (each fans out \
                onto the shared $(b,--jobs) domain pool).")
  in
  let max_deadline_arg =
    Arg.(
      value & opt (some float) None
      & info [ "max-deadline" ] ~docv:"SEC"
          ~doc:"Ceiling for per-request QoS deadlines; requests asking for \
                more (or for none) are clamped down to it.")
  in
  let max_fuel_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-fuel" ] ~docv:"N"
          ~doc:"Ceiling for per-request QoS fuel budgets.")
  in
  let serve_jobs_arg =
    Arg.(
      value & opt int 0
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:"Worker domains shared by every request; $(b,0) (the \
                default) means one per core.")
  in
  let run socket max_clients queue_depth max_inflight workers max_deadline
      max_fuel jobs no_cache cache_dir cache_upstream cache_max_bytes
      cache_max_entries log fault_plan =
    pos_int ~what:"--max-clients" max_clients;
    pos_int ~what:"--queue-depth" queue_depth;
    pos_int ~what:"--max-inflight" max_inflight;
    pos_int ~what:"--workers" workers;
    if jobs < 0 then
      Resource_flags.usage_error
        "invalid --jobs %d (want N >= 0; 0 means one per core)" jobs;
    (match max_deadline with
    | Some d when d <= 0.0 ->
      Resource_flags.usage_error
        "invalid --max-deadline %g (want a positive number of seconds)" d
    | _ -> ());
    (match max_fuel with
    | Some n when n <= 0 ->
      Resource_flags.usage_error
        "invalid --max-fuel %d (want a positive work-unit count)" n
    | _ -> ());
    (match fault_plan with
    | None -> ()
    | Some plan -> (
      match Engine.Faultsim.parse_plan plan with
      | Ok p -> Engine.Faultsim.install p
      | Error msg -> Resource_flags.usage_error "invalid --fault-plan: %s" msg));
    (* the daemon always runs with live telemetry: stats requests serve
       the registry, and the event log is its operational journal *)
    Telemetry.reset ();
    Telemetry.enable ();
    (match log with
    | None -> ()
    | Some path -> (
      match Telemetry.Event.set_sink_path path with
      | Ok () -> ()
      | Error msg ->
        Format.eprintf "error: cannot open --log sink: %s@." msg;
        exit 1));
    guarded @@ fun () ->
    let jobs = if jobs = 0 then Engine.Pool.default_jobs () else jobs in
    Telemetry.set_meta "jobs" (Telemetry.Json.Int jobs);
    Engine.Pool.with_pool ~jobs @@ fun pool ->
    let cache =
      if no_cache then None
      else begin
        let c =
          Engine.Rcache.create ?dir:cache_dir ?upstream:cache_upstream
            ?max_bytes:cache_max_bytes ?max_entries:cache_max_entries ()
        in
        (* startup GC: a daemon inheriting an over-watermark store from a
           previous life (or from a crashed GC) trims it before serving *)
        let r = Engine.Rcache.gc c in
        if r.Engine.Rcache.evicted > 0 then
          Telemetry.Event.info "serve.startup_gc"
            ~fields:
              [
                ("evicted", Telemetry.Json.Int r.Engine.Rcache.evicted);
                ( "evicted_bytes",
                  Telemetry.Json.Int r.Engine.Rcache.evicted_bytes );
                ("live_bytes", Telemetry.Json.Int r.Engine.Rcache.live_bytes);
              ];
        Some c
      end
    in
    let shared =
      Serve.Handler.create ~pool ?cache ?max_deadline_s:max_deadline
        ?max_fuel ()
    in
    let cfg =
      {
        Serve.Server.socket_path = socket;
        max_clients;
        max_inflight;
        queue_depth;
        workers;
        max_frame = Serve.Protocol.default_max_frame;
      }
    in
    match Serve.Server.create cfg shared with
    | Error msg ->
      Format.eprintf "polyufc: %s@." msg;
      exit 1
    | Ok server ->
      (* first SIGTERM/SIGINT: graceful drain (finish in-flight work,
         flush counters); second: force-exit 130, mirroring the CLI's
         double-^C convention.  The handler body is one CAS. *)
      let on_signal =
        Sys.Signal_handle
          (fun _ ->
            match Serve.Server.signal_drain server with
            | `Began -> ()
            | `Already -> exit 130)
      in
      (try Sys.set_signal Sys.sigterm on_signal
       with Invalid_argument _ | Sys_error _ -> ());
      (try Sys.set_signal Sys.sigint on_signal
       with Invalid_argument _ | Sys_error _ -> ());
      Serve.Server.run server
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Long-lived analysis daemon on a Unix socket: batched \
          length-prefixed JSON requests, per-client QoS clamping, \
          admission control, graceful drain on SIGTERM")
    Term.(
      const run $ socket_arg $ max_clients_arg $ queue_depth_arg
      $ max_inflight_arg $ workers_arg $ max_deadline_arg $ max_fuel_arg
      $ serve_jobs_arg $ Resource_flags.no_cache_arg $ cache_dir_arg
      $ Resource_flags.cache_upstream_arg $ Resource_flags.cache_max_bytes_arg
      $ Resource_flags.cache_max_entries_arg $ log_arg
      $ Resource_flags.fault_plan_arg)

let spawn_arg =
  Arg.(
    value
    & flag
    & info [ "spawn" ]
        ~doc:
          "If no daemon answers on the socket, start one ($(b,polyufc \
           serve)) in the background and connect to it. The daemon \
           outlives this command; stop it with $(b,polyufc client \
           shutdown).")

let client_connect ~socket ~spawn =
  let r =
    if spawn then
      Serve.Client.spawn_and_connect ~exe:Sys.executable_name ~socket ()
    else Serve.Client.connect socket
  in
  match r with
  | Ok c -> c
  | Error msg ->
    Format.eprintf "polyufc: %s@." msg;
    exit (Serve.Protocol.exit_code_of_kind Serve.Protocol.Transport)

(* Relay a remote outcome with the CLI's own conventions: the payload
   verbatim on stdout (it *is* the --json document the inline subcommand
   would print), errors as {"error": ...} + a stderr line + the mapped
   exit code. *)
let client_finish ~json result =
  match result with
  | Ok payload -> Report.print_json payload
  | Error (e : Serve.Protocol.error) ->
    if json then
      Report.print_json
        (Telemetry.Json.Obj [ ("error", Serve.Protocol.json_of_error e) ]);
    Format.eprintf "polyufc: [%s%s] %s@."
      (Serve.Protocol.kind_name e.kind)
      (match e.scope with Some s -> "/" ^ s | None -> "")
      e.message;
    exit (Serve.Protocol.exit_code_of_kind e.kind)

let qos_of_flags ((deadline_s, fuel, degrade) as q) =
  Resource_flags.validate_qos q;
  { Serve.Protocol.deadline_s; fuel; degrade }

(* The daemon cannot assume it shares a filesystem view with the client,
   so a FILE argument is shipped as inline source text. *)
let client_params ?(extra = []) (workload, file, sizes) machine tile_size =
  let program =
    match workload with
    | Some name -> [ ("workload", Telemetry.Json.Str name) ]
    | None ->
      if file = "/dev/null" then
        Resource_flags.usage_error
          "give --workload NAME or a Polylang source FILE"
      else
        [
          ( "source",
            Telemetry.Json.Str
              (In_channel.with_open_bin file In_channel.input_all) );
        ]
  in
  let sizes =
    match sizes with
    | [] -> []
    | kvs ->
      [
        ( "sizes",
          Telemetry.Json.Obj
            (List.map (fun (p, v) -> (p, Telemetry.Json.Int v)) kvs) );
      ]
  in
  Telemetry.Json.Obj
    (program @ sizes
    @ [
        ("machine", Telemetry.Json.Str machine.Hwsim.Machine.name);
        ("tile_size", Telemetry.Json.Int tile_size);
      ]
    @ extra)

let client_request ~socket ~spawn ~json ~qos ~op ~params =
  let c = client_connect ~socket ~spawn in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  client_finish ~json (Serve.Client.request c ~qos ~op ~params ())

let client_json_arg =
  Arg.(
    value
    & flag
    & info [ "json" ]
        ~doc:
          "Accepted for symmetry with the inline subcommands; client \
           output is always the JSON document the daemon returned. The \
           flag additionally mirrors errors as a top-level \
           $(i,{\"error\": ...}) object on stdout.")

let client_analyze_cmd =
  let run load machine tile_size qos json socket spawn =
    guarded ~json @@ fun () ->
    let params = client_params load machine tile_size in
    client_request ~socket ~spawn ~json ~qos:(qos_of_flags qos)
      ~op:Serve.Protocol.Analyze ~params
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"PolyUFC-CM cache analysis via the daemon (same JSON as \
             $(b,polyufc analyze --json))")
    Term.(
      const run $ load_term $ machine_arg $ tile_size_arg
      $ Resource_flags.qos_term $ client_json_arg $ socket_arg $ spawn_arg)

let search_like_client name ~doc ~op =
  let run load machine tile_size epsilon objective qos json socket spawn =
    guarded ~json @@ fun () ->
    let extra =
      [
        ("epsilon", Telemetry.Json.Float epsilon);
        ( "objective",
          Telemetry.Json.Str
            (match objective with
            | Search.Edp -> "edp"
            | Search.Energy -> "energy"
            | Search.Performance -> "performance") );
      ]
    in
    let params = client_params ~extra load machine tile_size in
    client_request ~socket ~spawn ~json ~qos:(qos_of_flags qos) ~op ~params
  in
  Cmd.v (Cmd.info name ~doc)
    Term.(
      const run $ load_term $ machine_arg $ tile_size_arg $ epsilon_arg
      $ objective_arg $ Resource_flags.qos_term $ client_json_arg
      $ socket_arg $ spawn_arg)

(* ships each tenant as the same object shape `client analyze` ships,
   plus name/weight/cores; FILE targets go as inline source text *)
let client_tenant_json spec =
  let target, sizes, weight, cores = parse_tenant_spec spec in
  let program, name =
    match Workloads.find_opt target with
    | Some _ -> ([ ("workload", Telemetry.Json.Str target) ], target)
    | None ->
      ( [
          ( "source",
            Telemetry.Json.Str
              (In_channel.with_open_bin target In_channel.input_all) );
        ],
        Filename.remove_extension (Filename.basename target) )
  in
  let sizes =
    match sizes with
    | [] -> []
    | kvs ->
      [
        ( "sizes",
          Telemetry.Json.Obj
            (List.map (fun (p, v) -> (p, Telemetry.Json.Int v)) kvs) );
      ]
  in
  Telemetry.Json.Obj
    (program @ sizes
    @ [
        ("name", Telemetry.Json.Str name);
        ("weight", Telemetry.Json.Float weight);
        ("cores", Telemetry.Json.Int cores);
      ])

let client_analyze_multi_cmd =
  let run specs machine tile_size epsilon objective no_solo scatter_out qos
      json socket spawn =
    guarded ~json @@ fun () ->
    let params =
      Telemetry.Json.Obj
        [
          ( "tenants",
            Telemetry.Json.Arr (List.map client_tenant_json specs) );
          ("machine", Telemetry.Json.Str machine.Hwsim.Machine.name);
          ("tile_size", Telemetry.Json.Int tile_size);
          ("epsilon", Telemetry.Json.Float epsilon);
          ( "objective",
            Telemetry.Json.Str
              (match objective with
              | Search.Edp -> "edp"
              | Search.Energy -> "energy"
              | Search.Performance -> "performance") );
          ("solo", Telemetry.Json.Bool (not no_solo));
        ]
    in
    let c = client_connect ~socket ~spawn in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    let result =
      Serve.Client.request c ~version:2 ~qos:(qos_of_flags qos)
        ~op:Serve.Protocol.Analyze_multi ~params ()
    in
    (match (result, scatter_out) with
    | Ok doc, Some path -> (
      match Telemetry.Json.member "scatter" doc with
      | Some sc -> (
        match Report.scatter_of_json sc with
        | Ok rows -> write_scatter_csv path rows
        | Error msg -> failwith ("bad scatter in response: " ^ msg))
      | None -> failwith "response has no scatter rows")
    | _ -> ());
    client_finish ~json result
  in
  Cmd.v
    (Cmd.info "analyze-multi"
       ~doc:
         "Fleet analysis via the daemon (protocol v2; same JSON as \
          $(b,polyufc analyze-multi --json))")
    Term.(
      const run $ tenants_arg $ machine_arg $ tile_size_arg $ epsilon_arg
      $ objective_arg $ no_solo_arg $ scatter_out_arg
      $ Resource_flags.qos_term $ client_json_arg $ socket_arg $ spawn_arg)

let client_ping_cmd =
  let run socket spawn =
    guarded @@ fun () ->
    let c = client_connect ~socket ~spawn in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    let t0 = Unix.gettimeofday () in
    match
      Serve.Client.request c ~version:2 ~op:Serve.Protocol.Ping
        ~params:(Telemetry.Json.Obj []) ()
    with
    | Ok payload ->
      let dt_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
      let num key =
        match
          Option.bind
            (Telemetry.Json.member key payload)
            Telemetry.Json.number
        with
        | Some p -> int_of_float p
        | None -> 0
      in
      Format.printf "pong from pid %d in %.2f ms@." (num "pid") dt_ms;
      (* a v2 daemon reports its ceiling and capabilities; a v1 daemon
         (which ignores unknown request fields) reports neither *)
      (match Telemetry.Json.member "capabilities" payload with
      | Some (Telemetry.Json.Arr caps) ->
        Format.printf "protocol %d (max %d), capabilities: %s@."
          (num "protocol") (num "max_protocol")
          (String.concat ", "
             (List.filter_map
                (function Telemetry.Json.Str s -> Some s | _ -> None)
                caps))
      | _ -> Format.printf "protocol %d (pre-versioning daemon)@." (num "protocol"));
      ()
    | Error _ as e -> client_finish ~json:false e
  in
  Cmd.v (Cmd.info "ping" ~doc:"Round-trip liveness probe")
    Term.(const run $ socket_arg $ spawn_arg)

let client_stats_cmd =
  let format_arg =
    let fmt_conv =
      Arg.enum
        [ ("text", `Text); ("json", `Json); ("openmetrics", `Openmetrics) ]
    in
    Arg.(
      value
      & opt fmt_conv `Json
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Rendering of the daemon's stats document: $(b,json) (the \
             default), $(b,text), or $(b,openmetrics) (Prometheus text \
             exposition).")
  in
  let run format scatter_out socket spawn =
    guarded @@ fun () ->
    let c = client_connect ~socket ~spawn in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    (* v2 so the daemon appends its rolling roofline scatter; a v1
       daemon ignores the version field and omits the scatter *)
    match
      Serve.Client.request c ~version:2 ~op:Serve.Protocol.Stats
        ~params:(Telemetry.Json.Obj []) ()
    with
    | Ok doc -> (
      Option.iter
        (fun path ->
          match Telemetry.Json.member "scatter" doc with
          | Some sc -> (
            match Report.scatter_of_json sc with
            | Ok rows -> write_scatter_csv path rows
            | Error msg -> failwith ("bad scatter in stats: " ^ msg))
          | None ->
            failwith
              "daemon reported no scatter (pre-v2 daemon, or no \
               analyze_multi requests yet)")
        scatter_out;
      match format with
      | `Json -> Format.printf "%s@." (Telemetry.Json.to_string doc)
      | `Text -> Format.printf "%a@." pp_stats_doc doc
      | `Openmetrics -> (
        match Telemetry.openmetrics_of_stats doc with
        | Ok text -> print_string text
        | Error msg -> failwith ("cannot render OpenMetrics: " ^ msg)))
    | Error _ as e -> client_finish ~json:false e
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Fetch the daemon's live telemetry (counters, gauges, \
             latency quantiles, roofline scatter) as text, JSON or \
             OpenMetrics")
    Term.(const run $ format_arg $ scatter_out_arg $ socket_arg $ spawn_arg)

let client_shutdown_cmd =
  let run socket =
    guarded @@ fun () ->
    let c = client_connect ~socket ~spawn:false in
    Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
    match
      Serve.Client.request c ~op:Serve.Protocol.Shutdown
        ~params:(Telemetry.Json.Obj []) ()
    with
    | Ok _ -> Format.printf "daemon draining@."
    | Error _ as e -> client_finish ~json:false e
  in
  Cmd.v
    (Cmd.info "shutdown"
       ~doc:"Ask the daemon to drain gracefully and exit")
    Term.(const run $ socket_arg)

let client_cmd =
  Cmd.group
    (Cmd.info "client"
       ~doc:
         "Talk to a $(b,polyufc serve) daemon: analyze/search/run with \
          per-request QoS, plus ping, stats and shutdown")
    [
      client_analyze_cmd;
      client_analyze_multi_cmd;
      search_like_client "search"
        ~doc:
          "Full compilation flow via the daemon (same JSON as $(b,polyufc \
           search --json))"
        ~op:Serve.Protocol.Search;
      search_like_client "run"
        ~doc:
          "Compile and simulate via the daemon (same JSON as $(b,polyufc \
           run --json))"
        ~op:Serve.Protocol.Run;
      client_ping_cmd;
      client_stats_cmd;
      client_shutdown_cmd;
    ]

(* ---- cache: inspect / clear the persistent result cache --------------- *)

let cache_cmd =
  let module R = Engine.Rcache in
  let module J = Telemetry.Json in
  (* counter fields shared by the json and openmetrics renderings *)
  let counter_fields (k : R.counts) =
    [
      ("hits", k.R.hits);
      ("misses", k.R.misses);
      ("stores", k.R.stores);
      ("corrupt", k.R.corrupt);
      ("quarantined", k.R.quarantined);
      ("write_retries", k.R.write_retries);
      ("readonly_flips", k.R.readonly_flips);
      ("mem_hits", k.R.mem_hits);
      ("disk_hits", k.R.disk_hits);
      ("upstream_hits", k.R.upstream_hits);
      ("promotions", k.R.promotions);
      ("evictions", k.R.evictions);
      ("mem_evictions", k.R.mem_evictions);
      ("gc_runs", k.R.gc_runs);
      ("gc_crashes", k.R.gc_crashes);
      ("migrated", k.R.migrated);
      ("index_rebuilds", k.R.index_rebuilds);
      ("index_bad_lines", k.R.index_bad_lines);
      ("quarantine_dropped", k.R.quarantine_dropped);
    ]
  in
  let rate hits total =
    if total > 0 then 100.0 *. float_of_int hits /. float_of_int total else 0.0
  in
  let stats_cmd =
    (* `--json` predates `--format` and is kept as an alias *)
    let format_arg =
      let fmt_conv =
        Arg.enum
          [ ("text", `Text); ("json", `Json); ("openmetrics", `Openmetrics) ]
      in
      Arg.(
        value
        & opt fmt_conv `Text
        & info [ "format" ] ~docv:"FMT"
            ~doc:
              "Output format: $(b,text), $(b,json), or $(b,openmetrics) \
               (Prometheus text exposition, terminated by $(b,# EOF)).")
    in
    let run cache_dir format json =
      let format = if json then `Json else format in
      let c = R.create ?dir:cache_dir () in
      (* everything below reads the index (entries/bytes/kinds) and the
         counter sidecar: no full entry scan *)
      let s = R.stats c in
      let by_kind = R.stats_by_kind c in
      let ih = R.index_health c in
      let k = R.cumulative c in
      let total = k.R.hits + k.R.misses in
      match format with
      | `Json ->
        Report.print_json
          (J.Obj
             ([
                ("dir", J.Str (R.dir c));
                ( "upstream",
                  match R.upstream c with
                  | Some u -> J.Str u
                  | None -> J.Null );
                ("entries", J.Int s.R.entries);
                ("bytes", J.Int s.R.bytes);
                ( "kinds",
                  J.Obj
                    (List.map
                       (fun (kind, (ks : R.stats)) ->
                         ( kind,
                           J.Obj
                             [
                               ("entries", J.Int ks.R.entries);
                               ("bytes", J.Int ks.R.bytes);
                             ] ))
                       by_kind) );
                ( "index",
                  J.Obj
                    [
                      ("entries", J.Int ih.R.indexed_entries);
                      ("bytes", J.Int ih.R.indexed_bytes);
                      ("log_records", J.Int ih.R.log_records);
                      ("migrated", J.Int ih.R.migrated);
                    ] );
                ("hit_rate_pct", J.Float (rate k.R.hits total));
              ]
             @ List.map (fun (n, v) -> (n, J.Int v)) (counter_fields k)))
      | `Openmetrics ->
        let b = Buffer.create 1024 in
        Buffer.add_string b
          "# TYPE polyufc_cache_entries gauge\n\
           # HELP polyufc_cache_entries Live entries in the on-disk tier.\n";
        Buffer.add_string b
          (Printf.sprintf "polyufc_cache_entries %d\n" s.R.entries);
        Buffer.add_string b
          "# TYPE polyufc_cache_bytes gauge\n\
           # HELP polyufc_cache_bytes Bytes held by the on-disk tier.\n";
        Buffer.add_string b (Printf.sprintf "polyufc_cache_bytes %d\n" s.R.bytes);
        List.iter
          (fun (name, v) ->
            Buffer.add_string b
              (Printf.sprintf "# TYPE polyufc_cache_%s counter\n" name);
            Buffer.add_string b
              (Printf.sprintf "polyufc_cache_%s_total %d\n" name v))
          (counter_fields k);
        Buffer.add_string b "# EOF\n";
        print_string (Buffer.contents b)
      | `Text ->
        Format.printf "cache directory: %s@." (R.dir c);
        (match R.upstream c with
        | Some u -> Format.printf "upstream (read-only): %s@." u
        | None -> ());
        Format.printf "entries: %d@.bytes: %d@." s.R.entries s.R.bytes;
        List.iter
          (fun (kind, (ks : R.stats)) ->
            Format.printf "  %s: %d entr%s, %d bytes@." kind ks.R.entries
              (if ks.R.entries = 1 then "y" else "ies")
              ks.R.bytes)
          by_kind;
        Format.printf "index: %d entr%s, %d log record%s since snapshot@."
          ih.R.indexed_entries
          (if ih.R.indexed_entries = 1 then "y" else "ies")
          ih.R.log_records
          (if ih.R.log_records = 1 then "" else "s");
        if ih.R.migrated > 0 then
          Format.printf "migrated to sharded layout: %d@." ih.R.migrated;
        Format.printf
          "hits: %d (mem %d / disk %d / upstream %d)@.misses: %d@.stores: \
           %d@.promotions: %d@.evictions: %d (gc runs %d, mem %d)@.corrupt: \
           %d@.quarantined: %d (dropped %d)@.index rebuilds: %d (bad lines \
           %d)@.write retries: %d@.read-only flips: %d@."
          k.R.hits k.R.mem_hits k.R.disk_hits k.R.upstream_hits k.R.misses
          k.R.stores k.R.promotions k.R.evictions k.R.gc_runs k.R.mem_evictions
          k.R.corrupt k.R.quarantined k.R.quarantine_dropped k.R.index_rebuilds
          k.R.index_bad_lines k.R.write_retries k.R.readonly_flips;
        if total > 0 then begin
          Format.printf "hit rate: %.1f%%@." (rate k.R.hits total);
          Format.printf
            "  mem: %.1f%%  disk: %.1f%%  upstream: %.1f%% (of all lookups)@."
            (rate k.R.mem_hits total) (rate k.R.disk_hits total)
            (rate k.R.upstream_hits total)
        end
    in
    Cmd.v
      (Cmd.info "stats"
         ~doc:
           (Printf.sprintf
              "Show entry count (total and per kind: %s), size on disk, \
               per-tier hit rates, and index/GC health — all from the \
               store's index, without scanning every entry"
              (String.concat ", " R.kinds)))
      Term.(const run $ cache_dir_arg $ format_arg $ json_arg)
  in
  let gc_cmd =
    let max_bytes_arg =
      Arg.(
        value
        & opt (some Resource_flags.size_conv) None
        & info [ "cache-max-bytes"; "max-bytes" ] ~docv:"SIZE"
            ~doc:
              "Evict least-recently-used entries until the store holds at \
               most $(docv) bytes (suffixes $(b,k)/$(b,M)/$(b,G); default \
               $(b,POLYUFC_CACHE_MAX_BYTES)).")
    in
    let max_entries_arg =
      Arg.(
        value
        & opt (some int) None
        & info [ "cache-max-entries"; "max-entries" ] ~docv:"N"
            ~doc:
              "Evict least-recently-used entries until at most $(docv) \
               remain (default $(b,POLYUFC_CACHE_MAX_ENTRIES)).")
    in
    let run cache_dir max_bytes max_entries fault_plan =
      guarded @@ fun () ->
      (match fault_plan with
      | None -> ()
      | Some plan -> (
        match Engine.Faultsim.parse_plan plan with
        | Ok p -> Engine.Faultsim.install p
        | Error msg -> Resource_flags.usage_error "invalid --fault-plan: %s" msg));
      let c = R.create ?dir:cache_dir ?max_bytes ?max_entries () in
      let r = R.gc ?max_bytes ?max_entries c in
      Format.printf
        "examined %d entr%s, evicted %d (%d bytes); %d entr%s / %d bytes live@."
        r.R.examined
        (if r.R.examined = 1 then "y" else "ies")
        r.R.evicted r.R.evicted_bytes r.R.live_entries
        (if r.R.live_entries = 1 then "y" else "ies")
        r.R.live_bytes;
      if r.R.interrupted then
        Format.printf "sweep interrupted by an injected fault@.";
      if r.R.evicted = 0 && max_bytes = None && max_entries = None
         && Sys.getenv_opt "POLYUFC_CACHE_MAX_BYTES" = None
         && Sys.getenv_opt "POLYUFC_CACHE_MAX_ENTRIES" = None
      then
        Format.printf
          "no watermark set (pass --max-bytes/--max-entries); nothing to do@."
    in
    Cmd.v
      (Cmd.info "gc"
         ~doc:
           "Evict least-recently-used results until the store fits under \
            the byte/entry watermark. Crash-safe: an interrupted sweep \
            leaves a store that reopens and rebuilds its index.")
      Term.(
        const run $ cache_dir_arg $ max_bytes_arg $ max_entries_arg
        $ Resource_flags.fault_plan_arg)
  in
  let migrate_cmd =
    let run cache_dir =
      guarded @@ fun () ->
      let c = R.create ?dir:cache_dir () in
      let n = R.migrate c in
      Format.printf "migrated %d flat entr%s to the sharded layout in %s@." n
        (if n = 1 then "y" else "ies")
        (R.dir c)
    in
    Cmd.v
      (Cmd.info "migrate"
         ~doc:
           "Move any flat-layout (pre-sharding) entries into the two-level \
            sharded layout now. Migration also happens transparently on \
            first use; this makes it explicit (e.g. before shipping a \
            pre-warmed store as an upstream).")
      Term.(const run $ cache_dir_arg)
  in
  let clear_cmd =
    let run cache_dir =
      let c = R.create ?dir:cache_dir () in
      let n = R.clear c in
      Format.printf "removed %d entr%s from %s@." n
        (if n = 1 then "y" else "ies")
        (R.dir c)
    in
    Cmd.v (Cmd.info "clear" ~doc:"Remove every cached result")
      Term.(const run $ cache_dir_arg)
  in
  Cmd.group
    (Cmd.info "cache"
       ~doc:
         "Inspect, garbage-collect, migrate or clear the persistent \
          result store")
    [ stats_cmd; gc_cmd; migrate_cmd; clear_cmd ]

let workloads_cmd =
  let run () =
    List.iter
      (fun (w : Workloads.t) ->
        Format.printf "%-18s %-10s %s@." w.Workloads.name
          (match w.Workloads.kind with
          | Workloads.Polybench -> "polybench"
          | Workloads.Ml_kernel -> "ml")
          w.Workloads.description)
      Workloads.all
  in
  Cmd.v (Cmd.info "workloads" ~doc:"List the bundled benchmark suite")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "polyufc" ~version:"1.0.0"
      ~doc:"Polyhedral compilation meets roofline analysis for uncore frequency capping"
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            parse_cmd; tile_cmd; analyze_cmd; analyze_multi_cmd;
            characterize_cmd; search_cmd; run_cmd; batch_cmd; cache_cmd;
            scop_cmd; workloads_cmd; stats_top_cmd; serve_cmd; client_cmd;
          ]))
