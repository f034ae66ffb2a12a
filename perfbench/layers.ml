(* Per-layer profile: times each layer's public entry point on fixed
   inputs and prints one JSON document on stdout.

     layers.exe TRACE_FILE STORE_DIR TAPE_FILE

   Fixtures are gemm (n=64), mvt (n=300) and jacobi-2d (n=100,
   tsteps=6), tiled at T=32, on BDW and RPL.  One fixture on one machine
   is one "request" with its own trace id; spans around every layer call
   are kept in memory and written to FILE as Chrome trace_event JSON at
   the end.  Every request also runs once with recording off, just before
   its traced run, and the difference in wall time between the two sets
   is reported as trace.overhead_pct.  The
   tape holds serve requests (one JSON params object per line, each with
   an "op") replayed in-process through [Serve.Handler.execute] to time
   the handler alone.  STORE_DIR is a throwaway result store. *)

module J = Telemetry.Json
open Polyufc_core

let now = Unix.gettimeofday

(* --- in-memory span recorder --------------------------------------- *)

type span = {
  trace_id : int;
  name : string;
  t0 : float;
  mutable t1 : float;
  mutable child_s : float;
}

let recording = ref false
let trace_id = ref 0
let finished : span list ref = ref []
let stack : span list ref = ref []

(* [span name f] runs [f]; while recording it also keeps a span (with
   the current trace id and nesting) for the per-layer table *)
let span name f =
  if not !recording then f ()
  else begin
    let s = { trace_id = !trace_id; name; t0 = now (); t1 = 0.; child_s = 0. } in
    stack := s :: !stack;
    Fun.protect f ~finally:(fun () ->
        s.t1 <- now ();
        stack := List.tl !stack;
        (match !stack with
        | p :: _ -> p.child_s <- p.child_s +. (s.t1 -. s.t0)
        | [] -> ());
        finished := s :: !finished)
  end

let new_request () = if !recording then incr trace_id

(* total seconds spent in spans called [name] during the traced pass *)
let seconds_in name =
  List.fold_left
    (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc)
    0.0 !finished

let write_trace path =
  let ev s =
    J.Obj
      [
        ("name", J.Str s.name);
        ("ph", J.Str "X");
        ("ts", J.Float (s.t0 *. 1e6));
        ("dur", J.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", J.Int 1);
        ("tid", J.Int s.trace_id);
      ]
  in
  Out_channel.with_open_bin path (fun oc ->
      output_string oc (J.to_string (J.Arr (List.rev_map ev !finished)));
      output_char oc '\n')

let layer_table () =
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun s ->
      let n, tot, self =
        Option.value (Hashtbl.find_opt tbl s.name) ~default:(0, 0.0, 0.0)
      in
      let d = s.t1 -. s.t0 in
      Hashtbl.replace tbl s.name (n + 1, tot +. d, self +. d -. s.child_s))
    !finished;
  Hashtbl.fold (fun name (n, tot, self) acc -> (name, n, tot, self) :: acc) tbl []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)
  |> List.map (fun (name, n, tot, self) ->
         J.Obj
           [
             ("layer", J.Str name);
             ("calls", J.Int n);
             ("total_ms", J.Float (tot *. 1e3));
             ("self_ms", J.Float (self *. 1e3));
           ])

(* --- fixtures ------------------------------------------------------ *)

type fixture = { wl : string; sizes : (string * int) list }

let fixtures =
  [
    { wl = "gemm"; sizes = [ ("n", 64) ] };
    { wl = "mvt"; sizes = [ ("n", 300) ] };
    { wl = "jacobi-2d"; sizes = [ ("n", 100); ("tsteps", 6) ] };
  ]

let machines = [ Hwsim.Machine.bdw; Hwsim.Machine.rpl ]

let source_of fx =
  match (Workloads.find fx.wl).Workloads.source with
  | Workloads.Lang src -> src
  | Workloads.Torch _ -> invalid_arg "fixture must be a Polylang workload"

let repeat n f =
  for _ = 2 to n do
    ignore (f ())
  done;
  f ()

(* work counters, summed over the traced requests only *)
let tally r n = if !recording then r := !r + n
let accesses = ref 0
let multi_accesses = ref 0
let analyses = ref 0
let decompositions = ref 0
let evals = ref 0
let points_scanned = ref 0
let compiles = ref 0
let evaluations = ref 0
let searches = ref 0

let parse_reps = 200
let tile_reps = 10
let scop_reps = 50
let eval_reps = 20_000
let search_reps = 200

(* [f ()] with the telemetry registry on, and how far [counter] moved *)
let counting counter f =
  let c0 = Telemetry.counter_value counter in
  Telemetry.enable ();
  let r = Fun.protect f ~finally:Telemetry.disable in
  (r, Telemetry.counter_value counter - c0)

let param_array dom sizes =
  Array.map
    (fun p -> List.assoc p sizes)
    (Presburger.Bset.space dom).Presburger.Space.params

(* one request: every layer on one fixture and one machine *)
let request rooflines fx machine =
  new_request ();
  let src = source_of fx in
  let prog = span "parse" (fun () -> repeat parse_reps (fun () -> Polylang.parse src)) in
  let tiled =
    span "tile" (fun () ->
        repeat tile_reps (fun () -> Poly_ir.Tiling.tile_program ~tile_size:32 prog))
  in
  let scop = span "scop" (fun () -> repeat scop_reps (fun () -> Poly_ir.Scop.extract tiled)) in
  let domains = List.map (fun i -> i.Poly_ir.Scop.domain) scop.Poly_ir.Scop.stmt_infos in
  Presburger.Chamber.clear_memo ();
  let chambers, scanned =
    counting "presburger.points_scanned" (fun () ->
        span "count.decompose" (fun () ->
            List.filter_map
              (fun d -> Option.map (fun c -> (d, c)) (Presburger.Count.card_param d))
              domains))
  in
  tally points_scanned scanned;
  tally decompositions 1;
  span "count.eval" (fun () ->
      List.iter
        (fun (d, c) ->
          let v = param_array d fx.sizes in
          for _ = 1 to eval_reps do
            ignore (Presburger.Chamber.eval c v)
          done;
          tally evals eval_reps)
        chambers);
  let r =
    span "interp" (fun () ->
        Poly_ir.Interp.run ~compute:false tiled ~param_values:fx.sizes
          Poly_ir.Interp.null_callbacks)
  in
  tally accesses r.Poly_ir.Interp.accesses;
  let cache = Hwsim.Cache.create machine.Hwsim.Machine.caches in
  span "hwsim.cache" (fun () ->
      ignore
        (Poly_ir.Interp.run ~compute:false tiled ~param_values:fx.sizes
           (Poly_ir.Interp.with_access (fun ~stmt:_ ~array:_ ~addr ~bytes:_ ~is_write ->
                ignore (Hwsim.Cache.access cache ~addr ~is_write)))));
  ignore
    (span "cm" (fun () ->
         Cache_model.Model.analyze ~mode:Cache_model.Model.Set_associative
           ~apply_thread_heuristic:false ~machine tiled ~param_values:fx.sizes));
  tally analyses 1;
  ignore
    (span "sim" (fun () ->
         Hwsim.Sim.run_one
           (Hwsim.Sim.config ~machine ~uncore:`Governor
              [ Hwsim.Sim.tenant ~param_values:fx.sizes ~name:fx.wl tiled ])));
  let k = List.assoc machine.Hwsim.Machine.name rooflines in
  let c =
    span "flow.compile" (fun () ->
        Flow.compile ~ctx:Engine.Ctx.none ~machine ~rooflines:k prog
          ~param_values:fx.sizes)
  in
  tally compiles 1;
  span "search" (fun () ->
      ignore (repeat search_reps (fun () -> Search.run k c.Flow.profile)));
  tally searches search_reps;
  ignore (span "flow.evaluate" (fun () -> Flow.evaluate ~machine c ~param_values:fx.sizes));
  tally evaluations 1

let multi3 () =
  new_request ();
  let tenants =
    List.map
      (fun fx ->
        Hwsim.Sim.tenant ~param_values:fx.sizes ~name:fx.wl
          (Workloads.tiled_program ~tile_size:32 (Workloads.find fx.wl)))
      fixtures
  in
  let m =
    span "sim.multi3" (fun () ->
        Hwsim.Sim.simulate ~solo:false
          (Hwsim.Sim.config ~machine:Hwsim.Machine.bdw ~uncore:`Governor tenants))
  in
  tally multi_accesses
    (List.fold_left (fun a t -> a + t.Hwsim.Sim.o_accesses) 0 m.Hwsim.Sim.per_tenant)

let fleet rooflines =
  new_request ();
  let specs =
    List.map
      (fun (wl, n) ->
        Fleet.spec ~sizes:[ ("n", n) ] ~name:wl (Workloads.program (Workloads.find wl)))
      [ ("gemm", 40); ("mvt", 150); ("bicg", 150) ]
  in
  ignore
    (span "fleet.analyze" (fun () ->
         Fleet.analyze ~ctx:Engine.Ctx.none ~machine:Hwsim.Machine.bdw
           ~rooflines:(List.assoc "BDW" rooflines) specs))

(* --- result store tiers -------------------------------------------- *)

let store_entries = 200

let store_layer dir =
  new_request ();
  let payload =
    Analysis_cache.cm_to_json
      (Cache_model.Model.analyze ~machine:Hwsim.Machine.bdw
         (Workloads.tiled_program ~tile_size:32 (Workloads.find "mvt"))
         ~param_values:[ ("n", 64) ])
  in
  let keys = List.init store_entries (fun i -> Engine.Rcache.key [ ("perfbench", string_of_int i) ]) in
  let missing = List.init store_entries (fun i -> Engine.Rcache.key [ ("absent", string_of_int i) ]) in
  let c = Engine.Rcache.create ~dir () in
  let each name ks f = span name (fun () -> List.iter f ks) in
  each "store.write" keys (fun k -> Engine.Rcache.store c k payload);
  each "store.mem_hit" keys (fun k -> assert (Engine.Rcache.find c k <> None));
  each "store.miss" missing (fun k -> assert (Engine.Rcache.find c k = None));
  (* a fresh handle has an empty memory tier: every find reads the disk *)
  let cold = Engine.Rcache.create ~dir () in
  each "store.disk_hit" keys (fun k -> assert (Engine.Rcache.find cold k <> None))

(* --- serving: framing and the handler ------------------------------ *)

let frame_reps = 2000

let frame_layer () =
  new_request ();
  let doc =
    Report.json_of_cm
      (Cache_model.Model.analyze ~machine:Hwsim.Machine.bdw
         (Workloads.tiled_program ~tile_size:32 (Workloads.find "gemm"))
         ~param_values:[ ("n", 32) ])
  in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  span "serve.frame" (fun () ->
      for _ = 1 to frame_reps do
        Serve.Protocol.write_frame a doc;
        match Serve.Protocol.read_frame b with
        | Ok _ -> ()
        | Error _ -> failwith "frame round trip failed"
      done);
  Unix.close a;
  Unix.close b

let read_tape path =
  In_channel.with_open_bin path In_channel.input_lines
  |> List.filter (fun l -> String.trim l <> "")
  |> List.mapi (fun i line ->
         let params =
           match J.of_string line with Ok j -> j | Error m -> failwith ("bad tape line: " ^ m)
         in
         let op =
           match J.member "op" params with
           | Some (J.Str s) -> s
           | _ -> failwith "tape line has no op"
         in
         match
           Serve.Protocol.request_of_json
             (J.Obj [ ("id", J.Int i); ("version", J.Int 2); ("op", J.Str op); ("params", params) ])
         with
         | Ok r -> r
         | Error m -> failwith ("bad tape line: " ^ m))

let handler_reps = 5

(* each tape request once cold (warming the store), then timed as hits;
   the handler gets the one-domain pool a [--jobs 1] daemon has *)
let handler_layer dir tape =
  Engine.Pool.with_pool ~jobs:1 @@ fun pool ->
  let shared = Serve.Handler.create ~pool ~cache:(Engine.Rcache.create ~dir ()) () in
  let check (resp : Serve.Protocol.response) =
    match resp.Serve.Protocol.result with
    | Ok _ -> ()
    | Error e -> failwith ("tape request failed: " ^ e.Serve.Protocol.message)
  in
  List.iter (fun r -> check (Serve.Handler.execute shared r)) tape;
  for _ = 1 to handler_reps do
    List.iter
      (fun r ->
        new_request ();
        span "serve.handler" (fun () -> check (Serve.Handler.execute shared r)))
      tape
  done;
  handler_reps * List.length tape

(* --- main ---------------------------------------------------------- *)

let () =
  let out_trace, store_dir, tape =
    match Sys.argv with
    | [| _; t; d; p |] -> (t, d, p)
    | _ ->
        prerr_endline "usage: layers.exe TRACE_FILE STORE_DIR TAPE_FILE";
        exit 2
  in
  recording := true;
  let campaign m =
    new_request ();
    let k, runs =
      counting "hwsim.runs" (fun () ->
          span ("roofline." ^ m.Hwsim.Machine.name) (fun () -> Roofline.microbench m))
    in
    (m.Hwsim.Machine.name, k, runs)
  in
  let campaigns = List.map campaign machines in
  let rooflines = List.map (fun (n, k, _) -> (n, k)) campaigns in
  let sim_runs = List.fold_left (fun a (_, _, r) -> a + r) 0 campaigns in
  (* every request runs twice, untraced then traced, so that drifts in
     machine speed fall on both sides of trace.overhead_pct alike *)
  let untraced_s = ref 0.0 and traced_s = ref 0.0 in
  let both f =
    List.iter
      (fun (on, total) ->
        recording := on;
        let t0 = now () in
        f ();
        total := !total +. (now () -. t0))
      [ (false, untraced_s); (true, traced_s) ]
  in
  List.iter
    (fun fx -> List.iter (fun m -> both (fun () -> request rooflines fx m)) machines)
    fixtures;
  both multi3;
  both (fun () -> fleet rooflines);
  store_layer store_dir;
  frame_layer ();
  let handled = handler_layer (store_dir ^ "-handler") (read_tape tape) in
  write_trace out_trace;
  let fixtures_n = List.length fixtures in
  let per ~scale name n =
    if n = 0 then failwith ("no work counted for " ^ name);
    seconds_in name *. scale /. float_of_int n
  in
  let ns_per_access name = per ~scale:1e9 name !accesses in
  let metrics =
    [
      ("roofline.campaign_ms.bdw", 1e3 *. seconds_in "roofline.BDW");
      ("roofline.campaign_ms.rpl", 1e3 *. seconds_in "roofline.RPL");
      ("roofline.sim_runs", float_of_int sim_runs);
      ("interp.ns_per_access", ns_per_access "interp");
      ("interp.accesses", float_of_int !accesses);
      ("cm.ns_per_access", ns_per_access "cm");
      ("cm.ms_per_analysis", per ~scale:1e3 "cm" !analyses);
      (* the cache's own cost: the null-callback walk is subtracted *)
      ("hwsim.cache_ns_per_access", ns_per_access "hwsim.cache" -. ns_per_access "interp");
      ("sim.ns_per_access", ns_per_access "sim");
      ("sim.multi3_ns_per_access", per ~scale:1e9 "sim.multi3" !multi_accesses);
      ("count.decompose_ms", per ~scale:1e3 "count.decompose" !decompositions);
      ("count.eval_us", per ~scale:1e6 "count.eval" !evals);
      ("count.points_scanned", float_of_int !points_scanned);
      ("parse.us", per ~scale:1e6 "parse" (parse_reps * fixtures_n * 2));
      ("tile.us", per ~scale:1e6 "tile" (tile_reps * fixtures_n * 2));
      ("scop.us", per ~scale:1e6 "scop" (scop_reps * fixtures_n * 2));
      ("search.us_per_search", per ~scale:1e6 "search" !searches);
      ("flow.compile_ms", per ~scale:1e3 "flow.compile" !compiles);
      ("flow.evaluate_ms", per ~scale:1e3 "flow.evaluate" !evaluations);
      ("fleet.analyze_ms", 1e3 *. seconds_in "fleet.analyze");
      ("store.mem_hit_us", per ~scale:1e6 "store.mem_hit" store_entries);
      ("store.disk_hit_us", per ~scale:1e6 "store.disk_hit" store_entries);
      ("store.miss_us", per ~scale:1e6 "store.miss" store_entries);
      ("store.write_us", per ~scale:1e6 "store.write" store_entries);
      ("serve.frame_us", per ~scale:1e6 "serve.frame" frame_reps);
      ("serve.handler_ms", per ~scale:1e3 "serve.handler" handled);
      ("trace.overhead_pct", 100.0 *. ((!traced_s /. !untraced_s) -. 1.0));
    ]
  in
  print_endline
    (J.to_string
       (J.Obj
          [
            ("metrics", J.Obj (List.map (fun (k, v) -> (k, J.Float v)) metrics));
            ("layers", J.Arr (layer_table ()));
            ("requests", J.Int !trace_id);
            ("trace_file", J.Str out_trace);
          ]))
