(* Tests for the observability layer: the structured event log (JSON-lines
   sink, level filtering, domain-safe emission), the flight-recorder ring,
   and Guard's crash dump on internal faults.  Event-log state is global
   (sink, ring), so every test re-arms it and restores the Null sink. *)

module T = Telemetry
module E = Telemetry.Event
module J = Telemetry.Json
module FS = Engine.Faultsim
module P = Engine.Pool
module G = Engine.Guard

let with_fresh_events f =
  T.reset ();
  E.clear_ring ();
  Fun.protect
    ~finally:(fun () ->
      E.close_sink ();
      E.set_level E.Info)
    f

let temp_file suffix =
  let path = Filename.temp_file "polyufc_obs" suffix in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let read_lines path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  String.split_on_char '\n' text |> List.filter (fun l -> String.trim l <> "")

let plan_of_string s =
  match FS.parse_plan s with
  | Ok p -> p
  | Error msg -> Alcotest.fail ("bad test plan: " ^ msg)

(* ---------- event envelope ---------- *)

let test_event_envelope () =
  with_fresh_events @@ fun () ->
  T.enable ();
  Fun.protect ~finally:T.disable @@ fun () ->
  T.with_span "obs.outer" (fun () ->
      E.info ~fields:[ ("k", J.Int 7) ] "obs.test");
  match E.recent () with
  | [ doc ] ->
    Alcotest.(check bool) "ts present" true (J.member "ts" doc <> None);
    Alcotest.(check bool) "level is info" true
      (J.member "level" doc = Some (J.Str "info"));
    Alcotest.(check bool) "event name" true
      (J.member "event" doc = Some (J.Str "obs.test"));
    Alcotest.(check bool) "span context captured" true
      (J.member "span" doc = Some (J.Str "obs.outer"));
    Alcotest.(check bool) "extra field" true (J.member "k" doc = Some (J.Int 7))
  | l -> Alcotest.fail (Printf.sprintf "expected 1 event, got %d" (List.length l))

(* ---------- JSON-lines sink under concurrent pool writers ---------- *)

let test_jsonlines_concurrent_pool () =
  with_fresh_events @@ fun () ->
  let path = temp_file ".log" in
  Sys.remove path;
  (match E.set_sink_path path with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("cannot open sink: " ^ msg));
  let per_job = 50 and n_jobs = 32 in
  P.with_pool ~jobs:4 (fun pool ->
      ignore
        (P.map pool
           (fun i ->
             for k = 1 to per_job do
               E.info
                 ~fields:[ ("job", J.Int i); ("k", J.Int k) ]
                 "obs.concurrent"
             done)
           (List.init n_jobs Fun.id)));
  E.close_sink ();
  (* under a background FAULTSIM plan (the CI chaos gate) crashed jobs
     re-run — duplicating their events — and the pool logs its own
     crash/requeue events, so the properties are: every line is intact
     JSON with the envelope, and every (job, k) pair made it through *)
  let lines = read_lines path in
  Alcotest.(check bool) "at least one line per emission" true
    (List.length lines >= per_job * n_jobs);
  let seen = Hashtbl.create 64 in
  List.iter
    (fun line ->
      match J.of_string line with
      | Error msg -> Alcotest.fail ("torn or unparseable event line: " ^ msg)
      | Ok doc ->
        List.iter
          (fun key ->
            if J.member key doc = None then
              Alcotest.failf "event line missing %S" key)
          [ "ts"; "level"; "event" ];
        if J.member "event" doc = Some (J.Str "obs.concurrent") then (
          match (J.member "job" doc, J.member "k" doc) with
          | Some (J.Int j), Some (J.Int k) -> Hashtbl.replace seen (j, k) ()
          | _ -> Alcotest.fail "payload fields lost"))
    lines;
  Alcotest.(check int) "every (job, k) pair present" (per_job * n_jobs)
    (Hashtbl.length seen)

(* ---------- level filtering and the flight-recorder ring ---------- *)

let test_level_filter_and_ring () =
  with_fresh_events @@ fun () ->
  let path = temp_file ".log" in
  Sys.remove path;
  (match E.set_sink_path path with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("cannot open sink: " ^ msg));
  E.set_level E.Warn;
  E.debug "obs.dropped";
  E.info "obs.dropped";
  E.warn "obs.kept";
  E.error "obs.kept";
  E.close_sink ();
  Alcotest.(check int) "sink sees only warn+" 2 (List.length (read_lines path));
  (* the ring records everything, independent of the level filter *)
  Alcotest.(check int) "ring records all levels" 4 (List.length (E.recent ()));
  E.clear_ring ();
  for i = 1 to 300 do
    E.info ~fields:[ ("i", J.Int i) ] "obs.ring"
  done;
  let ring = E.recent () in
  Alcotest.(check int) "ring bounded at 256" 256 (List.length ring);
  (match J.member "i" (List.hd ring) with
  | Some (J.Int i) ->
    Alcotest.(check int) "oldest surviving event is #45" 45 i
  | _ -> Alcotest.fail "ring event lost its payload");
  match J.member "i" (List.nth ring 255) with
  | Some (J.Int i) -> Alcotest.(check int) "newest event is #300" 300 i
  | _ -> Alcotest.fail "ring event lost its payload"

let test_level_of_string () =
  List.iter
    (fun (s, expected) ->
      Alcotest.(check bool) ("level " ^ s) true (E.level_of_string s = expected))
    [
      ("debug", Some E.Debug);
      ("info", Some E.Info);
      ("warn", Some E.Warn);
      ("warning", Some E.Warn);
      ("error", Some E.Error);
      ("loud", None);
    ]

(* ---------- crash dump on internal faults ---------- *)

let in_temp_crash_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "polyufc_crash_%d" (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  Unix.putenv "POLYUFC_CRASH_DIR" dir;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "POLYUFC_CRASH_DIR" "";
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (try Sys.readdir dir with Sys_error _ -> [||]);
      try Unix.rmdir dir with Unix.Unix_error _ -> ())
    (fun () -> f dir)

(* An all-crashing pool under FAULTSIM pool.worker_crash:1.0:7 abandons
   the job, Worker_failure escapes to Guard as an internal fault (exit 5),
   and the diagnostic carries a parseable flight-recorder dump. *)
let test_crash_dump_under_faultsim () =
  with_fresh_events @@ fun () ->
  in_temp_crash_dir @@ fun _dir ->
  let d =
    FS.with_plan (plan_of_string "pool.worker_crash:1.0:7") (fun () ->
        match
          G.protect ~phase:"analyze" (fun () ->
              P.with_pool ~jobs:2 ~max_retries:1 (fun pool ->
                  ignore (P.map pool (fun x -> x + 1) [ 1; 2; 3 ])))
        with
        | Ok _ -> Alcotest.fail "expected the map to fail"
        | Error d -> d)
  in
  Alcotest.(check int) "internal fault exit code" G.exit_internal d.G.code;
  let dump_path =
    match d.G.dump with
    | Some p -> p
    | None -> Alcotest.fail "no crash dump recorded in the diagnostic"
  in
  Alcotest.(check bool) "dump file exists" true (Sys.file_exists dump_path);
  let ic = open_in_bin dump_path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match J.of_string text with
  | Error msg -> Alcotest.fail ("crash dump does not parse: " ^ msg)
  | Ok doc ->
    Alcotest.(check bool) "dump schema" true
      (J.member "schema" doc = Some (J.Str "polyufc-crash/v1"));
    Alcotest.(check bool) "dump carries run metadata" true
      (match J.member "meta" doc with
      | Some meta -> J.member "pid" meta <> None
      | None -> false);
    (match J.member "error" doc with
    | Some err ->
      Alcotest.(check bool) "dump error code 5" true
        (J.member "code" err = Some (J.Int G.exit_internal));
      Alcotest.(check bool) "dump error phase" true
        (J.member "phase" err = Some (J.Str "analyze"))
    | None -> Alcotest.fail "dump missing error object");
    let events =
      match J.member "events" doc with
      | Some (J.Arr l) -> l
      | _ -> Alcotest.fail "dump missing events array"
    in
    Alcotest.(check bool) "dump captured supervision events" true
      (List.exists
         (fun e -> J.member "event" e = Some (J.Str "pool.worker_crash"))
         events);
    Alcotest.(check bool) "dump captured the abandonment" true
      (List.exists
         (fun e -> J.member "event" e = Some (J.Str "pool.job_abandoned"))
         events);
    Alcotest.(check bool) "dump captured the guard trap" true
      (List.exists
         (fun e -> J.member "event" e = Some (J.Str "guard.trapped"))
         events)

(* Resource outcomes are cooperative shutdowns, not crashes: no dump. *)
let test_no_dump_on_budget_exhaustion () =
  with_fresh_events @@ fun () ->
  in_temp_crash_dir @@ fun dir ->
  (match G.protect (fun () -> raise (Engine.Budget.Exhausted "deadline")) with
  | Ok _ -> Alcotest.fail "expected exhaustion"
  | Error d ->
    Alcotest.(check int) "exit 4" G.exit_exhausted d.G.code;
    Alcotest.(check bool) "no dump for exit 4" true (d.G.dump = None));
  Alcotest.(check int) "crash dir stays empty" 0
    (Array.length (Sys.readdir dir))

(* ---------- per-layer spans and counters of one request ---------- *)

module Core = Polyufc_core

(* the document [analyze --stats] writes, for a cold analyze *)
let cold_analyze_stats () =
  T.reset ();
  T.enable ();
  Core.Analysis_cache.clear_tile_memo ();
  Fun.protect
    ~finally:(fun () ->
      T.disable ();
      T.reset ())
    (fun () ->
      ignore
        (Core.Pipeline.execute ~ctx:Engine.Ctx.none
           (Core.Request.make
              (Core.Request.Analyze
                 { Core.Request.program = Core.Request.Workload "gemm"; sizes = [ ("n", 16) ] })));
      T.stats_json ())

let test_analyze_layers () =
  let doc = cold_analyze_stats () in
  let section k = match J.member k doc with Some v -> v | None -> Alcotest.failf "no %s" k in
  List.iter
    (fun span ->
      Alcotest.(check bool) ("span " ^ span) true (J.member span (section "spans") <> None))
    [ Core.Flow.phase_pluto; Core.Flow.phase_cm ];
  let counter k =
    match J.member k (section "counters") with
    | Some (J.Int n) -> n
    | _ -> Alcotest.failf "no counter %s" k
  in
  (* one walk: the producer's bulk report equals the model's *)
  Alcotest.(check int) "interp.accesses = cache_model.accesses"
    (counter "cache_model.accesses") (counter "interp.accesses");
  Alcotest.(check bool) "interp.chunks > 0" true (counter "interp.chunks" > 0)

(* the empty-domain check is memoized per program and sizes; its counter
   ticks alike on a cold and a warm compile *)
let test_empty_domains_tick () =
  let prog =
    Polylang.parse
      {|
program dead(n, m) {
  arrays { A[n] : f64; B[n] : f64; }
  for (i = 0; i < n; i++) { A[i] = A[i] + 1.0; }
  for (j = 0; j < m; j++) { B[j] = 2.0; }
}
|}
  in
  let rooflines = Lazy.force Test_support.bdw_rooflines in
  let ticks sizes =
    T.reset ();
    T.enable ();
    Fun.protect
      ~finally:(fun () ->
        T.disable ();
        T.reset ())
      (fun () ->
        ignore
          (Core.Flow.compile ~machine:Hwsim.Machine.bdw ~rooflines prog
             ~param_values:sizes);
        T.counter_value "flow.empty_stmt_domains")
  in
  Core.Analysis_cache.clear_tile_memo ();
  let dead = [ ("n", 16); ("m", 0) ] and live = [ ("n", 16); ("m", 4) ] in
  Alcotest.(check (list int)) "cold, warm, new sizes, warm again" [ 1; 1; 0; 0; 1 ]
    [ ticks dead; ticks dead; ticks live; ticks live; ticks (List.rev dead) ]

let tests =
  [
    Alcotest.test_case "event envelope" `Quick test_event_envelope;
    Alcotest.test_case "cold analyze: pluto and CM spans, interp counters" `Quick
      test_analyze_layers;
    Alcotest.test_case "empty-domain count: warm ticks as cold" `Quick
      test_empty_domains_tick;
    Alcotest.test_case "JSON-lines sink, concurrent pool writers" `Quick
      test_jsonlines_concurrent_pool;
    Alcotest.test_case "level filter + flight-recorder ring" `Quick
      test_level_filter_and_ring;
    Alcotest.test_case "level_of_string" `Quick test_level_of_string;
    Alcotest.test_case "crash dump under pool.worker_crash:1.0" `Quick
      test_crash_dump_under_faultsim;
    Alcotest.test_case "no dump on budget exhaustion" `Quick
      test_no_dump_on_budget_exhaustion;
  ]
