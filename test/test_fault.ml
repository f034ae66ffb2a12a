(* Tests for the fault-injection framework and the recovery machinery it
   exercises: deterministic seeded fault plans, the supervised worker
   pool (crash requeue/backoff/respawn, terminal Worker_failure,
   map_partial fidelity), the fault-aware cache I/O (atomic writes with
   retry, ENOSPC read-only degradation, torn-write quarantine), the
   Guard diagnostic boundary, and a mini-fuzzer asserting that no
   mutated input can make any of the three frontends escape an
   exception past Guard.protect. *)

open Polyufc_core
module FS = Engine.Faultsim
module G = Engine.Guard
module P = Engine.Pool
module R = Engine.Rcache
module F = Engine.Fidelity
module J = Telemetry.Json

let fresh_dir () = Filename.temp_dir "polyufc_fault_test" ""

let plan_of_string s =
  match FS.parse_plan s with
  | Ok p -> p
  | Error m -> Alcotest.failf "plan %S refused: %s" s m

(* ---------- plans and streams ---------- *)

let test_plan_parse () =
  let p = plan_of_string "pool.worker_crash:0.2:7, rcache.torn_write:1:3" in
  Alcotest.(check string) "round trip"
    "pool.worker_crash:0.2:7,rcache.torn_write:1:3" (FS.plan_to_string p);
  let bad s =
    match FS.parse_plan s with
    | Ok _ -> Alcotest.failf "plan %S must be refused" s
    | Error _ -> ()
  in
  bad "";
  bad "nonsense.site:0.5:1";
  bad "pool.worker_crash:1.5:1";
  bad "pool.worker_crash:0.5:-1";
  bad "pool.worker_crash:0.5";
  List.iter
    (fun site ->
      Alcotest.(check bool)
        (FS.site_name site ^ " self-names") true
        (FS.site_of_name (FS.site_name site) = Some site))
    FS.all_sites

let test_fire_deterministic () =
  let plan = plan_of_string "io.report_write:0.5:123" in
  let sample () =
    FS.with_plan plan (fun () ->
        List.init 200 (fun _ -> FS.fire FS.Io_report_write))
  in
  let a = sample () in
  Alcotest.(check (list bool)) "same seed, same fault sequence" a (sample ());
  Alcotest.(check bool) "both outcomes occur" true
    (List.mem true a && List.mem false a);
  (* a different seed gives a different sequence *)
  let b =
    FS.with_plan
      (plan_of_string "io.report_write:0.5:124")
      (fun () -> List.init 200 (fun _ -> FS.fire FS.Io_report_write))
  in
  Alcotest.(check bool) "different seed, different sequence" true (a <> b)

let test_unarmed_is_silent () =
  FS.suspended @@ fun () ->
  Alcotest.(check bool) "inactive under the empty plan" false (FS.active ());
  let before = FS.injected_count FS.Pool_worker_crash in
  for _ = 1 to 100 do
    Alcotest.(check bool) "never fires" false (FS.fire FS.Pool_worker_crash)
  done;
  Alcotest.(check int) "nothing counted" before
    (FS.injected_count FS.Pool_worker_crash)

(* ---------- atomic report/cache writes ---------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let test_write_atomic_roundtrip () =
  FS.suspended @@ fun () ->
  let dir = fresh_dir () in
  let path = Filename.concat dir "report.json" in
  Engine.Io.write_atomic path "{\"v\":1}";
  Alcotest.(check string) "written" "{\"v\":1}" (read_file path);
  Engine.Io.write_atomic path "{\"v\":2}";
  Alcotest.(check string) "replaced" "{\"v\":2}" (read_file path);
  Alcotest.(check (list string)) "no temp-file litter" [ "report.json" ]
    (Array.to_list (Sys.readdir dir))

let test_write_atomic_failure_keeps_old () =
  (* a write that fails (here: the io.report_write site at prob 1, so the
     retry fails too) must raise without touching the previous contents *)
  let dir = fresh_dir () in
  let path = Filename.concat dir "report.json" in
  FS.suspended (fun () -> Engine.Io.write_atomic path "old");
  let retries = ref 0 in
  FS.with_plan (plan_of_string "io.report_write:1:1") (fun () ->
      match
        Engine.Io.write_atomic ~fault:FS.Io_report_write
          ~on_retry:(fun () -> incr retries)
          path "new"
      with
      | () -> Alcotest.fail "write under a certain fault must fail"
      | exception FS.Injected FS.Io_report_write -> ());
  Alcotest.(check int) "exactly one retry" 1 !retries;
  Alcotest.(check string) "old contents intact" "old" (read_file path)

(* ---------- guard ---------- *)

let code_of = function
  | Ok _ -> Alcotest.fail "expected a diagnostic"
  | Error d -> d.G.code

let test_guard_codes () =
  Alcotest.(check int) "parse error -> invalid input" G.exit_invalid_input
    (code_of (G.protect (fun () -> ignore (Polylang.parse "program oops ("))));
  Alcotest.(check int) "exhausted -> 4" G.exit_exhausted
    (code_of (G.protect (fun () -> raise (Engine.Budget.Exhausted "deadline"))));
  Alcotest.(check int) "cancelled -> 130" G.exit_interrupted
    (code_of (G.protect (fun () -> raise (Engine.Cancel.Cancelled "^C"))));
  Alcotest.(check int) "worker failure -> internal" G.exit_internal
    (code_of (G.protect (fun () -> raise (P.Worker_failure "gone"))));
  Alcotest.(check int) "unknown exception -> internal" G.exit_internal
    (code_of (G.protect (fun () -> raise Not_found)));
  Alcotest.(check int) "failwith -> invalid input" G.exit_invalid_input
    (code_of (G.protect (fun () -> failwith "bad manifest")))

let test_guard_phase_and_span () =
  (match G.protect (fun () -> G.phase "parse" (fun () -> ignore (Polylang.parse "program x("))) with
  | Ok _ -> Alcotest.fail "expected a diagnostic"
  | Error d ->
    Alcotest.(check string) "innermost phase attributed" "parse" d.G.phase;
    (match d.G.span with
    | Some s ->
      Alcotest.(check bool) ("span is a line ref: " ^ s) true
        (String.length s > 5 && String.sub s 0 5 = "line ")
    | None -> Alcotest.fail "polylang errors carry a line span"));
  (* a successful inner phase restores the outer label *)
  match G.protect ~phase:"outer" (fun () ->
          G.phase "inner" (fun () -> ());
          failwith "later")
  with
  | Error d -> Alcotest.(check string) "outer phase restored" "outer" d.G.phase
  | Ok _ -> Alcotest.fail "expected a diagnostic"

let test_guard_json_wellformed () =
  match G.protect (fun () -> ignore (Polylang.parse "program x(")) with
  | Ok _ -> Alcotest.fail "expected a diagnostic"
  | Error d -> (
    match J.of_string (J.to_string (G.json_of d)) with
    | Error m -> Alcotest.failf "diagnostic JSON does not re-parse: %s" m
    | Ok doc ->
      List.iter
        (fun k ->
          if J.member k doc = None then Alcotest.failf "missing %S field" k)
        [ "code"; "phase"; "message"; "span" ])

(* ---------- supervised pool ---------- *)

let with_telemetry f =
  let was = Telemetry.is_enabled () in
  Telemetry.enable ();
  Fun.protect ~finally:(fun () -> if not was then Telemetry.disable ()) f

let test_crash_map_deterministic () =
  (* acceptance: under pool.worker_crash:0.2:7 a 64-job map returns
     byte-identical results to the fault-free run, and worker crashes
     were actually injected and recovered *)
  with_telemetry @@ fun () ->
  let xs = List.init 64 (fun i -> i) in
  let f x = Printf.sprintf "%d:%d" x ((x * x * 37) mod 1009) in
  let expect = FS.suspended (fun () -> List.map f xs) in
  let crashes_before = FS.injected_count FS.Pool_worker_crash in
  let tel_before = Telemetry.counter_value "engine.worker_crashes" in
  let got =
    FS.with_plan (plan_of_string "pool.worker_crash:0.2:7") (fun () ->
        P.with_pool ~jobs:4 ~max_retries:10 (fun pool -> P.map pool f xs))
  in
  Alcotest.(check (list string)) "retries hide crashes byte-for-byte" expect
    got;
  Alcotest.(check bool) "crashes were injected" true
    (FS.injected_count FS.Pool_worker_crash > crashes_before);
  Alcotest.(check bool) "telemetry engine.worker_crashes > 0" true
    (Telemetry.counter_value "engine.worker_crashes" > tel_before)

let test_crash_terminal_is_partial () =
  (* with max_retries=0 and a certain crash, every job is abandoned on
     its first crash: map_partial completes (no raise, no hang) and
     reports Partial; plain map raises the terminal Worker_failure *)
  FS.with_plan (plan_of_string "pool.worker_crash:1:11") @@ fun () ->
  let xs = List.init 16 (fun i -> i) in
  P.with_pool ~jobs:2 ~max_retries:0 @@ fun pool ->
  let kept, fidelity = P.map_partial pool (fun x -> x + 1) xs in
  Alcotest.(check (list int)) "every slot abandoned" [] kept;
  Alcotest.(check bool) "fidelity partial" true (fidelity = F.Partial);
  match P.map pool (fun x -> x + 1) xs with
  | _ -> Alcotest.fail "map must re-raise the terminal failure"
  | exception P.Worker_failure _ -> ()

let test_crash_partial_keeps_survivors () =
  (* at a sub-certain rate with no retry budget, abandoned slots drop but
     surviving slots keep their values and order *)
  FS.with_plan (plan_of_string "pool.worker_crash:0.4:21") @@ fun () ->
  let xs = List.init 48 (fun i -> i) in
  P.with_pool ~jobs:4 ~max_retries:0 @@ fun pool ->
  let kept, fidelity = P.map_partial pool (fun x -> 3 * x) xs in
  let expect_all = List.map (fun x -> 3 * x) xs in
  Alcotest.(check bool) "survivors keep order and values" true
    (List.for_all (fun v -> List.mem v expect_all) kept
    && List.sort compare kept = kept);
  Alcotest.(check bool) "some slots lost at this rate" true
    (List.length kept < List.length xs);
  Alcotest.(check bool) "partial fidelity" true (fidelity = F.Partial)

let test_pool_survives_chaos () =
  (* after a crashy episode the pool still dispatches cleanly *)
  P.with_pool ~jobs:3 ~max_retries:10 @@ fun pool ->
  FS.with_plan (plan_of_string "pool.worker_crash:0.5:5") (fun () ->
      ignore (P.map pool succ (List.init 32 Fun.id)));
  FS.suspended (fun () ->
      Alcotest.(check (list int)) "clean map after chaos" [ 1; 2; 3 ]
        (P.map pool succ [ 0; 1; 2 ]))

let test_stall_trips_deadline () =
  (* a stalled worker must surface as deadline exhaustion (bounded
     latency), not as a hang: the job runs ~stall_seconds late, by which
     time the 50 ms budget is spent *)
  FS.with_plan (plan_of_string "pool.worker_stall:1:13") @@ fun () ->
  let budget = Engine.Budget.create ~deadline_s:0.05 ~degrade:Engine.Budget.Off () in
  P.with_pool ~jobs:2 @@ fun pool ->
  match P.map pool (fun _ -> Engine.Budget.check budget) [ 1; 2; 3; 4 ] with
  | _ -> Alcotest.fail "stalled map under a tiny deadline must exhaust"
  | exception Engine.Budget.Exhausted _ -> ()

(* ---------- flow under terminal faults ---------- *)

let two_region_src =
  {|
program two(n) {
  arrays { A[n][n] : f64; B[n][n] : f64; x[n] : f64; y[n] : f64; }
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) {
      y[i] = y[i] + A[i][j] * x[j];
    }
  }
  for (k = 0; k < n; k++) {
    for (l = 0; l < n; l++) {
      B[k][l] = A[k][l] + B[k][l];
    }
  }
}
|}

let compile_two ?ctx () =
  Flow.compile ?ctx ~tile:false ~machine:Hwsim.Machine.bdw
    ~rooflines:(Lazy.force Test_support.bdw_rooflines)
    (Polylang.parse two_region_src)
    ~param_values:[ ("n", 40) ]

let test_flow_partial_under_terminal_crash () =
  (* with injection terminal the compile must complete with
     fidelity=partial — pooled fan-outs lose their jobs, the analysis
     self-heals inline — instead of raising or hanging *)
  let c =
    FS.with_plan (plan_of_string "pool.worker_crash:1:17") (fun () ->
        P.with_pool ~jobs:3 ~max_retries:0 (fun pool ->
            compile_two ~ctx:(Engine.Ctx.create ~pool ()) ()))
  in
  Alcotest.(check bool) "fidelity partial" true
    (c.Flow.fidelity = F.Partial);
  (* the self-healed cache model is still the exact one *)
  let exact = FS.suspended (fun () -> compile_two ()) in
  Alcotest.(check (float 1e-9)) "cache model healed to the exact OI"
    exact.Flow.cm.Cache_model.Model.oi c.Flow.cm.Cache_model.Model.oi

let test_flow_retries_hide_crashes () =
  let exact = FS.suspended (fun () -> compile_two ()) in
  let stable c =
    match Report.json_of_compiled c with
    | J.Obj fields ->
      J.to_string (J.Obj (List.filter (fun (k, _) -> k <> "timing") fields))
    | j -> J.to_string j
  in
  let crashy =
    FS.with_plan (plan_of_string "pool.worker_crash:0.2:7") (fun () ->
        P.with_pool ~jobs:4 ~max_retries:10 (fun pool ->
            compile_two ~ctx:(Engine.Ctx.create ~pool ()) ()))
  in
  Alcotest.(check string) "crashy pooled compile = fault-free compile"
    (stable exact) (stable crashy)

(* ---------- fault-aware cache ---------- *)

let test_enospc_flips_readonly () =
  let dir = fresh_dir () in
  let c = R.create ~dir () in
  let k = R.key [ ("t", "enospc") ] in
  let before = R.counts () in
  FS.with_plan (plan_of_string "rcache.enospc:1:3") (fun () ->
      Alcotest.(check bool) "starts writable" false (R.read_only c);
      R.store c k (J.Int 1);
      Alcotest.(check bool) "ENOSPC flips read-only" true (R.read_only c);
      (* later stores are silent no-ops, not repeated flips or errors *)
      R.store c k (J.Int 2));
  let after = R.counts () in
  Alcotest.(check int) "flip counted once" (before.R.readonly_flips + 1)
    after.R.readonly_flips;
  Alcotest.(check int) "nothing stored on disk" before.R.stores after.R.stores;
  FS.suspended @@ fun () ->
  (* the memory tier absorbed the store anyway: this handle keeps its
     working set warm on a full disk... *)
  Alcotest.(check bool) "same handle still serves from memory" true
    (R.find c k = Some (J.Int 2));
  (* ...but nothing reached the disk: a fresh handle on the same
     directory misses *)
  let fresh = R.create ~dir () in
  Alcotest.(check bool) "fresh handle misses (disk empty)" true
    (R.find fresh k = None);
  (* the analysis above the cache still succeeds, just uncached *)
  let v =
    R.find_or_add fresh ~key:k
      ~decode:(function J.Int i -> Some i | _ -> None)
      ~encode:(fun i -> J.Int i)
      (fun () -> 99)
  in
  Alcotest.(check int) "find_or_add computes through" 99 v

let test_torn_write_quarantined () =
  let dir = fresh_dir () in
  (* mem tier off: it keeps the pre-tear payload and would (correctly)
     mask the torn on-disk entry this test is about *)
  let c = R.create ~dir ~mem_entries:0 () in
  let k = R.key [ ("t", "torn") ] in
  FS.with_plan (plan_of_string "rcache.torn_write:1:5") (fun () ->
      R.store c k (J.Obj [ ("big", J.Str (String.make 64 'x')) ]));
  let before = R.counts () in
  FS.suspended @@ fun () ->
  Alcotest.(check bool) "torn entry is a miss on next read" true
    (R.find c k = None);
  let after = R.counts () in
  Alcotest.(check int) "quarantined" (before.R.quarantined + 1)
    after.R.quarantined;
  let qdir = R.quarantine_dir c in
  Alcotest.(check bool) "moved to quarantine/" true
    (Sys.file_exists qdir && Array.length (Sys.readdir qdir) > 0);
  (* the slot is usable again *)
  R.store c k (J.Int 7);
  Alcotest.(check bool) "repaired" true (R.find c k = Some (J.Int 7))

let test_read_corrupt_retry () =
  (* a 50% flaky read medium over 20 distinct entries: hits must still be
     served (clean first read, or the one-retry path), unlucky
     double-corrupt reads quarantine, and the cache never raises *)
  let dir = fresh_dir () in
  let c = R.create ~dir () in
  let keys = List.init 20 (fun i -> R.key [ ("t", string_of_int i) ]) in
  FS.suspended (fun () -> List.iter (fun k -> R.store c k (J.Int 5)) keys);
  let served = ref 0 in
  FS.with_plan (plan_of_string "rcache.read_corrupt:0.5:9") (fun () ->
      List.iter
        (fun k ->
          match R.find c k with
          | Some (J.Int 5) -> incr served
          | Some _ -> Alcotest.fail "a served hit must be the stored value"
          | None -> () (* double-corrupt read: quarantined, a miss *)
          | exception e ->
            Alcotest.failf "flaky reads must never raise: %s"
              (Printexc.to_string e))
        keys);
  Alcotest.(check bool) "some reads served despite the flaky medium" true
    (!served > 0)

(* ---------- frontend fuzzing ---------- *)

let gemm_src =
  {|
program gemm(n) {
  arrays { A[n][n] : f64; B[n][n] : f64; C[n][n] : f64; }
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) {
      C[i][j] = 0.0;
      for (k = 0; k < n; k++) {
        C[i][j] = C[i][j] + A[i][k] * B[k][j];
      }
    }
  }
}
|}

let mvt_src =
  {|
program mvt(n) {
  arrays { A[n][n] : f64; x1[n] : f64; x2[n] : f64; y1[n] : f64; y2[n] : f64; }
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) {
      x1[i] = x1[i] + A[i][j] * y1[j];
    }
  }
  for (k = 0; k < n; k++) {
    for (l = 0; l < n; l++) {
      x2[k] = x2[k] + A[l][k] * y2[l];
    }
  }
}
|}

let isl_seeds =
  [
    "[n, m] -> { S[i, j] -> A[i + j, 2*j] : 0 <= i < n and 0 <= j < m and (i \
     + j) mod 2 = 0 }";
    "{ [i] : 0 <= i <= 10 and i != 4 ; [i] : i = 42 }";
    "[n] -> { [i, j] : 0 <= i < n and 0 <= j < i and floor(i / 2) = j }";
  ]

let tokens =
  [| "for"; "("; ")"; "{"; "}"; ";"; "mod"; "and"; "or"; "["; "]"; "->";
     "<="; "!="; "0"; "program"; "arrays"; ":"; "=" |]

let mutate st s =
  let n = String.length s in
  if n = 0 then "x"
  else
    match Random.State.int st 6 with
    | 0 ->
      let i = Random.State.int st n in
      String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | 1 ->
      let i = Random.State.int st (n + 1) in
      let c = Char.chr (Random.State.int st 256) in
      String.sub s 0 i ^ String.make 1 c ^ String.sub s i (n - i)
    | 2 ->
      let b = Bytes.of_string s in
      let i = Random.State.int st n in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 lsl Random.State.int st 8)));
      Bytes.to_string b
    | 3 -> String.sub s 0 (Random.State.int st n)
    | 4 ->
      let i = Random.State.int st n in
      let len = min (n - i) (1 + Random.State.int st 24) in
      String.sub s 0 (i + len) ^ String.sub s i (n - i)
    | _ ->
      let i = Random.State.int st (n + 1) in
      let tok = tokens.(Random.State.int st (Array.length tokens)) in
      String.sub s 0 i ^ tok ^ String.sub s i (n - i)

let fuzz_rounds = 500

(* Run [frontend] on [fuzz_rounds] mutated inputs.  The property under
   test: Guard.protect never lets an exception escape, every failure is
   a structured diagnostic with a defined exit code, and the diagnostic
   always serializes to re-parseable JSON. *)
let fuzz ~name ~seeds frontend () =
  FS.suspended @@ fun () ->
  let st = Random.State.make [| 0x5eed; Hashtbl.hash name |] in
  let seeds = Array.of_list seeds in
  let failures = ref 0 in
  for i = 1 to fuzz_rounds do
    let s = ref seeds.(Random.State.int st (Array.length seeds)) in
    for _ = 0 to Random.State.int st 4 do
      s := mutate st !s
    done;
    match G.protect ~phase:"parse" (fun () -> frontend !s) with
    | Ok () -> ()
    | Error d ->
      incr failures;
      if
        not
          (List.mem d.G.code
             [ G.exit_invalid_input; G.exit_exhausted; G.exit_internal ])
      then
        Alcotest.failf "%s: mutant %d: undefined exit code %d" name i d.G.code;
      if d.G.message = "" then
        Alcotest.failf "%s: mutant %d: empty diagnostic" name i;
      (match J.of_string (J.to_string (G.json_of d)) with
      | Ok _ -> ()
      | Error m ->
        Alcotest.failf "%s: mutant %d: diagnostic not JSON: %s" name i m)
    | exception e ->
      Alcotest.failf "%s: mutant %d: exception escaped Guard.protect: %s" name
        i (Printexc.to_string e)
  done;
  (* sanity: the mutator actually produces plenty of invalid inputs *)
  Alcotest.(check bool) "mutants exercised the failure path" true
    (!failures > fuzz_rounds / 10)

let fuzz_polylang =
  fuzz ~name:"polylang" ~seeds:[ gemm_src; mvt_src ] (fun s ->
      ignore (Polylang.parse s))

let fuzz_isl =
  fuzz ~name:"isl-syntax" ~seeds:isl_seeds (fun s ->
      ignore (Presburger.Syntax.pset_of_string s))

(* The mlir_lite frontend has no textual surface; its untrusted input is
   the module itself.  Fuzz the lowering boundary: random torch modules
   (including degenerate shapes) through randomly truncated pipelines,
   with to_program on whatever dialect mix results. *)
let fuzz_mlir () =
  let open Mlir_lite in
  FS.suspended @@ fun () ->
  let st = Random.State.make [| 0x5eed; Hashtbl.hash "mlir" |] in
  let failures = ref 0 in
  for i = 1 to fuzz_rounds do
    let dim () = Random.State.int st 40 - 4 in
    let op =
      match Random.State.int st 4 with
      | 0 -> Dialect.T_matmul { m = dim (); k = dim (); n = dim () }
      | 1 -> Dialect.T_softmax { rows = dim (); cols = dim () }
      | 2 -> Dialect.T_relu { elems = dim () }
      | _ ->
        Dialect.T_sdpa
          { batch = dim (); heads = dim (); seq = dim (); dim = dim () }
    in
    let m =
      {
        Dialect.module_name = "fuzz";
        arrays = [];
        ops = [ Dialect.Torch_op ("t", op) ];
      }
    in
    let passes =
      List.filteri
        (fun idx _ -> idx < Random.State.int st 4)
        [
          Lower.pass_torch_to_linalg;
          Lower.pass_linalg_to_affine ~tile:false ();
          Lower.pass_affine_to_scf;
        ]
    in
    match
      G.protect ~phase:"lower" (fun () ->
          ignore (Lower.to_program (Lower.run_pipeline passes m)))
    with
    | Ok () -> ()
    | Error d ->
      incr failures;
      if
        not
          (List.mem d.G.code
             [ G.exit_invalid_input; G.exit_exhausted; G.exit_internal ])
      then Alcotest.failf "mlir: mutant %d: undefined exit code %d" i d.G.code
    | exception e ->
      Alcotest.failf "mlir: mutant %d: exception escaped Guard.protect: %s" i
        (Printexc.to_string e)
  done;
  Alcotest.(check bool) "mutants exercised the failure path" true
    (!failures > fuzz_rounds / 10)

let tests =
  [
    Alcotest.test_case "fault plans parse and round-trip" `Quick
      test_plan_parse;
    Alcotest.test_case "seeded streams are deterministic" `Quick
      test_fire_deterministic;
    Alcotest.test_case "unarmed sites are free and silent" `Quick
      test_unarmed_is_silent;
    Alcotest.test_case "atomic write round-trips, no litter" `Quick
      test_write_atomic_roundtrip;
    Alcotest.test_case "failed atomic write keeps old file" `Quick
      test_write_atomic_failure_keeps_old;
    Alcotest.test_case "guard maps exceptions to exit codes" `Quick
      test_guard_codes;
    Alcotest.test_case "guard attributes phase and span" `Quick
      test_guard_phase_and_span;
    Alcotest.test_case "guard diagnostics are well-formed JSON" `Quick
      test_guard_json_wellformed;
    Alcotest.test_case "crash-injected map is byte-identical" `Quick
      test_crash_map_deterministic;
    Alcotest.test_case "terminal crashes degrade to partial" `Quick
      test_crash_terminal_is_partial;
    Alcotest.test_case "map_partial keeps surviving slots" `Quick
      test_crash_partial_keeps_survivors;
    Alcotest.test_case "pool survives a crashy episode" `Quick
      test_pool_survives_chaos;
    Alcotest.test_case "stalled worker trips the deadline" `Quick
      test_stall_trips_deadline;
    Alcotest.test_case "flow: terminal crash = fidelity partial" `Quick
      test_flow_partial_under_terminal_crash;
    Alcotest.test_case "flow: retries hide crashes byte-for-byte" `Quick
      test_flow_retries_hide_crashes;
    Alcotest.test_case "ENOSPC flips the cache read-only" `Quick
      test_enospc_flips_readonly;
    Alcotest.test_case "torn write quarantined on next read" `Quick
      test_torn_write_quarantined;
    Alcotest.test_case "flaky reads served through the retry" `Quick
      test_read_corrupt_retry;
    Alcotest.test_case "fuzz: polylang never escapes the guard" `Slow
      fuzz_polylang;
    Alcotest.test_case "fuzz: isl syntax never escapes the guard" `Slow
      fuzz_isl;
    Alcotest.test_case "fuzz: mlir lowering never escapes the guard" `Slow
      fuzz_mlir;
  ]
