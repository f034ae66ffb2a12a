(* Tests for the parallel analysis engine: the Domain worker pool
   (ordering, error propagation, nesting) and the persistent
   content-addressed result cache (digest stability, schema invalidation,
   corruption tolerance), plus the end-to-end guarantees the rest of the
   pipeline relies on: a cache hit reproduces a compile byte-for-byte, and
   compiles are deterministic in the number of worker domains. *)

open Polyufc_core
module P = Engine.Pool
module R = Engine.Rcache
module J = Telemetry.Json

let fresh_cache_dir () =
  Filename.temp_dir "polyufc_rcache_test" ""

(* ---------- worker pool ---------- *)

let test_map_matches_sequential () =
  let xs = List.init 101 (fun i -> i) in
  let f x = (x * x) + 1 in
  P.with_pool ~jobs:4 @@ fun pool ->
  Alcotest.(check int) "pool has 4 workers" 4 (P.jobs pool);
  Alcotest.(check (list int)) "map = List.map" (List.map f xs) (P.map pool f xs);
  Alcotest.(check (list int))
    "mapi = List.mapi"
    (List.mapi (fun i x -> (i * 1000) + x) xs)
    (P.mapi pool (fun i x -> (i * 1000) + x) xs)

let test_jobs1_runs_inline () =
  P.with_pool ~jobs:1 @@ fun pool ->
  let on_caller = ref true in
  let r =
    P.map pool
      (fun x ->
        if P.in_worker () then on_caller := false;
        x + 1)
      [ 1; 2; 3 ]
  in
  Alcotest.(check (list int)) "result" [ 2; 3; 4 ] r;
  Alcotest.(check bool) "jobs=1 stays on the caller" true !on_caller

let test_submit_await () =
  P.with_pool ~jobs:2 @@ fun pool ->
  let fut = P.submit pool (fun () -> 6 * 7) in
  (match P.await fut with
  | Ok v -> Alcotest.(check int) "future value" 42 v
  | Error _ -> Alcotest.fail "future failed");
  let boom = P.submit pool (fun () -> failwith "expected") in
  match P.await boom with
  | Ok _ -> Alcotest.fail "expected failure"
  | Error (Failure m) -> Alcotest.(check string) "error payload" "expected" m
  | Error _ -> Alcotest.fail "wrong exception"

exception Boom of int

let test_first_error_propagates () =
  P.with_pool ~jobs:4 @@ fun pool ->
  (match P.map pool (fun x -> if x = 3 then raise (Boom x) else x) [ 1; 2; 3; 4 ] with
  | _ -> Alcotest.fail "expected Boom"
  | exception Boom 3 -> ());
  (* the pool survives a failed map *)
  Alcotest.(check (list int)) "pool usable after failure" [ 2; 4 ]
    (P.map pool (fun x -> 2 * x) [ 1; 2 ])

let test_nested_map_no_deadlock () =
  (* more nested maps than workers: they must run inline on the worker
     (a blocking implementation would deadlock here, tripping the
     alcotest timeout) *)
  P.with_pool ~jobs:2 @@ fun pool ->
  let expect =
    List.map (fun x -> List.map (fun y -> x * y) [ 1; 2; 3 ]) (List.init 8 succ)
  in
  let got =
    P.map pool
      (fun x -> P.map pool (fun y -> x * y) [ 1; 2; 3 ])
      (List.init 8 succ)
  in
  Alcotest.(check (list (list int))) "nested map result" expect got

let test_shutdown_idempotent () =
  let pool = P.create ~jobs:2 () in
  Alcotest.(check (list int)) "works" [ 1 ] (P.map pool succ [ 0 ]);
  P.shutdown pool;
  P.shutdown pool;
  match P.submit pool (fun () -> ()) with
  | _ -> Alcotest.fail "submit after shutdown must raise"
  | exception Invalid_argument _ -> ()

(* ---------- result cache ---------- *)

let test_key_stability () =
  (* the canonical encoding is part of the on-disk format: a change here
     silently invalidates every existing cache, so pin it *)
  Alcotest.(check string) "pinned digest"
    "8dc154d4d973f31a5eec62b5fddf6a51"
    (R.key [ ("kernel", "gemm"); ("machine", "bdw") ]);
  Alcotest.(check string) "deterministic"
    (R.key [ ("a", "x") ])
    (R.key [ ("a", "x") ]);
  Alcotest.(check bool) "value matters" true
    (R.key [ ("a", "x") ] <> R.key [ ("a", "y") ]);
  Alcotest.(check bool) "field order matters" true
    (R.key [ ("a", "1"); ("b", "2") ] <> R.key [ ("b", "2"); ("a", "1") ]);
  Alcotest.(check bool) "length prefixing prevents boundary collisions" true
    (R.key [ ("ab", "c") ] <> R.key [ ("a", "bc") ])

let test_schema_bump_changes_key () =
  Alcotest.(check bool) "schema is part of the address" true
    (R.key [ ("a", "x") ]
    <> R.key ~schema:(R.schema_version + 1) [ ("a", "x") ])

let test_store_find_roundtrip () =
  Engine.Faultsim.suspended @@ fun () ->
  let c = R.create ~dir:(fresh_cache_dir ()) () in
  let k = R.key [ ("t", "roundtrip") ] in
  Alcotest.(check bool) "cold miss" true (R.find c k = None);
  let payload = J.Obj [ ("x", J.Int 7); ("s", J.Str "hi") ] in
  R.store c k payload;
  (match R.find c k with
  | Some p -> Alcotest.(check string) "payload" (J.to_string payload) (J.to_string p)
  | None -> Alcotest.fail "stored entry not found");
  Alcotest.(check int) "one entry on disk" 1 (R.stats c).R.entries;
  Alcotest.(check int) "clear removes it" 1 (R.clear c);
  Alcotest.(check bool) "gone" true (R.find c k = None)

let test_stale_schema_is_a_miss () =
  Engine.Faultsim.suspended @@ fun () ->
  let dir = fresh_cache_dir () in
  (* mem tier off: the point is how the disk tier treats the tampered
     file, and the memory tier would legitimately serve the old hit *)
  let c = R.create ~dir ~mem_entries:0 () in
  let k = R.key [ ("t", "stale") ] in
  R.store c k (J.Int 1);
  (* rewrite the entry as if a future version had written it *)
  let oc = open_out (R.entry_path c k) in
  output_string oc
    (J.to_string
       (J.Obj
          [ ("schema", J.Int (R.schema_version + 1)); ("payload", J.Int 1) ]));
  close_out oc;
  let before = (R.counts ()).R.corrupt in
  Alcotest.(check bool) "stale schema misses" true (R.find c k = None);
  Alcotest.(check int) "not counted as corruption" before
    (R.counts ()).R.corrupt

let test_corrupt_entry_ignored () =
  Engine.Faultsim.suspended @@ fun () ->
  let dir = fresh_cache_dir () in
  let c = R.create ~dir ~mem_entries:0 () in
  let k = R.key [ ("t", "corrupt") ] in
  R.store c k (J.Int 1);
  let oc = open_out (R.entry_path c k) in
  output_string oc "{ not json";
  close_out oc;
  let before = R.counts () in
  Alcotest.(check bool) "corrupt entry = miss, no exception" true
    (R.find c k = None);
  let after = R.counts () in
  Alcotest.(check int) "corruption counted" (before.R.corrupt + 1)
    after.R.corrupt;
  (* find_or_add falls back to computing and repairs the entry *)
  let v = R.find_or_add c ~key:k
      ~decode:(function J.Int i -> Some i | _ -> None)
      ~encode:(fun i -> J.Int i)
      (fun () -> 99)
  in
  Alcotest.(check int) "computed" 99 v;
  Alcotest.(check bool) "entry repaired" true (R.find c k = Some (J.Int 99))

let test_find_or_add_memoizes () =
  Engine.Faultsim.suspended @@ fun () ->
  let c = R.create ~dir:(fresh_cache_dir ()) () in
  let k = R.key [ ("t", "memo") ] in
  let calls = ref 0 in
  let compute () = incr calls; 5 in
  let decode = function J.Int i -> Some i | _ -> None in
  let encode i = J.Int i in
  Alcotest.(check int) "first computes" 5
    (R.find_or_add c ~key:k ~decode ~encode compute);
  Alcotest.(check int) "second hits" 5
    (R.find_or_add c ~key:k ~decode ~encode compute);
  Alcotest.(check int) "computed exactly once" 1 !calls

(* ---------- pipeline integration ---------- *)

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

(* the report minus its wall-clock timing: everything that must be
   reproducible *)
let stable_report c =
  match Report.json_of_compiled c with
  | J.Obj fields ->
    J.to_string (J.Obj (List.filter (fun (k, _) -> k <> "timing") fields))
  | j -> J.to_string j

let test_flow_cache_hit_reproduces_compile () =
  Engine.Faultsim.suspended @@ fun () ->
  let cache = R.create ~dir:(fresh_cache_dir ()) () in
  let cold = compile_two ~ctx:(Engine.Ctx.create ~cache ()) () in
  let before = R.counts () in
  let warm = compile_two ~ctx:(Engine.Ctx.create ~cache ()) () in
  let after = R.counts () in
  Alcotest.(check bool) "second compile hit the cache" true
    (after.R.hits > before.R.hits);
  Alcotest.(check string) "cached report byte-identical"
    (stable_report cold) (stable_report warm)

let test_compile_deterministic_in_jobs () =
  let seq = compile_two () in
  let seq_report = stable_report seq in
  let par =
    P.with_pool ~jobs:4 @@ fun pool ->
    compile_two ~ctx:(Engine.Ctx.create ~pool ()) ()
  in
  Alcotest.(check string) "jobs=4 = sequential" seq_report
    (stable_report par);
  (* and through the cache, in parallel, on a batch of programs: the
     fig7-style configuration the bench relies on *)
  let dir = fresh_cache_dir () in
  let batch jobs =
    P.with_pool ~jobs @@ fun pool ->
    let cache = R.create ~dir () in
    P.map pool
      (fun n ->
        stable_report
          (Flow.compile
             ~ctx:(Engine.Ctx.create ~pool ~cache ())
             ~tile:false ~machine:Hwsim.Machine.bdw
             ~rooflines:(Lazy.force Test_support.bdw_rooflines)
             (Polylang.parse two_region_src)
             ~param_values:[ ("n", n) ]))
      [ 24; 32; 40 ]
  in
  let r1 = batch 1 in
  let r4 = batch 4 in
  Alcotest.(check (list string)) "batch jobs=1 = jobs=4 (warm cache)" r1 r4

let tests =
  [
    Alcotest.test_case "pool map = sequential map" `Quick
      test_map_matches_sequential;
    Alcotest.test_case "jobs=1 runs inline" `Quick test_jobs1_runs_inline;
    Alcotest.test_case "submit/await" `Quick test_submit_await;
    Alcotest.test_case "first error propagates" `Quick
      test_first_error_propagates;
    Alcotest.test_case "nested map does not deadlock" `Quick
      test_nested_map_no_deadlock;
    Alcotest.test_case "shutdown is idempotent" `Quick test_shutdown_idempotent;
    Alcotest.test_case "key digest pinned and collision-free" `Quick
      test_key_stability;
    Alcotest.test_case "schema bump re-addresses" `Quick
      test_schema_bump_changes_key;
    Alcotest.test_case "store/find round trip" `Quick test_store_find_roundtrip;
    Alcotest.test_case "stale schema is a plain miss" `Quick
      test_stale_schema_is_a_miss;
    Alcotest.test_case "corrupt entry ignored and repaired" `Quick
      test_corrupt_entry_ignored;
    Alcotest.test_case "find_or_add memoizes" `Quick test_find_or_add_memoizes;
    Alcotest.test_case "flow cache hit reproduces compile" `Quick
      test_flow_cache_hit_reproduces_compile;
    Alcotest.test_case "compile deterministic in --jobs" `Quick
      test_compile_deterministic_in_jobs;
  ]
