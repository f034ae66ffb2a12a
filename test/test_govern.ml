(* Tests for the resource-governance layer: Budget / Cancel / Fidelity /
   Ctx semantics, governed counting (exact retry + dilation estimate),
   budget-degraded cache-model analysis (same result shape as exact,
   performance-safe OI, never cached), cancellation of a pooled
   Flow.compile (no stuck domains, no partial cache writes), corrupt
   cache-entry quarantine, and the Ctx-vs-legacy parity guarantee. *)

open Polyufc_core
module P = Engine.Pool
module R = Engine.Rcache
module B = Engine.Budget
module C = Engine.Cancel
module F = Engine.Fidelity
module Ctx = Engine.Ctx
module J = Telemetry.Json
module M = Cache_model.Model

let fresh_cache_dir () = Filename.temp_dir "polyufc_govern_test" ""

(* every file in the store's entry namespace: top-level stragglers plus
   the two-level shard dirs — but not meta/ (index, counters) or
   quarantine/, which are bookkeeping, not entries *)
let entry_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.concat_map (fun f ->
         let p = Filename.concat dir f in
         if Sys.is_directory p then
           if f = "meta" || f = "quarantine" then []
           else Sys.readdir p |> Array.to_list
         else [ f ])

(* ---------- budget ---------- *)

let test_budget_fuel () =
  let b = B.create ~fuel:100 () in
  B.spend b 40;
  B.spend b 40;
  Alcotest.(check bool) "not yet exhausted" false (B.exhausted b);
  Alcotest.(check (option int)) "20 units left" (Some 20) (B.remaining_fuel b);
  (match B.spend b 60 with
  | () -> Alcotest.fail "overdraw must raise Exhausted"
  | exception B.Exhausted _ -> ());
  Alcotest.(check bool) "exhausted sticks" true (B.exhausted b);
  Alcotest.(check (option int)) "overdrawn clamps to 0" (Some 0)
    (B.remaining_fuel b);
  (* unlimited budget never trips *)
  let free = B.create () in
  B.spend free max_int;
  B.check free;
  Alcotest.(check (option int)) "no fuel limit" None (B.remaining_fuel free)

let test_budget_deadline () =
  let b = B.create ~deadline_s:0.02 () in
  B.check b;
  Unix.sleepf 0.05;
  (match B.check b with
  | () -> Alcotest.fail "passed deadline must raise Exhausted"
  | exception B.Exhausted _ -> ());
  Alcotest.(check (option (float 1e-9))) "no time left" (Some 0.)
    (B.remaining_s b)

(* ---------- cancellation ---------- *)

let test_cancel_token () =
  let t = C.create () in
  Alcotest.(check bool) "fresh token" false (C.is_cancelled t);
  C.check t;
  C.cancel ~reason:"first" t;
  C.cancel ~reason:"second" t;
  Alcotest.(check bool) "tripped" true (C.is_cancelled t);
  Alcotest.(check (option string)) "first reason wins" (Some "first")
    (C.reason t);
  match C.check t with
  | () -> Alcotest.fail "check on a tripped token must raise"
  | exception C.Cancelled r ->
    Alcotest.(check string) "payload carries the reason" "first" r

(* ---------- fidelity lattice ---------- *)

let test_fidelity () =
  Alcotest.(check bool) "exact+degraded" true
    (F.worst F.Exact F.Degraded = F.Degraded);
  Alcotest.(check bool) "degraded+partial" true
    (F.worst F.Degraded F.Partial = F.Partial);
  Alcotest.(check bool) "exact identity" true (F.worst F.Exact F.Exact = F.Exact);
  List.iter
    (fun fd ->
      Alcotest.(check bool)
        (Printf.sprintf "wire round-trip %s" (F.to_string fd))
        true
        (F.of_string (F.to_string fd) = Some fd))
    [ F.Exact; F.Degraded; F.Partial ];
  Alcotest.(check bool) "unknown wire string rejected" true
    (F.of_string "pristine" = None)

(* ---------- ctx: checkpoints and legacy merge ---------- *)

let test_ctx_checkpoints () =
  let spent policy = B.create ~fuel:0 ~degrade:policy () in
  let ctx_of b = Ctx.create ~budget:b () in
  (* spend the fuel so both budgets are exhausted *)
  let interp = spent B.Interp and off = spent B.Off in
  (try B.spend interp 1 with B.Exhausted _ -> ());
  (try B.spend off 1 with B.Exhausted _ -> ());
  (* hard check always raises on an exhausted budget *)
  (match Ctx.check (ctx_of interp) with
  | () -> Alcotest.fail "hard check must raise under Interp too"
  | exception B.Exhausted _ -> ());
  (* soft checkpoint lets Interp pipelines continue, stops Off ones *)
  Ctx.checkpoint (ctx_of interp);
  (match Ctx.checkpoint (ctx_of off) with
  | () -> Alcotest.fail "degrade=off checkpoint must raise"
  | exception B.Exhausted _ -> ());
  Alcotest.(check bool) "degrade_allowed under Interp" true
    (Ctx.degrade_allowed (ctx_of interp));
  Alcotest.(check bool) "not under Off" false (Ctx.degrade_allowed (ctx_of off));
  Alcotest.(check bool) "not without a budget" false
    (Ctx.degrade_allowed Ctx.none);
  (* cancellation beats budget in the hard check *)
  let c = C.create () in
  C.cancel ~reason:"stop" c;
  match Ctx.check (Ctx.create ~budget:interp ~cancel:c ()) with
  | () -> Alcotest.fail "cancelled ctx must raise"
  | exception C.Cancelled _ -> ()

(* ---------- governed counting ---------- *)

let triangle n =
  Presburger.Syntax.bset_of_string
    (Printf.sprintf "{ [i, j] : 0 <= i < %d and 0 <= j <= i }" n)

let test_card_gov_retry_exact () =
  (* a tiny caller budget trips the first count, but the bounded
     post-deadline retry still delivers the exact answer *)
  let b = triangle 200 in
  let ctx = Ctx.create ~budget:(B.create ~fuel:1 ~degrade:B.Interp ()) () in
  let n, fd = Presburger.Count.card_gov ~ctx b in
  Alcotest.(check int) "retry stays exact" 20100 n;
  Alcotest.(check bool) "fidelity exact" true (fd = F.Exact);
  (* degrade=off propagates the exhaustion instead (drop the count memo
     first: a remembered count costs no fuel) *)
  Presburger.Bset.clear_count_memo ();
  let off = Ctx.create ~budget:(B.create ~fuel:1 ~degrade:B.Off ()) () in
  match Presburger.Count.card_gov ~ctx:off b with
  | _ -> Alcotest.fail "degrade=off must raise Exhausted"
  | exception B.Exhausted _ -> ()

let test_card_estimate_accuracy () =
  (* exact |triangle n| = n(n+1)/2; the dilation fit recovers the two
     leading Ehrhart terms, so the estimate lands within O(1/r) *)
  let n = 10_000 in
  let exact = n * (n + 1) / 2 in
  let est = Presburger.Count.card_estimate (triangle n) in
  let rel = Float.abs (float_of_int (est - exact)) /. float_of_int exact in
  if rel > 0.10 then
    Alcotest.failf "estimate %d vs exact %d: relative error %.3f > 0.10" est
      exact rel

(* ---------- degraded cache-model analysis ---------- *)

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

let two_region_ir = lazy (Polylang.parse two_region_src)
let pv = [ ("n", 40) ]

let tiny_fuel_ctx ?cache ?(degrade = B.Interp) () =
  Ctx.create ?cache ~budget:(B.create ~fuel:64 ~degrade ()) ()

let test_degraded_shape_matches_exact () =
  let ir = Lazy.force two_region_ir in
  let exact =
    M.analyze ~machine:Hwsim.Machine.bdw ~apply_thread_heuristic:false ir
      ~param_values:pv
  in
  let before = F.degraded_count () in
  let deg =
    M.analyze_gov ~ctx:(tiny_fuel_ctx ()) ~machine:Hwsim.Machine.bdw
      ~apply_thread_heuristic:false ir ~param_values:pv
  in
  Alcotest.(check bool) "exact run is exact" true (exact.M.fidelity = F.Exact);
  Alcotest.(check bool) "governed run degraded" true
    (deg.M.fidelity = F.Degraded);
  Alcotest.(check bool) "degradation counted" true
    (F.degraded_count () > before);
  (* identical shape: same levels, same statements in the same order *)
  Alcotest.(check int) "same number of cache levels"
    (Array.length exact.M.levels)
    (Array.length deg.M.levels);
  Alcotest.(check (list string)) "same per-statement breakdown"
    (List.map fst exact.M.per_stmt)
    (List.map fst deg.M.per_stmt);
  Alcotest.(check int) "hit/miss ratio arrays per level"
    (Array.length exact.M.hit_ratios)
    (Array.length deg.M.hit_ratios);
  (* the domains are small, so the governed flop count stays exact *)
  Alcotest.(check int) "flop count preserved" exact.M.flops deg.M.flops;
  (* the documented degradation contract: the footprint estimator is
     locality-pessimistic, so degraded OI is a lower bound on exact OI
     (a cap chosen from it never caps more aggressively than warranted) *)
  Alcotest.(check bool) "degraded OI is a performance-safe lower bound" true
    (deg.M.oi <= exact.M.oi +. 1e-9);
  Alcotest.(check bool) "degraded OI still positive" true (deg.M.oi > 0.)

let test_degraded_off_raises () =
  let ir = Lazy.force two_region_ir in
  match
    M.analyze_gov
      ~ctx:(tiny_fuel_ctx ~degrade:B.Off ())
      ~machine:Hwsim.Machine.bdw ~apply_thread_heuristic:false ir
      ~param_values:pv
  with
  | _ -> Alcotest.fail "degrade=off analyze_gov must raise Exhausted"
  | exception B.Exhausted _ -> ()

let test_degraded_never_cached () =
  Engine.Faultsim.suspended @@ fun () ->
  let dir = fresh_cache_dir () in
  let cache = R.create ~dir () in
  let ir = Lazy.force two_region_ir in
  let deg =
    Analysis_cache.analyze_gov
      ~ctx:(tiny_fuel_ctx ~cache ())
      ~mode:M.Set_associative ~apply_thread_heuristic:false
      ~machine:Hwsim.Machine.bdw ir ~param_values:pv
  in
  Alcotest.(check bool) "budget produced a degraded result" true
    (deg.M.fidelity = F.Degraded);
  Alcotest.(check (list string)) "degraded result not written to the cache" []
    (entry_files dir);
  (* a later un-budgeted run must compute (and cache) the exact answer,
     not be served the degraded one *)
  let exact =
    Analysis_cache.analyze_gov
      ~ctx:(Ctx.create ~cache ())
      ~mode:M.Set_associative ~apply_thread_heuristic:false
      ~machine:Hwsim.Machine.bdw ir ~param_values:pv
  in
  Alcotest.(check bool) "exact recomputed" true (exact.M.fidelity = F.Exact);
  Alcotest.(check bool) "exact result cached" true (entry_files dir <> [])

(* ---------- flow: parity, cancellation ---------- *)

let compile_two ?ctx () =
  Flow.compile ?ctx ~tile:false ~machine:Hwsim.Machine.bdw
    ~rooflines:(Lazy.force Test_support.bdw_rooflines)
    (Lazy.force two_region_ir) ~param_values:pv

let stable_report c =
  match Report.json_of_compiled c with
  | J.Obj fields ->
    J.to_string (J.Obj (List.filter (fun (k, _) -> k <> "timing") fields))
  | j -> J.to_string j

let test_ctx_parity () =
  (* a pooled, cached context must reproduce the ungoverned sequential
     compile byte for byte (a fresh cache dir, so the pooled path
     computes cold) *)
  let pooled =
    P.with_pool ~jobs:3 @@ fun pool ->
    let cache = R.create ~dir:(fresh_cache_dir ()) () in
    stable_report (compile_two ~ctx:(Ctx.create ~pool ~cache ()) ())
  in
  Alcotest.(check string) "pooled + cached ctx = Ctx.none, byte-identical"
    (stable_report (compile_two ~ctx:Ctx.none ()))
    pooled;
  Alcotest.(check bool) "ungoverned ctx = no ctx" true
    (stable_report (compile_two ()) = stable_report (compile_two ~ctx:Ctx.none ()))

let test_cancelled_compile () =
  Engine.Faultsim.suspended @@ fun () ->
  let dir = fresh_cache_dir () in
  let cache = R.create ~dir () in
  let cancel = C.create () in
  C.cancel ~reason:"test cancellation" cancel;
  P.with_pool ~jobs:4 @@ fun pool ->
  (match compile_two ~ctx:(Ctx.create ~pool ~cache ~cancel ()) () with
  | _ -> Alcotest.fail "compile under a tripped token must raise Cancelled"
  | exception C.Cancelled r ->
    Alcotest.(check string) "reason propagates" "test cancellation" r);
  (* the pool survives: no stuck domains, later work still runs *)
  Alcotest.(check (list int)) "pool still dispatches" [ 2; 3; 4 ]
    (P.map pool (fun x -> x + 1) [ 1; 2; 3 ]);
  (* no partial cache writes: neither entries nor leftover temp files *)
  let leftovers = if Sys.file_exists dir then entry_files dir else [] in
  Alcotest.(check (list string)) "no partial cache writes" [] leftovers

(* ---------- rcache quarantine ---------- *)

let overwrite path text =
  let oc = open_out path in
  output_string oc text;
  close_out oc

let test_quarantine_corrupt_entry () =
  Engine.Faultsim.suspended @@ fun () ->
  let dir = fresh_cache_dir () in
  (* mem tier off: quarantine is a disk-tier behaviour, and the memory
     tier would legitimately keep serving the stored value *)
  let c = R.create ~dir ~mem_entries:0 () in
  let k = R.key [ ("t", "quarantine") ] in
  R.store c k (J.Int 42);
  let path = R.entry_path c k in
  overwrite path "{\"schema\":2,\"checksum\":\"trunc";
  let before = R.counts () in
  Alcotest.(check bool) "truncated entry is a miss" true (R.find c k = None);
  let after = R.counts () in
  Alcotest.(check int) "quarantine counted" (before.R.quarantined + 1)
    after.R.quarantined;
  Alcotest.(check bool) "entry removed from the cache dir" false
    (Sys.file_exists path);
  let qdir = R.quarantine_dir c in
  Alcotest.(check bool) "moved under quarantine/" true
    (Sys.file_exists qdir && Array.length (Sys.readdir qdir) > 0)

let test_quarantine_checksum_mismatch () =
  Engine.Faultsim.suspended @@ fun () ->
  (* parses fine, right schema — but the payload does not match the
     embedded checksum (a bit-flip survivor) *)
  let dir = fresh_cache_dir () in
  let c = R.create ~dir ~mem_entries:0 () in
  let k = R.key [ ("t", "bitflip") ] in
  R.store c k (J.Int 42);
  let path = R.entry_path c k in
  let ic = open_in_bin path in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* flip the first "42" in the file — whether it lands in the payload or
     in the checksum hex, the embedded checksum no longer matches *)
  let tampered =
    let n = String.length text in
    let rec find i =
      if i + 2 > n then None
      else if text.[i] = '4' && text.[i + 1] = '2' then Some i
      else find (i + 1)
    in
    match find 0 with
    | None -> text
    | Some i -> String.sub text 0 i ^ "43" ^ String.sub text (i + 2) (n - i - 2)
  in
  Alcotest.(check bool) "test premise: payload actually changed" true
    (tampered <> text);
  overwrite path tampered;
  let before = R.counts () in
  Alcotest.(check bool) "checksum mismatch is a miss" true (R.find c k = None);
  let after = R.counts () in
  Alcotest.(check int) "quarantined, not served" (before.R.quarantined + 1)
    after.R.quarantined;
  (* store/find works again after the bad entry is out of the way *)
  R.store c k (J.Int 7);
  Alcotest.(check bool) "repaired entry readable" true (R.find c k = Some (J.Int 7))

(* ---------- search fidelity propagation ---------- *)

let test_search_fidelity () =
  let k = Lazy.force Test_support.bdw_rooflines in
  let cm =
    M.analyze ~machine:Hwsim.Machine.bdw ~apply_thread_heuristic:false
      (Poly_ir.Tiling.tile_program ~tile_size:32 (Lazy.force two_region_ir))
      ~param_values:pv
  in
  let p = Perfmodel.profile_of_cm cm in
  let exact = Search.run k p in
  Alcotest.(check bool) "default outcome fidelity exact" true
    (exact.Search.fidelity = F.Exact);
  let deg = Search.run ~fidelity:F.Degraded k p in
  Alcotest.(check bool) "degraded profile marks the outcome" true
    (deg.Search.fidelity = F.Degraded);
  Alcotest.(check (float 1e-9)) "cap itself unchanged" exact.Search.cap_ghz
    deg.Search.cap_ghz

let tests =
  [
    Alcotest.test_case "budget: fuel metering" `Quick test_budget_fuel;
    Alcotest.test_case "budget: wall-clock deadline" `Quick
      test_budget_deadline;
    Alcotest.test_case "cancel: one-shot token" `Quick test_cancel_token;
    Alcotest.test_case "fidelity: lattice and wire form" `Quick test_fidelity;
    Alcotest.test_case "ctx: hard vs soft checkpoints" `Quick
      test_ctx_checkpoints;
    Alcotest.test_case "card_gov: bounded retry stays exact" `Quick
      test_card_gov_retry_exact;
    Alcotest.test_case "card_estimate: dilation-fit accuracy" `Quick
      test_card_estimate_accuracy;
    Alcotest.test_case "degraded analysis: exact shape, safe OI" `Quick
      test_degraded_shape_matches_exact;
    Alcotest.test_case "degrade=off propagates exhaustion" `Quick
      test_degraded_off_raises;
    Alcotest.test_case "degraded results are never cached" `Quick
      test_degraded_never_cached;
    Alcotest.test_case "ctx parity: pooled + cached = none" `Quick
      test_ctx_parity;
    Alcotest.test_case "cancelled pooled compile unwinds cleanly" `Quick
      test_cancelled_compile;
    Alcotest.test_case "quarantine: truncated entry" `Quick
      test_quarantine_corrupt_entry;
    Alcotest.test_case "quarantine: checksum mismatch" `Quick
      test_quarantine_checksum_mismatch;
    Alcotest.test_case "search outcome carries profile fidelity" `Quick
      test_search_fidelity;
  ]
