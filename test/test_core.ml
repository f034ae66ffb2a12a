(* Tests for POLYUFC-SEARCH and the end-to-end compilation flow. *)

open Polyufc_core

let consts = Test_support.bdw_rooflines

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
  for (i2 = 0; i2 < n; i2++) {
    for (j2 = 0; j2 < n; j2++) {
      x2[i2] = x2[i2] + A[j2][i2] * y2[j2];
    }
  }
}
|}

let profile_of src n =
  let prog = Poly_ir.Tiling.tile_program ~tile_size:32 (Polylang.parse src) in
  let cm =
    Cache_model.Model.analyze ~machine:Hwsim.Machine.bdw
      ~apply_thread_heuristic:false prog ~param_values:[ ("n", n) ]
  in
  Perfmodel.profile_of_cm cm

(* ---------- search ---------- *)

let test_search_cb_low () =
  let k = Lazy.force consts in
  let o = Search.run k (profile_of gemm_src 128) in
  Alcotest.(check bool) "CB" true (o.Search.boundedness = Roofline.CB);
  Alcotest.(check bool) "cap below 2.0" true (o.Search.cap_ghz < 2.0);
  Alcotest.(check bool) "chosen EDP <= max-freq EDP" true
    (o.Search.chosen.Perfmodel.edp <= o.Search.baseline.Perfmodel.edp +. 1e-15)

let test_search_bb_high () =
  let k = Lazy.force consts in
  let o = Search.run k (profile_of mvt_src 400) in
  Alcotest.(check bool) "BB" true (o.Search.boundedness = Roofline.BB);
  Alcotest.(check bool) "cap in upper range" true (o.Search.cap_ghz >= 2.0)

let test_search_objectives () =
  let k = Lazy.force consts in
  let p = profile_of gemm_src 128 in
  let perf = Search.run ~objective:Search.Performance k p in
  let energy = Search.run ~objective:Search.Energy k p in
  (* performance-only never caps below the energy-only choice for CB *)
  Alcotest.(check bool) "perf cap >= energy cap" true
    (perf.Search.cap_ghz >= energy.Search.cap_ghz);
  (* energy-only on CB drives to the bottom of the range *)
  Alcotest.(check (float 1e-9)) "energy cap = min" 1.2 energy.Search.cap_ghz

let test_search_step_count () =
  (* binary search: far fewer objective evaluations than the 17-entry grid *)
  let k = Lazy.force consts in
  let o = Search.run k (profile_of gemm_src 96) in
  Alcotest.(check bool) "steps <= 2·log2(grid)" true (o.Search.steps <= 12)

let test_search_epsilon_guard () =
  let k = Lazy.force consts in
  let p = profile_of mvt_src 400 in
  (* a huge ε makes every frequency admissible; a tiny one must not crash *)
  let loose = Search.run ~epsilon:10.0 k p in
  let tight = Search.run ~epsilon:1e-9 k p in
  Alcotest.(check bool) "both in range" true
    (loose.Search.cap_ghz >= 1.2 && tight.Search.cap_ghz <= 2.8)

(* ---------- flow ---------- *)

let compile_gemm n =
  Flow.compile ~machine:Hwsim.Machine.bdw ~rooflines:(Lazy.force consts)
    (Polylang.parse gemm_src) ~param_values:[ ("n", n) ]

let test_flow_gemm () =
  let c = compile_gemm 128 in
  Alcotest.(check int) "one region" 1 (List.length c.Flow.decisions);
  let d = List.hd c.Flow.decisions in
  Alcotest.(check bool) "region CB" true (d.Flow.region_bound = Roofline.CB);
  Alcotest.(check bool) "tiled program differs" true
    (c.Flow.optimized <> c.Flow.source);
  Alcotest.(check int) "one cap after dedup" 1 (List.length c.Flow.caps);
  Alcotest.(check bool) "per-stmt decisions present" true (d.Flow.stmts <> []);
  Alcotest.(check bool) "timing recorded" true (c.Flow.timing.Flow.cm_s > 0.0)

let test_flow_cap_dedup () =
  (* mvt: two BB regions with the same cap -> single cap call *)
  let c =
    Flow.compile ~machine:Hwsim.Machine.bdw ~rooflines:(Lazy.force consts)
      (Polylang.parse mvt_src) ~param_values:[ ("n", 400) ]
  in
  Alcotest.(check int) "two regions" 2 (List.length c.Flow.decisions);
  let caps = List.map (fun d -> d.Flow.cap_ghz) c.Flow.decisions in
  if List.length (List.sort_uniq compare caps) = 1 then
    Alcotest.(check int) "deduped to one cap" 1 (List.length c.Flow.caps)

let test_flow_cb_aggregation () =
  (* the region cap is the min over statement caps for a CB region *)
  let c = compile_gemm 128 in
  let d = List.hd c.Flow.decisions in
  List.iter
    (fun s ->
      Alcotest.(check bool) "region cap <= stmt cap" true
        (d.Flow.cap_ghz <= s.Flow.stmt_cap +. 1e-9))
    d.Flow.stmts

let test_flow_evaluate_gemm_gains () =
  (* PolyUFC beats the UFS-governor baseline on EDP for a CB kernel at a
     realistic runtime (the paper's headline direction) *)
  let c = compile_gemm 192 in
  let e =
    Flow.evaluate ~machine:Hwsim.Machine.bdw c ~param_values:[ ("n", 192) ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "EDP gain positive (got %.1f%%)" (100. *. e.Flow.edp_gain))
    true (e.Flow.edp_gain > 0.0);
  Alcotest.(check bool) "energy gain positive" true (e.Flow.energy_gain > 0.0);
  (* minimal performance loss, as in Sec. VII: ≈7% on CB *)
  Alcotest.(check bool)
    (Printf.sprintf "perf loss < 10%% (got %.1f%%)" (-100. *. e.Flow.time_gain))
    true (e.Flow.time_gain > -0.10)

let test_flow_untiled_option () =
  let prog = Polylang.parse gemm_src in
  let pre_tiled = Poly_ir.Tiling.tile_program ~tile_size:32 prog in
  let c =
    Flow.compile ~tile:false ~machine:Hwsim.Machine.bdw
      ~rooflines:(Lazy.force consts) pre_tiled ~param_values:[ ("n", 96) ]
  in
  Alcotest.(check bool) "kept as-is" true (c.Flow.optimized == pre_tiled)

let tests =
  [
    Alcotest.test_case "search CB caps low" `Quick test_search_cb_low;
    Alcotest.test_case "search BB caps high" `Quick test_search_bb_high;
    Alcotest.test_case "search objectives" `Quick test_search_objectives;
    Alcotest.test_case "search step count" `Quick test_search_step_count;
    Alcotest.test_case "search epsilon guard" `Quick test_search_epsilon_guard;
    Alcotest.test_case "flow gemm" `Quick test_flow_gemm;
    Alcotest.test_case "flow cap dedup" `Quick test_flow_cap_dedup;
    Alcotest.test_case "flow CB aggregation" `Quick test_flow_cb_aggregation;
    Alcotest.test_case "flow evaluate gemm gains" `Slow test_flow_evaluate_gemm_gains;
    Alcotest.test_case "flow untiled option" `Quick test_flow_untiled_option;
  ]

(* ---------- joint core+uncore extension ---------- *)

let test_with_core_ghz_physics () =
  let m = Hwsim.Machine.bdw in
  let fast = Hwsim.Machine.with_core_ghz m (m.Hwsim.Machine.core_ghz *. 2.0) in
  Alcotest.(check (float 1e-9)) "flop time halves"
    (m.Hwsim.Machine.flop_ns /. 2.0) fast.Hwsim.Machine.flop_ns;
  Alcotest.(check bool) "core power superlinear" true
    (fast.Hwsim.Machine.core_w_active > 2.0 *. m.Hwsim.Machine.core_w_active);
  let l1 m = (List.hd m.Hwsim.Machine.caches).Hwsim.Machine.hit_latency_ns in
  Alcotest.(check (float 1e-9)) "hit latency halves" (l1 m /. 2.0) (l1 fast);
  (* uncore domain untouched *)
  Alcotest.(check (float 1e-9)) "uncore power unchanged"
    (Hwsim.Machine.uncore_power_w m ~f_u:2.0)
    (Hwsim.Machine.uncore_power_w fast ~f_u:2.0)

let test_joint_search () =
  let prog =
    Poly_ir.Tiling.tile_program ~tile_size:32 (Polylang.parse gemm_src)
  in
  let r =
    Core_scaling.search ~core_freqs:[ 2.8; 3.5 ] ~machine:Hwsim.Machine.bdw
      prog ~param_values:[ ("n", 96) ]
  in
  Alcotest.(check int) "two points" 2 (List.length r.Core_scaling.points);
  List.iter
    (fun p ->
      Alcotest.(check bool) "best minimal" true
        (r.Core_scaling.best.Core_scaling.est_edp
         <= p.Core_scaling.est_edp +. 1e-15))
    r.Core_scaling.points;
  (* each point carries caps for its retuned machine *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "caps present" true
        (p.Core_scaling.compiled.Flow.caps <> []))
    r.Core_scaling.points

let extension_tests =
  [
    Alcotest.test_case "with_core_ghz physics" `Quick test_with_core_ghz_physics;
    Alcotest.test_case "joint core+uncore search" `Slow test_joint_search;
  ]

(* ---------- roofline scatter exporter ---------- *)

let scatter_rooflines =
  (* pin the roofs so the efficiency arithmetic below is exact *)
  lazy
    {
      (Lazy.force Test_support.bdw_rooflines) with
      Roofline.peak_gflops = 100.0;
      peak_bw_gbps = 20.0;
    }

let test_scatter_point_math () =
  (* below the ridge the roof is the bandwidth slope: ai * bw *)
  let r =
    Report.scatter_point ~rooflines:(Lazy.force scatter_rooflines) ~kernel:"mvt"
      ~ai:0.25 ~gflops:2.5 ~cap_ghz:2.8
  in
  (* roof = min(100, 0.25*20) = 5; efficiency = 2.5/5 = 0.5 *)
  Alcotest.(check (float 1e-12)) "efficiency vs bandwidth roof" 0.5
    r.Report.sc_efficiency;
  Alcotest.(check (float 1e-12)) "distance = 1 - eff" 0.5
    r.Report.sc_distance;
  (* above the ridge the compute roof binds *)
  let c =
    Report.scatter_point ~rooflines:(Lazy.force scatter_rooflines) ~kernel:"gemm"
      ~ai:50.0 ~gflops:80.0 ~cap_ghz:1.2
  in
  Alcotest.(check (float 1e-12)) "efficiency vs compute roof" 0.8
    c.Report.sc_efficiency;
  (* over-roof measurements clamp distance at zero, not negative *)
  let over =
    Report.scatter_point ~rooflines:(Lazy.force scatter_rooflines) ~kernel:"hot"
      ~ai:50.0 ~gflops:120.0 ~cap_ghz:2.0
  in
  Alcotest.(check (float 1e-12)) "distance clamped at 0" 0.0
    over.Report.sc_distance

let test_scatter_csv_roundtrip () =
  let rows =
    [
      Report.scatter_point ~rooflines:(Lazy.force scatter_rooflines) ~kernel:"gemm"
        ~ai:13.714285714285714 ~gflops:73.33333333333333 ~cap_ghz:1.2;
      Report.scatter_point ~rooflines:(Lazy.force scatter_rooflines)
        ~kernel:{|weird, "quoted" name|} ~ai:0.1 ~gflops:1e-3 ~cap_ghz:2.8;
      Report.scatter_point ~rooflines:(Lazy.force scatter_rooflines) ~kernel:""
        ~ai:1.0e22 ~gflops:4.9e-324 ~cap_ghz:2.0;
    ]
  in
  let csv = Report.csv_of_scatter rows in
  match Report.scatter_of_csv csv with
  | Error m -> Alcotest.failf "exporter's own CSV refused: %s" m
  | Ok parsed ->
    Alcotest.(check int) "row count" (List.length rows) (List.length parsed);
    List.iter2
      (fun (a : Report.scatter_row) (b : Report.scatter_row) ->
        Alcotest.(check string) "kernel exact" a.Report.sc_kernel
          b.Report.sc_kernel;
        Alcotest.(check string) "boundedness exact" a.Report.sc_bound
          b.Report.sc_bound;
        (* %.17g prints doubles losslessly: bit-exact floats back *)
        List.iter2
          (fun x y ->
            Alcotest.(check int64) "float bit-exact" (Int64.bits_of_float x)
              (Int64.bits_of_float y))
          [
            a.Report.sc_ai;
            a.Report.sc_gflops;
            a.Report.sc_efficiency;
            a.Report.sc_distance;
            a.Report.sc_cap_ghz;
          ]
          [
            b.Report.sc_ai;
            b.Report.sc_gflops;
            b.Report.sc_efficiency;
            b.Report.sc_distance;
            b.Report.sc_cap_ghz;
          ])
      rows parsed

let test_scatter_csv_rejects_malformed () =
  let refused s =
    match Report.scatter_of_csv s with
    | Ok _ -> Alcotest.failf "must refuse: %s" s
    | Error _ -> ()
  in
  refused "not,the,header\n";
  refused (Report.scatter_header ^ "\nonly,three,fields\n");
  refused (Report.scatter_header ^ "\nk,not_a_number,1,1,0,BB,2.0\n");
  refused (Report.scatter_header ^ "\n\"unterminated,1,2,3,4,BB,2.0\n");
  (* CRLF and blank lines are tolerated *)
  let ok =
    Report.scatter_header ^ "\r\n" ^ "k,1,2,0.5,0.5,BB,2.0\r\n" ^ "\n"
  in
  match Report.scatter_of_csv ok with
  | Ok [ r ] ->
    Alcotest.(check string) "CRLF row parsed" "k" r.Report.sc_kernel
  | Ok _ -> Alcotest.fail "expected exactly one row"
  | Error m -> Alcotest.failf "CRLF input refused: %s" m

let test_scatter_json_roundtrip () =
  let rows =
    [
      Report.scatter_point ~rooflines:(Lazy.force scatter_rooflines) ~kernel:"atax"
        ~ai:0.375 ~gflops:3.1 ~cap_ghz:1.6;
    ]
  in
  match Report.scatter_of_json (Report.json_of_scatter rows) with
  | Error m -> Alcotest.failf "scatter JSON refused: %s" m
  | Ok [ r ] ->
    Alcotest.(check string) "kernel survives" "atax" r.Report.sc_kernel;
    Alcotest.(check (float 1e-12)) "ai survives" 0.375 r.Report.sc_ai
  | Ok _ -> Alcotest.fail "expected one row"

let test_fleet_analyze_end_to_end () =
  (* the library path the CLI, daemon and bench all share *)
  let specs =
    [
      Fleet.spec ~sizes:[ ("n", 24) ] ~name:"gemm"
        (Workloads.program (Workloads.find "gemm"));
      Fleet.spec ~sizes:[ ("n", 96) ] ~weight:2.0 ~name:"mvt"
        (Workloads.program (Workloads.find "mvt"));
    ]
  in
  let r =
    Fleet.analyze ~solo:false ~machine:Hwsim.Machine.bdw
      ~rooflines:(Lazy.force Test_support.bdw_rooflines)
      specs
  in
  Alcotest.(check int) "two tenants" 2 (List.length r.Fleet.tenants);
  Alcotest.(check bool) "cap on the machine grid" true
    (r.Fleet.decision.Hwsim.Cap_arbiter.cap_ghz >= 1.2
    && r.Fleet.decision.Hwsim.Cap_arbiter.cap_ghz <= 2.8);
  let rows = Fleet.scatter_of_result r in
  Alcotest.(check int) "one scatter row per tenant" 2 (List.length rows);
  (* the shared exporter round-trips the fleet's own rows *)
  match Report.scatter_of_csv (Report.csv_of_scatter rows) with
  | Ok back -> Alcotest.(check int) "csv round-trip" 2 (List.length back)
  | Error m -> Alcotest.failf "fleet scatter CSV refused: %s" m

(* sim/v1: Flow.evaluate through a store is bit-identical to simulating,
   and a torn entry is quarantined and recomputed *)
let test_evaluate_store_recovery () =
  let module R = Engine.Rcache in
  let module FS = Engine.Faultsim in
  let sizes = [ ("n", 32) ] in
  let c = compile_gemm 32 in
  let bits (e : Flow.evaluation) =
    Telemetry.Json.to_string
      (Analysis_cache.evaluation_to_json (e.Flow.baseline, e.Flow.capped))
  in
  let direct =
    bits (Flow.evaluate ~machine:Hwsim.Machine.bdw c ~param_values:sizes)
  in
  (* memory tier off: it would mask the torn on-disk entry *)
  let store =
    R.create ~dir:(Filename.temp_dir "polyufc_sim_test" "") ~mem_entries:0 ()
  in
  let ctx = Engine.Ctx.create ~cache:store () in
  let evaluate () =
    bits (Flow.evaluate ~ctx ~machine:Hwsim.Machine.bdw c ~param_values:sizes)
  in
  let torn =
    match FS.parse_plan "rcache.torn_write:1:5" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  Alcotest.(check string) "torn write, fresh outcomes" direct
    (FS.with_plan torn evaluate);
  FS.suspended @@ fun () ->
  let before = R.counts_for store in
  Alcotest.(check string) "recomputed" direct (evaluate ());
  Alcotest.(check int) "torn entry quarantined" (before.R.quarantined + 1)
    (R.counts_for store).R.quarantined;
  let hits = (R.counts_for store).R.disk_hits in
  Alcotest.(check string) "served from the store" direct (evaluate ());
  Alcotest.(check int) "one disk hit" (hits + 1)
    (R.counts_for store).R.disk_hits;
  Alcotest.(check bool) "stats_by_kind lists sim/v1" true
    (List.mem_assoc R.kind_sim (R.stats_by_kind store))

let scatter_tests =
  [
    Alcotest.test_case "scatter point math" `Quick test_scatter_point_math;
    Alcotest.test_case "scatter CSV round-trip is bit-exact" `Quick
      test_scatter_csv_roundtrip;
    Alcotest.test_case "scatter CSV rejects malformed input" `Quick
      test_scatter_csv_rejects_malformed;
    Alcotest.test_case "scatter JSON round-trip" `Quick
      test_scatter_json_roundtrip;
    Alcotest.test_case "fleet analyze end-to-end" `Quick
      test_fleet_analyze_end_to_end;
    Alcotest.test_case "flow evaluate through the store" `Quick
      test_evaluate_store_recovery;
  ]

let tests = tests @ extension_tests @ scatter_tests
