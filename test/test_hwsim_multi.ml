(* Tests for the multi-tenant simulator and the cap arbiter: the
   single-tenant compat contract, conservation of per-tenant work under
   interleaving, determinism, energy-attribution closure, the 3-tenant
   arbitration example, and the QCheck cap-bounds property. *)

open Hwsim

let gemm =
  Polylang.parse
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

let stream =
  Polylang.parse
    {|
program stream(n) {
  arrays { A[n] : f64; B[n] : f64; }
  for (i = 0; i < n; i++) {
    A[i] = A[i] + 2.0 * B[i];
  }
}
|}

let triad =
  Polylang.parse
    {|
program triad(n) {
  arrays { A[n] : f64; B[n] : f64; C[n] : f64; }
  for (i = 0; i < n; i++) {
    A[i] = B[i] + 3.0 * C[i];
  }
}
|}

let cfg ?(machine = Machine.bdw) ?(uncore = `Fixed 2.0) tenants =
  Sim.config ~machine ~uncore tenants

let t ?caps ?weight ?cores ~name ~n prog =
  Sim.tenant ?caps ?weight ?cores ~param_values:[ ("n", n) ] ~name prog

(* ---------- single-tenant compat ---------- *)

let test_run_each_one_equals_oracle () =
  (* the lockstep engine driving one policy, a one-tenant simulate and
     the replaced single-kernel engine must agree exactly *)
  let c = cfg [ t ~name:"gemm" ~n:24 gemm ] in
  let oracle =
    Sim_oracle.run_single ~machine:Machine.bdw ~uncore:(`Fixed 2.0) ~caps:[]
      ~governor_interval_us:100.0 gemm ~param_values:[ ("n", 24) ]
  in
  let each =
    match Sim.run_each [ c ] with
    | [ o ] -> o
    | l -> Alcotest.failf "run_each [cfg] gave %d outcomes" (List.length l)
  in
  let multi = Sim.simulate ~solo:false c in
  let o = multi.Sim.combined in
  Alcotest.(check int) "one tenant" 1 multi.Sim.n_tenants;
  let json o = Telemetry.Json.to_string (Sim.outcome_to_json o) in
  Alcotest.(check string) "run_each [cfg] == oracle" (json oracle) (json each);
  Alcotest.(check string) "simulate == oracle" (json oracle) (json o);
  Alcotest.(check (float 0.0)) "identical time" oracle.Sim.time_s o.Sim.time_s;
  Alcotest.(check (float 0.0)) "identical energy" oracle.Sim.energy_j
    o.Sim.energy_j;
  Alcotest.(check int) "identical flops" oracle.Sim.flops o.Sim.flops;
  Alcotest.(check int) "identical dram lines" oracle.Sim.dram_lines
    o.Sim.dram_lines

(* ---------- conservation under interleaving ---------- *)

let test_interleaving_conserves_tenant_counts () =
  (* each tenant's instruction/byte counts are its own: co-scheduling
     changes *when* events happen, never *how many* *)
  let tenants =
    [
      t ~name:"stream" ~n:4096 stream;
      t ~name:"triad" ~n:3000 triad;
      t ~name:"gemm" ~n:20 gemm;
    ]
  in
  let multi = Sim.simulate ~solo:true (cfg tenants) in
  Alcotest.(check int) "three tenants" 3 multi.Sim.n_tenants;
  List.iter2
    (fun (tn : Sim.tenant) (o : Sim.tenant_outcome) ->
      let solo = Sim.run_one (cfg [ tn ]) in
      Alcotest.(check int)
        (tn.Sim.t_name ^ ": flops conserved")
        solo.Sim.flops o.Sim.o_flops;
      let solo_accesses =
        let l1 = solo.Sim.cache_stats.(0) in
        l1.Cache.hits + l1.Cache.misses
      in
      Alcotest.(check int)
        (tn.Sim.t_name ^ ": accesses conserved")
        solo_accesses o.Sim.o_accesses;
      (* co-run can only be slower than solo *)
      Alcotest.(check bool)
        (tn.Sim.t_name ^ ": slowdown >= 1")
        true
        (o.Sim.o_slowdown >= 1.0 -. 1e-9))
    tenants multi.Sim.per_tenant;
  (* gemm's flop count is pinned analytically: 2n^3 *)
  let gemm_o = List.nth multi.Sim.per_tenant 2 in
  Alcotest.(check int) "gemm 2n^3 flops" (2 * 20 * 20 * 20) gemm_o.Sim.o_flops

let test_interleaving_deterministic () =
  let run () =
    Sim.simulate ~solo:false
      (cfg
         [ t ~name:"a" ~n:2048 stream; t ~name:"b" ~n:1500 triad ])
  in
  let m1 = run () and m2 = run () in
  Alcotest.(check (float 0.0)) "same wall time" m1.Sim.combined.Sim.time_s
    m2.Sim.combined.Sim.time_s;
  Alcotest.(check (float 0.0)) "same energy" m1.Sim.combined.Sim.energy_j
    m2.Sim.combined.Sim.energy_j;
  List.iter2
    (fun (a : Sim.tenant_outcome) (b : Sim.tenant_outcome) ->
      Alcotest.(check (float 0.0)) (a.Sim.o_tenant ^ " time") a.Sim.o_time_s
        b.Sim.o_time_s;
      Alcotest.(check int) (a.Sim.o_tenant ^ " dram") a.Sim.o_dram_lines
        b.Sim.o_dram_lines)
    m1.Sim.per_tenant m2.Sim.per_tenant

let test_energy_attribution_closes () =
  let multi =
    Sim.simulate ~solo:false
      (cfg
         [
           t ~name:"a" ~n:4096 stream;
           t ~name:"b" ~n:3000 triad;
           t ~name:"c" ~n:16 gemm;
         ])
  in
  let total = multi.Sim.combined.Sim.energy_j in
  let attributed =
    List.fold_left
      (fun acc (o : Sim.tenant_outcome) -> acc +. o.Sim.o_energy_j)
      0.0 multi.Sim.per_tenant
  in
  Alcotest.(check (float 1e-9)) "tenant shares sum to total" total attributed;
  let z = multi.Sim.combined.Sim.zones in
  Alcotest.(check (float 1e-9)) "zones sum to total" total
    (z.Sim.core_j +. z.Sim.uncore_j +. z.Sim.dram_j +. z.Sim.static_j)

let test_shared_llc_interference () =
  (* two streaming tenants over the one LLC must generate at least as
     much DRAM traffic as each alone, and the machine-level wall clock
     cannot beat the slower solo run *)
  let n = 4096 in
  let solo = Sim.run_one (cfg [ t ~name:"solo" ~n stream ]) in
  let multi =
    Sim.simulate ~solo:false
      (cfg [ t ~name:"a" ~n stream; t ~name:"b" ~n stream ])
  in
  Alcotest.(check bool) "dram lines >= 2x solo" true
    (multi.Sim.combined.Sim.dram_lines >= 2 * solo.Sim.dram_lines);
  Alcotest.(check bool) "wall >= solo" true
    (multi.Sim.combined.Sim.time_s >= solo.Sim.time_s)

(* ---------- cap arbitration ---------- *)

let test_arbiter_three_tenants_satisfied () =
  (* the ISSUE's 3-tenant example: demands that fit under the BDW DRAM
     roof at 2.8 GHz (18 GB/s) — the arbiter must pick a cap that is >=
     every solo cap and satisfies everyone's bandwidth demand *)
  let m = Machine.bdw in
  let demands =
    [
      Cap_arbiter.demand ~tenant:"gemm" ~solo_cap_ghz:1.4 ~bw_gbps:2.0 ();
      Cap_arbiter.demand ~weight:2.0 ~tenant:"mvt" ~solo_cap_ghz:2.8
        ~bw_gbps:9.0 ();
      Cap_arbiter.demand ~tenant:"stream" ~solo_cap_ghz:2.2 ~bw_gbps:5.0 ();
    ]
  in
  let d = Cap_arbiter.arbitrate ~machine:m demands in
  Alcotest.(check bool) "feasible" true d.Cap_arbiter.feasible;
  Alcotest.(check (float 1e-9)) "cap = max solo cap" 2.8 d.Cap_arbiter.cap_ghz;
  Alcotest.(check bool) "supply covers aggregate demand" true
    (d.Cap_arbiter.supply_gbps >= d.Cap_arbiter.agg_bw_gbps);
  List.iter2
    (fun (dm : Cap_arbiter.demand) (g : Cap_arbiter.grant) ->
      Alcotest.(check bool)
        (dm.Cap_arbiter.d_tenant ^ " satisfied")
        true g.Cap_arbiter.g_satisfied;
      Alcotest.(check (float 1e-9))
        (dm.Cap_arbiter.d_tenant ^ " full grant")
        dm.Cap_arbiter.d_bw_gbps g.Cap_arbiter.g_bw_gbps;
      Alcotest.(check (float 1e-9))
        (dm.Cap_arbiter.d_tenant ^ " no slowdown")
        1.0 g.Cap_arbiter.g_slowdown)
    demands d.Cap_arbiter.grants

let test_arbiter_raises_above_floor () =
  (* every solo cap is low but the *sum* of demands needs more bandwidth
     than the floor frequency provides: the cap must rise along the grid
     until the DRAM roof covers the sum (BDW: bw = min(18, 7 f)) *)
  let m = Machine.bdw in
  let d =
    Cap_arbiter.arbitrate ~machine:m
      [
        Cap_arbiter.demand ~tenant:"a" ~solo_cap_ghz:1.2 ~bw_gbps:6.0 ();
        Cap_arbiter.demand ~tenant:"b" ~solo_cap_ghz:1.2 ~bw_gbps:6.0 ();
      ]
  in
  Alcotest.(check bool) "feasible" true d.Cap_arbiter.feasible;
  (* 12 GB/s needs f >= 12/7 = 1.714 -> grid 1.8 *)
  Alcotest.(check (float 1e-9)) "cap raised to 1.8" 1.8 d.Cap_arbiter.cap_ghz

let test_arbiter_infeasible_waterfill () =
  let m = Machine.bdw in
  let demands =
    [
      Cap_arbiter.demand ~weight:1.0 ~tenant:"hog" ~solo_cap_ghz:2.8
        ~bw_gbps:12.0 ();
      Cap_arbiter.demand ~weight:1.0 ~tenant:"small" ~solo_cap_ghz:1.4
        ~bw_gbps:5.0 ();
      Cap_arbiter.demand ~weight:1.0 ~tenant:"mid" ~solo_cap_ghz:2.2
        ~bw_gbps:8.0 ();
    ]
  in
  let d = Cap_arbiter.arbitrate ~machine:m demands in
  Alcotest.(check bool) "infeasible" false d.Cap_arbiter.feasible;
  Alcotest.(check (float 1e-9)) "cap pinned at max" m.Machine.uncore_max_ghz
    d.Cap_arbiter.cap_ghz;
  let granted =
    List.fold_left
      (fun a (g : Cap_arbiter.grant) -> a +. g.Cap_arbiter.g_bw_gbps)
      0.0 d.Cap_arbiter.grants
  in
  Alcotest.(check (float 1e-6)) "grants exhaust the supply"
    d.Cap_arbiter.supply_gbps granted;
  (* the under-fair-share demand is granted in full; the others degrade
     with slowdown = demand / grant *)
  (match d.Cap_arbiter.grants with
  | [ hog; small; mid ] ->
    Alcotest.(check bool) "small satisfied" true small.Cap_arbiter.g_satisfied;
    Alcotest.(check bool) "hog degraded" false hog.Cap_arbiter.g_satisfied;
    Alcotest.(check (float 1e-6)) "hog slowdown = demand/grant"
      (12.0 /. hog.Cap_arbiter.g_bw_gbps)
      hog.Cap_arbiter.g_slowdown;
    Alcotest.(check bool) "mid degraded" false mid.Cap_arbiter.g_satisfied
  | _ -> Alcotest.fail "expected three grants")

(* ---------- arbitrated fleet end to end ---------- *)

let test_arbitrated_cap_runs_fleet () =
  (* run the 3-tenant fleet at the arbitrated cap: every tenant finishes
     and per-tenant boundedness-relevant counters are sane *)
  let m = Machine.bdw in
  let d =
    Cap_arbiter.arbitrate ~machine:m
      [
        Cap_arbiter.demand ~tenant:"a" ~solo_cap_ghz:1.6 ~bw_gbps:3.0 ();
        Cap_arbiter.demand ~tenant:"b" ~solo_cap_ghz:2.0 ~bw_gbps:4.0 ();
        Cap_arbiter.demand ~tenant:"c" ~solo_cap_ghz:1.2 ~bw_gbps:2.0 ();
      ]
  in
  let multi =
    Sim.simulate ~solo:false
      (cfg ~uncore:(`Fixed d.Cap_arbiter.cap_ghz)
         [
           t ~name:"a" ~n:2048 stream;
           t ~name:"b" ~n:2048 triad;
           t ~name:"c" ~n:16 gemm;
         ])
  in
  Alcotest.(check (float 1e-9)) "uncore held at arbitrated cap"
    d.Cap_arbiter.cap_ghz multi.Sim.combined.Sim.avg_uncore_ghz;
  List.iter
    (fun (o : Sim.tenant_outcome) ->
      Alcotest.(check bool) (o.Sim.o_tenant ^ " finished") true
        (o.Sim.o_time_s > 0.0);
      Alcotest.(check bool) (o.Sim.o_tenant ^ " did work") true
        (o.Sim.o_flops > 0))
    multi.Sim.per_tenant

(* ---------- QCheck: cap bounds ---------- *)

let gen_demands =
  QCheck.Gen.(
    let m = Machine.bdw in
    let demand_gen =
      map2
        (fun cap bw ->
          Cap_arbiter.demand ~tenant:"t"
            ~solo_cap_ghz:
              (m.Machine.uncore_min_ghz
              +. (float_of_int cap *. m.Machine.uncore_step_ghz))
            ~bw_gbps:(float_of_int bw /. 4.0)
            ())
        (int_range 0 16) (int_range 0 120)
    in
    list_size (int_range 1 6) demand_gen)

let arb_demands =
  QCheck.make
    ~print:(fun ds ->
      String.concat ";"
        (List.map
           (fun (d : Cap_arbiter.demand) ->
             Printf.sprintf "%.1fGHz/%.2fGB/s" d.Cap_arbiter.d_solo_cap_ghz
               d.Cap_arbiter.d_bw_gbps)
           ds))
    gen_demands

let qcheck_tests =
  [
    QCheck.Test.make
      ~name:"arbitrated cap >= every solo cap and <= uncore_max" ~count:200
      arb_demands
      (fun demands ->
        let m = Machine.bdw in
        let d = Cap_arbiter.arbitrate ~machine:m demands in
        d.Cap_arbiter.cap_ghz <= m.Machine.uncore_max_ghz +. 1e-9
        && d.Cap_arbiter.cap_ghz >= m.Machine.uncore_min_ghz -. 1e-9
        && List.for_all
             (fun (dm : Cap_arbiter.demand) ->
               d.Cap_arbiter.cap_ghz
               >= dm.Cap_arbiter.d_solo_cap_ghz -. 1e-9)
             demands);
    QCheck.Test.make ~name:"feasible iff supply covers aggregate" ~count:200
      arb_demands
      (fun demands ->
        let m = Machine.bdw in
        let d = Cap_arbiter.arbitrate ~machine:m demands in
        if d.Cap_arbiter.feasible then
          d.Cap_arbiter.supply_gbps >= d.Cap_arbiter.agg_bw_gbps -. 1e-9
        else
          Machine.dram_bw_gbps m ~f_u:m.Machine.uncore_max_ghz
          < d.Cap_arbiter.agg_bw_gbps);
  ]

let tests =
  [
    Alcotest.test_case "run_each [cfg] == oracle" `Quick
      test_run_each_one_equals_oracle;
    Alcotest.test_case "interleaving conserves counts" `Quick
      test_interleaving_conserves_tenant_counts;
    Alcotest.test_case "interleaving deterministic" `Quick
      test_interleaving_deterministic;
    Alcotest.test_case "energy attribution closes" `Quick
      test_energy_attribution_closes;
    Alcotest.test_case "shared LLC interference" `Quick
      test_shared_llc_interference;
    Alcotest.test_case "arbiter: 3-tenant all satisfied" `Quick
      test_arbiter_three_tenants_satisfied;
    Alcotest.test_case "arbiter: raises above floor" `Quick
      test_arbiter_raises_above_floor;
    Alcotest.test_case "arbiter: infeasible water-fill" `Quick
      test_arbiter_infeasible_waterfill;
    Alcotest.test_case "arbitrated cap runs fleet" `Quick
      test_arbitrated_cap_runs_fleet;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_tests
