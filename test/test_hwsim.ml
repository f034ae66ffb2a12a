(* Tests for the hardware simulator: cache behaviour, timing/power physics,
   the UFS-like governor, and cap semantics. *)

open Hwsim

let tiny_geom =
  (* 2 sets × 2 ways × 64B = 256 B cache *)
  [
    {
      Machine.level_name = "L1";
      size_bytes = 256;
      line_bytes = 64;
      assoc = 2;
      hit_latency_ns = 1.0;
    };
  ]

let two_level_geom =
  [
    { Machine.level_name = "L1"; size_bytes = 256; line_bytes = 64; assoc = 2; hit_latency_ns = 1.0 };
    { Machine.level_name = "L2"; size_bytes = 1024; line_bytes = 64; assoc = 4; hit_latency_ns = 4.0 };
  ]

let test_cache_cold_then_hit () =
  let c = Cache.create tiny_geom in
  let o1 = Cache.access c ~addr:0 ~is_write:false in
  Alcotest.(check int) "cold miss" 1 o1.Cache.hit_level;
  Alcotest.(check bool) "fills from DRAM" true o1.Cache.dram_fill;
  let o2 = Cache.access c ~addr:8 ~is_write:false in
  Alcotest.(check int) "same line hits" 0 o2.Cache.hit_level;
  Alcotest.(check bool) "no fill" false o2.Cache.dram_fill

let test_cache_lru_eviction () =
  let c = Cache.create tiny_geom in
  (* set 0 holds lines 0, 2, 4, ... (2 sets); fill 2 ways then a third *)
  ignore (Cache.access c ~addr:0 ~is_write:false);      (* line 0 -> set 0 *)
  ignore (Cache.access c ~addr:(2 * 64) ~is_write:false); (* line 2 -> set 0 *)
  ignore (Cache.access c ~addr:(4 * 64) ~is_write:false); (* line 4 evicts line 0 *)
  let o = Cache.access c ~addr:0 ~is_write:false in
  Alcotest.(check bool) "line 0 was evicted" true o.Cache.dram_fill;
  (* LRU: after re-accessing 0, line 2 is LRU; touching 2 keeps it *)
  let o2 = Cache.access c ~addr:(4 * 64) ~is_write:false in
  Alcotest.(check int) "line 4 still resident" 0 o2.Cache.hit_level

let test_cache_other_set_isolated () =
  let c = Cache.create tiny_geom in
  ignore (Cache.access c ~addr:0 ~is_write:false);
  ignore (Cache.access c ~addr:(2 * 64) ~is_write:false);
  (* odd lines go to set 1: must not evict set 0 *)
  ignore (Cache.access c ~addr:64 ~is_write:false);
  ignore (Cache.access c ~addr:(3 * 64) ~is_write:false);
  let o = Cache.access c ~addr:0 ~is_write:false in
  Alcotest.(check int) "set 0 untouched" 0 o.Cache.hit_level

let test_cache_writeback () =
  let c = Cache.create tiny_geom in
  ignore (Cache.access c ~addr:0 ~is_write:true);
  Alcotest.(check int) "dirty resident" 1 (Cache.flush_writebacks c);
  (* evict line 0 by filling its set *)
  ignore (Cache.access c ~addr:(2 * 64) ~is_write:false);
  ignore (Cache.access c ~addr:(4 * 64) ~is_write:false);
  Alcotest.(check int) "writeback happened" 1 (Cache.dram_writebacks c);
  Alcotest.(check int) "no dirty left" 0 (Cache.flush_writebacks c)

let test_cache_inclusive_two_level () =
  let c = Cache.create two_level_geom in
  let o1 = Cache.access c ~addr:0 ~is_write:false in
  Alcotest.(check int) "cold -> DRAM" 2 o1.Cache.hit_level;
  (* thrash L1 set 0 with lines 2 and 4; line 0 falls back to L2 *)
  ignore (Cache.access c ~addr:(2 * 64) ~is_write:false);
  ignore (Cache.access c ~addr:(4 * 64) ~is_write:false);
  let o2 = Cache.access c ~addr:0 ~is_write:false in
  Alcotest.(check int) "L2 hit" 1 o2.Cache.hit_level

let test_cache_stats_consistency () =
  let c = Cache.create two_level_geom in
  let n = 100 in
  for i = 0 to n - 1 do
    ignore (Cache.access c ~addr:(i * 64 mod 2048) ~is_write:(i mod 3 = 0))
  done;
  let st = Cache.stats c in
  (* every access either hits L1 or misses it *)
  Alcotest.(check int) "L1 hits+misses = accesses" n
    (st.(0).Cache.hits + st.(0).Cache.misses);
  (* L2 sees exactly the L1 misses *)
  Alcotest.(check int) "L2 sees L1 misses" st.(0).Cache.misses
    (st.(1).Cache.hits + st.(1).Cache.misses);
  Alcotest.(check int) "DRAM reads = L2 misses" st.(1).Cache.misses
    (Cache.dram_reads c)

(* ---------- machine ---------- *)

let test_machine_freqs () =
  let fs = Machine.uncore_freqs Machine.bdw in
  Alcotest.(check int) "BDW 17 steps" 17 (List.length fs);
  Alcotest.(check (float 1e-9)) "first" 1.2 (List.hd fs);
  Alcotest.(check (float 1e-9)) "last" 2.8 (List.nth fs 16);
  let fs_rpl = Machine.uncore_freqs Machine.rpl in
  Alcotest.(check int) "RPL 39 steps" 39 (List.length fs_rpl)

let test_machine_curves () =
  let m = Machine.bdw in
  Alcotest.(check bool) "latency decreases with f_u" true
    (Machine.dram_latency_ns m ~f_u:2.8 < Machine.dram_latency_ns m ~f_u:1.2);
  Alcotest.(check bool) "bw increases with f_u" true
    (Machine.dram_bw_gbps m ~f_u:2.8 > Machine.dram_bw_gbps m ~f_u:1.2);
  Alcotest.(check bool) "bw saturates" true
    (Machine.dram_bw_gbps m ~f_u:100.0 = m.Machine.dram_bw_max_gbps);
  Alcotest.(check bool) "uncore power linear in f_u" true
    (Machine.uncore_power_w m ~f_u:2.0 -. Machine.uncore_power_w m ~f_u:1.0
     -. m.Machine.uncore_w_per_ghz
     |> Float.abs < 1e-9)

(* ---------- sim physics ---------- *)

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

let run_policy ?(caps = []) uncore prog n =
  Sim.run_one
    (Sim.config ~machine:Machine.bdw ~uncore
       [ Sim.tenant ~caps ~param_values:[ ("n", n) ] ~name:"t" prog ])

let run_fixed ?caps prog n f = run_policy ?caps (`Fixed f) prog n
let run_governor ?caps prog n = run_policy ?caps `Governor prog n

let test_cb_time_flat () =
  let tiled = Poly_ir.Tiling.tile_program ~tile_size:32 gemm in
  let lo = run_fixed tiled 96 1.2 and hi = run_fixed tiled 96 2.8 in
  (* CB: < 10% time difference across the whole uncore range *)
  Alcotest.(check bool) "time flat" true
    (Float.abs (lo.Sim.time_s -. hi.Sim.time_s) /. hi.Sim.time_s < 0.10);
  Alcotest.(check bool) "energy lower at low f_u" true
    (lo.Sim.energy_j < hi.Sim.energy_j);
  Alcotest.(check bool) "EDP better at low f_u" true (lo.Sim.edp < hi.Sim.edp)

let test_bb_speeds_up () =
  let lo = run_fixed stream 300_000 1.2 and hi = run_fixed stream 300_000 2.8 in
  Alcotest.(check bool) "BB speeds up >= 1.3x" true
    (lo.Sim.time_s /. hi.Sim.time_s > 1.3);
  Alcotest.(check bool) "BB EDP better at high f_u" true (hi.Sim.edp < lo.Sim.edp)

let test_energy_conservation () =
  let o = run_fixed gemm 32 2.0 in
  let z = o.Sim.zones in
  Alcotest.(check (float 1e-9)) "zones sum to total" o.Sim.energy_j
    (z.Sim.core_j +. z.Sim.uncore_j +. z.Sim.dram_j +. z.Sim.static_j);
  Alcotest.(check bool) "positive time" true (o.Sim.time_s > 0.0);
  Alcotest.(check (float 1e-6)) "edp = e*t" (o.Sim.energy_j *. o.Sim.time_s) o.Sim.edp

let test_flop_accounting () =
  let o = run_fixed gemm 16 2.0 in
  Alcotest.(check int) "2n^3 flops" (2 * 16 * 16 * 16) o.Sim.flops

let test_governor_tracks_demand () =
  (* streaming load: governor should run the uncore near max *)
  let o = run_governor stream 300_000 in
  Alcotest.(check bool) "governor near max on BB" true
    (o.Sim.avg_uncore_ghz > 2.4)

let test_caps_apply () =
  let tiled = Poly_ir.Tiling.tile_program ~tile_size:32 gemm in
  let var =
    match tiled.Poly_ir.Ir.body with
    | Poly_ir.Ir.Loop l :: _ -> l.Poly_ir.Ir.var
    | _ -> Alcotest.fail "expected loop"
  in
  (* size chosen so the run is long enough (≈1 ms) to amortize the 35 µs
     cap-switch latency, as in the paper's benchmarks *)
  let n = 144 in
  let o = run_governor ~caps:[ (var, 1.2) ] tiled n in
  Alcotest.(check int) "one cap switch" 1 o.Sim.cap_switches;
  Alcotest.(check bool) "uncore held at cap" true (o.Sim.avg_uncore_ghz < 1.4);
  (* capped CB beats the governor baseline on energy *)
  let base = run_governor tiled n in
  Alcotest.(check bool) "capped saves energy" true (o.Sim.energy_j < base.Sim.energy_j)

let test_cap_switch_costs_time () =
  let prog = stream in
  let var =
    match prog.Poly_ir.Ir.body with
    | Poly_ir.Ir.Loop l :: _ -> l.Poly_ir.Ir.var
    | _ -> Alcotest.fail "expected loop"
  in
  let without = run_fixed prog 1_000 2.8 in
  let with_cap = run_fixed ~caps:[ (var, 2.8) ] prog 1_000 2.8 in
  (* short program: the scaled 3.5 µs cap latency must be visible *)
  Alcotest.(check bool) "cap latency added" true
    (with_cap.Sim.time_s -. without.Sim.time_s > 3e-6)

let test_cap_switch_energy_accounting () =
  (* regression for the governor-window bug: after a cap switch the
     governor must restart its accounting window and the switch stall
     must be billed at the pre-switch uncore clock.  The observable
     contract: energy zones still close exactly across the switch, and
     the time-weighted uncore average sits strictly between the cap and
     the pre-switch clock. *)
  let tiled = Poly_ir.Tiling.tile_program ~tile_size:32 gemm in
  let var =
    match tiled.Poly_ir.Ir.body with
    | Poly_ir.Ir.Loop l :: _ -> l.Poly_ir.Ir.var
    | _ -> Alcotest.fail "expected loop"
  in
  let o = run_governor ~caps:[ (var, 1.2) ] tiled 144 in
  Alcotest.(check int) "one cap switch" 1 o.Sim.cap_switches;
  let z = o.Sim.zones in
  Alcotest.(check (float 1e-9)) "zones close across the switch"
    o.Sim.energy_j
    (z.Sim.core_j +. z.Sim.uncore_j +. z.Sim.dram_j +. z.Sim.static_j);
  (* almost the whole run is capped at 1.2, but the pre-switch prologue
     and the stall billed at the old clock keep the average above it *)
  Alcotest.(check bool) "avg uncore > cap (pre-switch residue)" true
    (o.Sim.avg_uncore_ghz > 1.2);
  Alcotest.(check bool) "avg uncore below uncapped range" true
    (o.Sim.avg_uncore_ghz < 1.4);
  (* deterministic: the switch must not leave the accounting dependent
     on governor-window phase *)
  let o2 = run_governor ~caps:[ (var, 1.2) ] tiled 144 in
  Alcotest.(check (float 0.0)) "energy reproducible" o.Sim.energy_j
    o2.Sim.energy_j;
  Alcotest.(check (float 0.0)) "avg uncore reproducible" o.Sim.avg_uncore_ghz
    o2.Sim.avg_uncore_ghz

let qcheck_tests =
  [
    QCheck.Test.make ~name:"energy monotone in f_u for CB kernel" ~count:5
      (QCheck.make QCheck.Gen.(int_range 16 48))
      (fun n ->
        let o1 = run_fixed gemm n 1.2 in
        let o2 = run_fixed gemm n 2.0 in
        let o3 = run_fixed gemm n 2.8 in
        o1.Sim.energy_j <= o2.Sim.energy_j && o2.Sim.energy_j <= o3.Sim.energy_j);
    QCheck.Test.make ~name:"time monotone (non-increasing) in f_u" ~count:5
      (QCheck.make QCheck.Gen.(int_range 5_000 50_000))
      (fun n ->
        let o1 = run_fixed stream n 1.2 in
        let o2 = run_fixed stream n 2.0 in
        let o3 = run_fixed stream n 2.8 in
        o1.Sim.time_s >= o2.Sim.time_s && o2.Sim.time_s >= o3.Sim.time_s);
  ]

let tests =
  [
    Alcotest.test_case "cache cold/hit" `Quick test_cache_cold_then_hit;
    Alcotest.test_case "cache LRU eviction" `Quick test_cache_lru_eviction;
    Alcotest.test_case "cache set isolation" `Quick test_cache_other_set_isolated;
    Alcotest.test_case "cache writeback" `Quick test_cache_writeback;
    Alcotest.test_case "cache inclusion" `Quick test_cache_inclusive_two_level;
    Alcotest.test_case "cache stats consistency" `Quick test_cache_stats_consistency;
    Alcotest.test_case "machine freq steps" `Quick test_machine_freqs;
    Alcotest.test_case "machine curves" `Quick test_machine_curves;
    Alcotest.test_case "CB time flat" `Quick test_cb_time_flat;
    Alcotest.test_case "BB speeds up" `Quick test_bb_speeds_up;
    Alcotest.test_case "energy conservation" `Quick test_energy_conservation;
    Alcotest.test_case "flop accounting" `Quick test_flop_accounting;
    Alcotest.test_case "governor tracks demand" `Quick test_governor_tracks_demand;
    Alcotest.test_case "caps apply" `Quick test_caps_apply;
    Alcotest.test_case "cap switch latency" `Quick test_cap_switch_costs_time;
    Alcotest.test_case "cap switch energy accounting" `Quick
      test_cap_switch_energy_accounting;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_tests
