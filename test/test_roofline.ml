(* Tests for the roofline microbenchmark campaign and characterization. *)

let bdw_consts = Test_support.bdw_rooflines
let rpl_consts = Test_support.rpl_rooflines

(* the suite's one campaign per machine: [for_machine] serves the stock
   machines from the built-in table *)
let bdw_fresh = lazy (Roofline.microbench Hwsim.Machine.bdw)
let rpl_fresh = lazy (Roofline.microbench Hwsim.Machine.rpl)

let test_constants_sane () =
  let k = Lazy.force bdw_consts in
  Alcotest.(check bool) "t_fpu positive" true (k.Roofline.t_fpu_ns > 0.0);
  Alcotest.(check bool) "peak gflops positive" true (k.Roofline.peak_gflops > 1.0);
  Alcotest.(check bool) "balance positive" true (k.Roofline.b_dram_t > 0.0);
  Alcotest.(check bool) "p_con recovered" true
    (Float.abs (k.Roofline.p_con_w -. Hwsim.Machine.bdw.Hwsim.Machine.p_static_w) < 0.5)

let test_uncore_power_fit () =
  (* the fitted α/γ must recover the machine's uncore power curve *)
  let k = Lazy.force bdw_consts in
  let m = Hwsim.Machine.bdw in
  Alcotest.(check (float 0.3)) "alpha" m.Hwsim.Machine.uncore_w_per_ghz k.Roofline.alpha_p;
  Alcotest.(check (float 0.6)) "gamma" m.Hwsim.Machine.uncore_w_base k.Roofline.gamma_p

let test_miss_latency_curve () =
  let k = Lazy.force bdw_consts in
  Alcotest.(check bool) "a positive (1/f shape)" true (k.Roofline.miss_lat_a > 0.0);
  let lo = Roofline.miss_latency_ns k ~f_u:1.2 in
  let hi = Roofline.miss_latency_ns k ~f_u:2.8 in
  Alcotest.(check bool) "latency falls with f_u" true (lo > hi)

let test_hit_costs_monotone () =
  let k = Lazy.force bdw_consts in
  let h = k.Roofline.hit_cost_ns in
  Alcotest.(check int) "three levels" 3 (Array.length h);
  Alcotest.(check bool) "L1 <= L2 <= LLC" true (h.(0) <= h.(1) && h.(1) <= h.(2))

let test_characterization () =
  let k = Lazy.force bdw_consts in
  Alcotest.(check bool) "high OI -> CB" true
    (Roofline.characterize k ~oi:(k.Roofline.b_dram_t *. 4.0) = Roofline.CB);
  Alcotest.(check bool) "low OI -> BB" true
    (Roofline.characterize k ~oi:(k.Roofline.b_dram_t /. 4.0) = Roofline.BB);
  Alcotest.(check bool) "boundary -> CB" true
    (Roofline.characterize k ~oi:k.Roofline.b_dram_t = Roofline.CB)

let test_bw_curve () =
  let k = Lazy.force bdw_consts in
  let at12 = Roofline.dram_bw_at k ~f_u:1.2 in
  let at28 = Roofline.dram_bw_at k ~f_u:2.8 in
  Alcotest.(check bool) "bw grows" true (at28 > at12);
  Alcotest.(check bool) "bw bounded by sat" true (at28 <= k.Roofline.bw_sat_gbps +. 1e-9)

let test_rpl_faster_than_bdw () =
  (* Table III: RPL is the newer, faster machine in every roofline axis *)
  let b = Lazy.force bdw_consts and r = Lazy.force rpl_consts in
  Alcotest.(check bool) "peak flops" true (r.Roofline.peak_gflops > b.Roofline.peak_gflops);
  Alcotest.(check bool) "peak bw" true (r.Roofline.peak_bw_gbps > b.Roofline.peak_bw_gbps)

(* ---------- one characterization per machine ---------- *)

module R = Engine.Rcache
module FS = Engine.Faultsim
module J = Telemetry.Json

let fresh_dir () = Filename.temp_dir "polyufc_roofline_test" ""

let torn_writes () =
  match FS.parse_plan "rcache.torn_write:1:5" with
  | Ok p -> p
  | Error m -> Alcotest.fail m

(* every float of the constants, named, for bit-for-bit comparison *)
let fields (k : Roofline.constants) =
  [
    ("t_fpu_ns", k.Roofline.t_fpu_ns);
    ("e_fpu_nj", k.Roofline.e_fpu_nj);
    ("p_fpu_hat_w", k.Roofline.p_fpu_hat_w);
    ("p_con_w", k.Roofline.p_con_w);
    ("peak_gflops", k.Roofline.peak_gflops);
    ("peak_bw_gbps", k.Roofline.peak_bw_gbps);
    ("b_dram_t", k.Roofline.b_dram_t);
    ("miss_lat_a", k.Roofline.miss_lat_a);
    ("miss_lat_b", k.Roofline.miss_lat_b);
    ("alpha_p", k.Roofline.alpha_p);
    ("gamma_p", k.Roofline.gamma_p);
    ("bw_per_ghz", k.Roofline.bw_per_ghz);
    ("bw_sat_gbps", k.Roofline.bw_sat_gbps);
    ("dram_w_per_gbps", k.Roofline.dram_w_per_gbps);
  ]
  @ Array.to_list
      (Array.mapi
         (fun i x -> (Printf.sprintf "hit_cost_ns.%d" i, x))
         k.Roofline.hit_cost_ns)

let check_bits what (a : Roofline.constants) (b : Roofline.constants) =
  Alcotest.(check bool) (what ^ ": same machine") true
    (a.Roofline.machine = b.Roofline.machine);
  Alcotest.(check int) (what ^ ": field count")
    (List.length (fields a)) (List.length (fields b));
  List.iter2
    (fun (name, x) (_, y) ->
      Alcotest.(check int64) (what ^ ": " ^ name) (Int64.bits_of_float x)
        (Int64.bits_of_float y))
    (fields a) (fields b)

let test_store_bit_identical () =
  FS.suspended @@ fun () ->
  List.iter
    (fun (fresh, (m : Hwsim.Machine.t)) ->
      let fresh = Lazy.force fresh in
      let dir = fresh_dir () in
      R.store ~kind:R.kind_roofline (R.create ~dir ()) (Roofline.store_key m)
        (Roofline.to_json fresh);
      (* a new handle: the read comes from disk, not the memory tier *)
      let c = R.create ~dir () in
      let hits = (R.counts_for c).R.disk_hits in
      let back = Roofline.stored c m in
      Alcotest.(check int) "served from disk" (hits + 1)
        (R.counts_for c).R.disk_hits;
      check_bits m.Hwsim.Machine.name fresh back)
    [ (bdw_fresh, Hwsim.Machine.bdw); (rpl_fresh, Hwsim.Machine.rpl) ]

(* The constants as the OCaml record literal the built-in table holds. *)
let ocaml_literal name (k : Roofline.constants) =
  let lit = Printf.sprintf "%h" in
  let scalars =
    List.filter
      (fun (n, _) -> not (String.starts_with ~prefix:"hit_cost_ns." n))
      (fields k)
  in
  Printf.sprintf "let %s m =\n  {\n    machine = m;\n%s    hit_cost_ns = [| %s |];\n  }\n"
    name
    (String.concat ""
       (List.map (fun (n, x) -> Printf.sprintf "    %s = %s;\n" n (lit x)) scalars))
    (String.concat "; " (Array.to_list (Array.map lit k.Roofline.hit_cost_ns)))

let same_bits a b =
  List.for_all2
    (fun (_, x) (_, y) -> Int64.bits_of_float x = Int64.bits_of_float y)
    (fields a) (fields b)

let test_builtin_is_fresh () =
  List.iter
    (fun (fresh, (m : Hwsim.Machine.t)) ->
      let fresh = Lazy.force fresh in
      let name = String.lowercase_ascii m.Hwsim.Machine.name ^ "_constants" in
      match Roofline.builtin m with
      | None ->
        Alcotest.failf
          "no built-in %s constants under Hwsim.Sim.version %d; a fresh \
           campaign reads:\n%s"
          m.Hwsim.Machine.name Hwsim.Sim.version (ocaml_literal name fresh)
      | Some k when not (same_bits k fresh) ->
        Alcotest.failf
          "built-in %s constants differ from a fresh campaign: bump \
           Hwsim.Sim.version with the table's version and paste:\n%s"
          m.Hwsim.Machine.name (ocaml_literal name fresh)
      | Some k ->
        check_bits m.Hwsim.Machine.name fresh k;
        check_bits "served by for_machine" fresh
          (Roofline.for_machine ~ctx:Engine.Ctx.none m))
    [ (bdw_fresh, Hwsim.Machine.bdw); (rpl_fresh, Hwsim.Machine.rpl) ]

(* A tiny two-level machine whose campaign takes a fraction of a second,
   for the tests that must run the campaign more than once. *)
let toy =
  let level level_name size_bytes assoc hit_latency_ns =
    {
      Hwsim.Machine.level_name;
      size_bytes;
      line_bytes = 64;
      assoc;
      hit_latency_ns;
    }
  in
  {
    Hwsim.Machine.bdw with
    name = "toy";
    uncore_step_ghz = 0.8;
    caches = [ level "L1" 1024 4 1.2; level "LLC" 4096 8 12.0 ];
  }

let test_corrupt_entry_recomputed () =
  let dir = fresh_dir () in
  (* memory tier off: it would mask the torn on-disk entry *)
  let c = R.create ~dir ~mem_entries:0 () in
  let first = FS.with_plan (torn_writes ()) (fun () -> Roofline.stored c toy) in
  FS.suspended @@ fun () ->
  let before = R.counts_for c in
  let again = Roofline.stored c toy in
  Alcotest.(check int) "torn entry quarantined"
    (before.R.quarantined + 1) (R.counts_for c).R.quarantined;
  check_bits "recomputed" first again;
  let hits = (R.counts_for c).R.disk_hits in
  check_bits "repaired entry" first (Roofline.stored c toy);
  Alcotest.(check int) "repaired entry hits" (hits + 1)
    (R.counts_for c).R.disk_hits;
  Alcotest.(check bool) "stats_by_kind lists roofline/v1" true
    (List.mem_assoc R.kind_roofline (R.stats_by_kind c))

let test_retuned_machine_refit () =
  (* the memo is keyed on the fingerprint, not the name: with_core_ghz
     keeps the name.  2.8 GHz is a point test_core's joint search visits,
     so the campaign is shared with it. *)
  let stock = Lazy.force bdw_consts in
  let m = Hwsim.Machine.with_core_ghz Hwsim.Machine.bdw 2.8 in
  let k = Roofline.for_machine ~ctx:Engine.Ctx.none m in
  Alcotest.(check (float 0.0)) "retuned machine" 2.8
    k.Roofline.machine.Hwsim.Machine.core_ghz;
  Alcotest.(check bool) "slower flops" true
    (k.Roofline.t_fpu_ns > stock.Roofline.t_fpu_ns)

(* Digests of the fresh BDW and RPL constants, per simulator version.  A
   change to the simulator or the campaign that moves them must bump
   [Hwsim.Sim.version] (so stores written before it are never served)
   and pin the new digests under the new version. *)
let pinned_digests =
  [ (1, ("e612baf4d38e7b55592a41e4ce779439", "0d1996e11c2f55ecc254d317375e46bb")) ]

let digest k = Digest.to_hex (Digest.string (J.to_string (Roofline.to_json k)))

let test_salt_guard () =
  let v = Hwsim.Sim.version in
  match List.assoc_opt v pinned_digests with
  | None ->
    Alcotest.failf "Hwsim.Sim.version %d has no pinned digests: BDW %s RPL %s"
      v (digest (Lazy.force bdw_fresh)) (digest (Lazy.force rpl_fresh))
  | Some (bdw, rpl) ->
    let msg name =
      Printf.sprintf
        "%s constants moved under Hwsim.Sim.version %d: bump the version \
         and pin the new digest" name v
    in
    Alcotest.(check string) (msg "BDW") bdw (digest (Lazy.force bdw_fresh));
    Alcotest.(check string) (msg "RPL") rpl (digest (Lazy.force rpl_fresh))

let test_fingerprint_stable () =
  (* numeric/v2 keys embed the fingerprint: a changed rendering would
     orphan every warm store *)
  Alcotest.(check string) "BDW fingerprint digest"
    "9b70d23a730a415ac9c1f4cdf9121ec5"
    (Digest.to_hex
       (Digest.string (Hwsim.Machine.fingerprint Hwsim.Machine.bdw)))

let tests =
  [
    Alcotest.test_case "constants sane" `Quick test_constants_sane;
    Alcotest.test_case "uncore power fit" `Quick test_uncore_power_fit;
    Alcotest.test_case "miss latency curve" `Quick test_miss_latency_curve;
    Alcotest.test_case "hit costs monotone" `Quick test_hit_costs_monotone;
    Alcotest.test_case "CB/BB characterization" `Quick test_characterization;
    Alcotest.test_case "bandwidth curve" `Quick test_bw_curve;
    Alcotest.test_case "RPL > BDW rooflines" `Quick test_rpl_faster_than_bdw;
    Alcotest.test_case "store round trip is bit-identical" `Quick
      test_store_bit_identical;
    Alcotest.test_case "corrupt entry quarantined and recomputed" `Quick
      test_corrupt_entry_recomputed;
    Alcotest.test_case "memo keyed on fingerprint, not name" `Quick
      test_retuned_machine_refit;
    Alcotest.test_case "built-in constants are a fresh campaign" `Quick
      test_builtin_is_fresh;
    Alcotest.test_case "simulator salt guard" `Quick test_salt_guard;
    Alcotest.test_case "machine fingerprint stable" `Quick
      test_fingerprint_stable;
  ]
