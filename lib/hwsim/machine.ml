type cache_geometry = {
  level_name : string;
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  hit_latency_ns : float;
}

type t = {
  name : string;
  threads : int;
  core_ghz : float;
  uncore_min_ghz : float;
  uncore_max_ghz : float;
  uncore_step_ghz : float;
  caches : cache_geometry list;
  flop_ns : float;
  mlp : float;
  dram_lat_a_ns : float;
  dram_lat_b_ns : float;
  dram_bw_gbps_per_ghz : float;
  dram_bw_max_gbps : float;
  p_static_w : float;
  core_w_active : float;
  uncore_w_per_ghz : float;
  uncore_w_base : float;
  dram_nj_per_line : float;
  cap_switch_us : float;
}

let bdw =
  {
    name = "BDW";
    threads = 6;
    core_ghz = 3.5;
    uncore_min_ghz = 1.2;
    uncore_max_ghz = 2.8;
    uncore_step_ghz = 0.1;
    caches =
      [
        { level_name = "L1"; size_bytes = 16 * 1024; line_bytes = 64; assoc = 8; hit_latency_ns = 1.2 };
        { level_name = "L2"; size_bytes = 128 * 1024; line_bytes = 64; assoc = 8; hit_latency_ns = 3.5 };
        { level_name = "LLC"; size_bytes = 512 * 1024; line_bytes = 64; assoc = 12; hit_latency_ns = 12.0 };
      ];
    flop_ns = 0.10;
    mlp = 4.0;
    dram_lat_a_ns = 80.0;
    dram_lat_b_ns = 35.0;
    dram_bw_gbps_per_ghz = 7.0;
    dram_bw_max_gbps = 18.0;
    p_static_w = 12.0;
    core_w_active = 5.0;
    uncore_w_per_ghz = 11.0;
    uncore_w_base = 3.0;
    dram_nj_per_line = 20.0;
    cap_switch_us = 3.5;
  }

let rpl =
  {
    name = "RPL";
    threads = 8;
    core_ghz = 3.9;
    uncore_min_ghz = 0.8;
    uncore_max_ghz = 4.6;
    uncore_step_ghz = 0.1;
    caches =
      [
        { level_name = "L1"; size_bytes = 24 * 1024; line_bytes = 64; assoc = 12; hit_latency_ns = 1.0 };
        { level_name = "L2"; size_bytes = 256 * 1024; line_bytes = 64; assoc = 10; hit_latency_ns = 3.0 };
        { level_name = "LLC"; size_bytes = 1024 * 1024; line_bytes = 64; assoc = 16; hit_latency_ns = 10.0 };
      ];
    flop_ns = 0.05;
    mlp = 6.0;
    dram_lat_a_ns = 60.0;
    dram_lat_b_ns = 28.0;
    dram_bw_gbps_per_ghz = 9.0;
    dram_bw_max_gbps = 36.0;
    p_static_w = 10.0;
    core_w_active = 5.5;
    uncore_w_per_ghz = 7.0;
    uncore_w_base = 2.0;
    dram_nj_per_line = 16.0;
    cap_switch_us = 2.1;
  }

let llc m = List.nth m.caches (List.length m.caches - 1)
let line_bytes m = (llc m).line_bytes

let dram_latency_ns m ~f_u = (m.dram_lat_a_ns /. f_u) +. m.dram_lat_b_ns

let dram_bw_gbps m ~f_u =
  Float.min m.dram_bw_max_gbps (m.dram_bw_gbps_per_ghz *. f_u)

let uncore_power_w m ~f_u = (m.uncore_w_per_ghz *. f_u) +. m.uncore_w_base

let uncore_freqs m =
  let n =
    int_of_float
      (Float.round ((m.uncore_max_ghz -. m.uncore_min_ghz) /. m.uncore_step_ghz))
  in
  List.init (n + 1) (fun i ->
      Float.round ((m.uncore_min_ghz +. (float_of_int i *. m.uncore_step_ghz)) *. 10.)
      /. 10.)

let with_core_ghz m f =
  assert (f > 0.0);
  let r = f /. m.core_ghz in
  {
    m with
    core_ghz = f;
    flop_ns = m.flop_ns /. r;
    caches =
      List.map
        (fun g -> { g with hit_latency_ns = g.hit_latency_ns /. r })
        m.caches;
    core_w_active = m.core_w_active *. (r ** 2.2);
  }

let fingerprint m =
  let b = Buffer.create 256 in
  let f fmt = Printf.ksprintf (Buffer.add_string b) fmt in
  f "name=%s;threads=%d;core=%h;umin=%h;umax=%h;ustep=%h;" m.name m.threads
    m.core_ghz m.uncore_min_ghz m.uncore_max_ghz m.uncore_step_ghz;
  List.iter
    (fun c ->
      f "cache=%s:%d:%d:%d:%h;" c.level_name c.size_bytes c.line_bytes c.assoc
        c.hit_latency_ns)
    m.caches;
  f "flop=%h;mlp=%h;dlat=%h:%h;dbw=%h:%h;pstat=%h;pcore=%h;punc=%h:%h;dnj=%h;capus=%h"
    m.flop_ns m.mlp m.dram_lat_a_ns m.dram_lat_b_ns m.dram_bw_gbps_per_ghz
    m.dram_bw_max_gbps m.p_static_w m.core_w_active m.uncore_w_per_ghz
    m.uncore_w_base m.dram_nj_per_line m.cap_switch_us;
  Buffer.contents b

let time_balance_fpb m ~f_u =
  let peak_flops = float_of_int m.threads /. m.flop_ns in
  (* flops per ns *)
  let bw_bytes_per_ns = dram_bw_gbps m ~f_u in
  (* GB/s = bytes/ns *)
  peak_flops /. bw_bytes_per_ns

let pp ppf m =
  Format.fprintf ppf
    "%s: %d threads @ %.1f GHz core, uncore %.1f-%.1f GHz, LLC %d KiB %d-way"
    m.name m.threads m.core_ghz m.uncore_min_ghz m.uncore_max_ghz
    ((llc m).size_bytes / 1024)
    (llc m).assoc
