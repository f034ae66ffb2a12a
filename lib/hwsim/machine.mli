(** Machine descriptions for the simulated platforms.

    The paper evaluates on Intel Broadwell (Xeon 1650-v4) and Raptor Lake
    (i5-13600) testbeds (Table III).  We model scaled-down analogues —
    cache capacities and problem sizes are shrunk together so that
    trace-driven simulation stays tractable while preserving each kernel's
    working-set-to-LLC ratio, which is what determines CB/BB character.
    Frequency ranges, relative bandwidths, cap-switch latencies and the
    uncore power share (~30 % of package, Sec. I) follow the paper. *)

type cache_geometry = {
  level_name : string;
  size_bytes : int;
  line_bytes : int;
  assoc : int;
  hit_latency_ns : float;  (** load-to-use at base core frequency *)
}

type t = {
  name : string;
  threads : int;  (** OpenMP threads used for parallel loops *)
  core_ghz : float;  (** base (non-turbo) core frequency, P-state managed *)
  uncore_min_ghz : float;
  uncore_max_ghz : float;
  uncore_step_ghz : float;  (** cap search granularity, 0.1 GHz *)
  caches : cache_geometry list;  (** L1 → LLC, inclusive hierarchy *)
  flop_ns : float;  (** time per flop per thread (pipelined FPU) *)
  mlp : float;  (** memory-level parallelism amortizing hit latency *)
  dram_lat_a_ns : float;
      (** DRAM miss latency: [a / f_u + b] (the paper's M{^t} curve) *)
  dram_lat_b_ns : float;
  dram_bw_gbps_per_ghz : float;  (** bandwidth slope in uncore frequency *)
  dram_bw_max_gbps : float;  (** saturation bandwidth *)
  p_static_w : float;  (** constant (package idle) power p_con *)
  core_w_active : float;  (** dynamic core power while executing, per thread *)
  uncore_w_per_ghz : float;  (** uncore dynamic power slope α *)
  uncore_w_base : float;  (** uncore power intercept γ *)
  dram_nj_per_line : float;  (** energy per DRAM line transfer *)
  cap_switch_us : float;
      (** uncore cap write latency.  The paper measures 35 µs (BDW) and
          21 µs (RPL) against kernels running for seconds; our kernels are
          scaled ~10× smaller, so the latency is scaled to 3.5 / 2.1 µs to
          preserve the paper's overhead-to-runtime ratio (cf. DESIGN.md). *)
}

val bdw : t
(** Broadwell-class analogue: 6 threads, uncore 1.2–2.8 GHz. *)

val rpl : t
(** Raptor-Lake-class analogue: larger LLC, higher bandwidth,
    uncore 0.8–4.6 GHz. *)

val llc : t -> cache_geometry
val line_bytes : t -> int
val dram_latency_ns : t -> f_u:float -> float
val dram_bw_gbps : t -> f_u:float -> float
val uncore_power_w : t -> f_u:float -> float
val uncore_freqs : t -> float list
(** All cap candidates from min to max at step granularity. *)

val with_core_ghz : t -> float -> t
(** Retune the machine description to a different core (P-state) frequency:
    per-flop time and cache hit latencies scale inversely with the clock,
    dynamic core power scales ≈ f^2.2 (frequency × supply-voltage²) — the
    core-DVFS extension of Sec. VII-F.  The uncore domain is untouched. *)

val fingerprint : t -> string
(** Every field of the description, canonically rendered (floats as
    [%h], so bit-exact).  Any retuning, e.g. {!with_core_ghz}, changes
    it.  Result-store keys that depend on the machine embed it. *)

val time_balance_fpb : t -> f_u:float -> float
(** B{^t}_DRAM: peak flops / peak DRAM bandwidth (FLOP per byte) with all
    threads active. *)

val pp : Format.formatter -> t -> unit
