(** Performance and power rooflines (Table I) via one-time
    micro-benchmarking.

    The paper fits its roofline constants with PAPI counters over synthetic
    kernels of controlled operational intensity (footnote 14); we do the
    same against the simulated machine: a flop-dense kernel for
    [t_FPU]/[e_FPU]/[p̂_FPU], a streaming kernel swept over uncore
    frequencies for the bandwidth curve, the DRAM miss-penalty curve
    [M{^t}(f) = a/f + b], and the uncore-power linear fits
    [α·f + γ] (Eqn. 8/10).  Per-level hit costs are measured with
    footprint-sized sweeps so that the analytical model (Eqn. 4) inherits
    the machine's memory-level parallelism. *)

type constants = {
  machine : Hwsim.Machine.t;
  t_fpu_ns : float;  (** measured time per flop (all threads active) *)
  e_fpu_nj : float;  (** energy per flop *)
  p_fpu_hat_w : float;  (** peak power of the flop-only workload minus p_con *)
  p_con_w : float;  (** constant power *)
  peak_gflops : float;
  peak_bw_gbps : float;  (** at max uncore frequency *)
  b_dram_t : float;  (** B{^t}_DRAM = peak flops / peak DRAM bytes (FpB) *)
  hit_cost_ns : float array;  (** effective per-access cost per cache level *)
  miss_lat_a : float;  (** M{^t}(f) = a/f + b, per LLC-miss cost in ns *)
  miss_lat_b : float;
  alpha_p : float;  (** uncore power fit slope (W per GHz) under load *)
  gamma_p : float;  (** uncore power fit intercept (W) *)
  bw_per_ghz : float;  (** fitted achieved-bandwidth slope (GB/s per GHz) *)
  bw_sat_gbps : float;  (** fitted bandwidth saturation level *)
  dram_w_per_gbps : float;
      (** DRAM transfer power per unit of achieved bandwidth (for the peak
          power ceiling, Eqn. 8) *)
}

type boundedness = CB | BB

val microbench : Hwsim.Machine.t -> constants
(** Run the microbenchmark campaign on the given machine: one full
    simulation per uncore frequency step plus one per cache level plus
    four (24 on BDW, 46 on RPL), seconds of wall time — about 5 s on BDW
    and 20 s on RPL.  Deterministic.  Callers want {!for_machine}, which
    runs it at most once per machine. *)

val sweep :
  ?param_values:(string * int) list ->
  Hwsim.Machine.t ->
  Poly_ir.Ir.t ->
  float list ->
  (float * Hwsim.Sim.outcome) list
(** [prog] simulated with the uncore pinned at each frequency, in one
    trace walk ({!Hwsim.Sim.run_each}), paired with its frequency. *)

val for_machine : ctx:Engine.Ctx.t -> Hwsim.Machine.t -> constants
(** The machine's constants, characterized once: an in-process memo keyed
    on {!Hwsim.Machine.fingerprint}, in front of the built-in
    characterizations ({!builtin}), in front of [ctx]'s result store when
    it has one ({!stored}), in front of {!microbench}.  So the stock BDW
    and RPL never run a campaign; any other machine (e.g. a
    {!Hwsim.Machine.with_core_ghz} retune) runs it once per store.  Safe
    from concurrent threads and domains; concurrent misses wait for one
    campaign. *)

val builtin : Hwsim.Machine.t -> constants option
(** The constants shipped for {!Hwsim.Machine.bdw} and
    {!Hwsim.Machine.rpl}: bit for bit what {!microbench} returns on them
    under the simulator version they were fitted with, and [None] under
    any other version or for any other machine. *)

val stored : Engine.Rcache.t -> Hwsim.Machine.t -> constants
(** The store tier of {!for_machine} without the memo: the machine's
    [roofline/v1] entry ({!store_key}), or a fresh campaign written back
    under it.  A corrupt entry is quarantined (or overwritten) and
    recomputed. *)

val store_key : Hwsim.Machine.t -> string
(** Digest of the machine fingerprint, {!Hwsim.Sim.version} and
    {!Engine.Rcache.schema_version}. *)

val to_json : constants -> Telemetry.Json.t
(** The [roofline/v1] payload: every constant as a hex float literal, so
    a store hit is bit-identical to the campaign.  The machine is not
    encoded: it is in the key. *)

val characterize : constants -> oi:float -> boundedness
(** Sec. IV-D: CB iff [I >= B{^t}_DRAM]. *)

val dram_bw_at : constants -> f_u:float -> float
(** Fitted achieved bandwidth (GB/s) at an uncore frequency. *)

val miss_latency_ns : constants -> f_u:float -> float
val uncore_power_at : constants -> f_u:float -> float
val pp_boundedness : Format.formatter -> boundedness -> unit
val pp : Format.formatter -> constants -> unit
