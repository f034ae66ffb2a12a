(** The hardware simulator: executes program access traces against a
    {!Machine.t} and reports time, energy and EDP.

    This is the reproduction's stand-in for the paper's real testbeds
    (PAPI counters + RAPL energy + the Intel UFS / P-state drivers):

    - {b Timing}: execution time accumulates per event.  Compute time is
      [flops · flop_ns / threads_in_parallel_region]; cache-hit time is
      [hit_latency / (mlp · threads)]; a DRAM access costs
      [max(latency(f_u)/mlp, line/BW(f_u))] — the bandwidth term is shared
      across threads, which is what starves bandwidth-bound kernels.
    - {b Power/energy}: [P = p_static + core_active + (α·f_u + γ)] plus a
      per-line DRAM transfer energy; energy integrates power over simulated
      time, RAPL-style, with separate core/uncore zone accounting.
    - {b Uncore frequency}: either pinned ([`Fixed f]) or driven by a
      UFS-like governor ([`Governor]) that scales the uncore with observed
      DRAM-bandwidth demand, bounded by the currently-active cap.  Cap
      changes (from the compiled-in cap schedule) cost the machine's
      cap-switch latency and restart the governor's accounting window.

    Since the multi-tenant redesign the canonical entry point is a
    {!config} record holding one {!tenant} per co-scheduled program.  A
    single tenant runs the paper-faithful single-kernel engine (one
    inclusive hierarchy); two or more tenants are interleaved
    event-by-event over private upper cache levels, a shared LLC, a
    shared DRAM channel (equal slices of the bandwidth at the current
    clock) and one shared uncore clock — any tenant's cap schedule
    writes the one MSR everyone reads, which is the interference
    {!Cap_arbiter} exists to arbitrate away.

    Relative comparisons (capped code vs. the governor baseline on the same
    machine) are the meaningful output, as in the paper. *)

type uncore_policy =
  [ `Fixed of float  (** pin the uncore clock (cap with a saturated load) *)
  | `Governor  (** UFS-driver-like dynamic scaling, bounded by active cap *)
  ]

type zone_energy = { core_j : float; uncore_j : float; dram_j : float; static_j : float }

type outcome = {
  time_s : float;
  energy_j : float;
  edp : float;  (** energy × delay *)
  avg_power_w : float;
  avg_uncore_ghz : float;  (** time-weighted *)
  zones : zone_energy;
  flops : int;
  dram_lines : int;  (** DRAM line fills *)
  dram_bytes : int;  (** fills + writebacks, in bytes *)
  cache_stats : Cache.level_stats array;
  cap_switches : int;
  achieved_gflops : float;
  achieved_bw_gbps : float;
}

type cap_schedule = (string * float) list
(** Caps keyed by top-level loop variable: entering that loop sets the
    uncore cap (PolyUFC's inter-kernel capping, Sec. VII-A). *)

(** {1 Tenant configuration} *)

type tenant = {
  t_name : string;
  t_prog : Poly_ir.Ir.t;
  t_params : (string * int) list;
  t_cores : int;  (** cores granted in parallel regions; 0 = fair share *)
  t_weight : float;  (** QoS weight, read by {!Cap_arbiter} *)
  t_caps : cap_schedule;
}

val tenant :
  ?cores:int ->
  ?weight:float ->
  ?caps:cap_schedule ->
  ?param_values:(string * int) list ->
  name:string ->
  Poly_ir.Ir.t ->
  tenant
(** Smart constructor; raises [Invalid_argument] on a non-positive
    weight or negative core count.  [cores] defaults to [0]: an equal
    share of the machine's threads, at least one. *)

type config = {
  machine : Machine.t;
  uncore : uncore_policy;
  governor_interval_us : float;
  tenants : tenant list;
}

val config :
  machine:Machine.t ->
  uncore:uncore_policy ->
  ?governor_interval_us:float ->
  tenant list ->
  config
(** Smart constructor; [governor_interval_us] defaults to 100.  Raises
    [Invalid_argument] on an empty tenant list. *)

type tenant_outcome = {
  o_tenant : string;
  o_time_s : float;  (** this tenant's completion time *)
  o_energy_j : float;
      (** attributed share: its core + DRAM energy plus a
          residency-proportional slice of uncore + static *)
  o_flops : int;
  o_accesses : int;  (** demand accesses presented to the hierarchy *)
  o_dram_lines : int;
  o_dram_bytes : int;
  o_gflops : float;
  o_bw_gbps : float;
  o_solo_time_s : float;  (** NaN when solo baselines were not requested *)
  o_slowdown : float;  (** [o_time_s / o_solo_time_s]; NaN without solo *)
}

type multi_outcome = {
  combined : outcome;
      (** machine-level aggregate: wall time, total energy, shared-LLC
          stats in the last [cache_stats] slot *)
  per_tenant : tenant_outcome list;  (** in configuration order *)
  n_tenants : int;
}

val simulate : ?solo:bool -> config -> multi_outcome
(** Run a tenant set.  One tenant takes the exact single-kernel path
    ({!run} is byte-identical to a one-tenant [simulate]); two or more
    are interleaved over the shared LLC / DRAM / uncore clock.  With
    [solo] (default [true]) each tenant is additionally run alone under
    the same policy to report [o_slowdown]; pass [~solo:false] to skip
    those baseline runs. *)

val run_one : config -> outcome
(** [combined] of [simulate ~solo:false] — the record-API equivalent of
    {!run} for callers that want a single aggregate outcome. *)

(** {1 Legacy entry point} *)

val run :
  machine:Machine.t ->
  uncore:uncore_policy ->
  ?caps:cap_schedule ->
  ?governor_interval_us:float ->
  Poly_ir.Ir.t ->
  param_values:(string * int) list ->
  outcome
(** Deprecated compat wrapper over the single-kernel engine: equivalent
    to [run_one (config ~machine ~uncore [tenant ~caps ... prog])].
    Kept so pre-multi-tenant callers compile; new code should build a
    {!config}. *)

(** {1 Persistence} *)

val version : int
(** The simulator's version, salted into every result-store key whose
    payload the simulator computed (the [roofline/v1] constants of
    [Roofline.for_machine] and the [sim/v1] outcomes of
    [Flow.evaluate]).  Bump it with any change that moves an outcome, so
    an old store cannot serve stale numbers; the roofline digest test
    fails until it is bumped. *)

val outcome_to_json : outcome -> Telemetry.Json.t
(** Every field, floats as hex literals: {!outcome_of_json} restores the
    outcome bit-for-bit. *)

val outcome_of_json : Telemetry.Json.t -> outcome option
(** [None] when the payload does not have the expected shape. *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp_tenant_outcome : Format.formatter -> tenant_outcome -> unit
val pp_multi_outcome : Format.formatter -> multi_outcome -> unit
