(** The PolyUFC compilation flow (Fig. 3), end to end:

    (1) validate the input affine program; (2) Pluto-style tiling and
    parallelization; (3a/3b) PolyUFC-CM cache analysis and OI computation;
    (4) roofline characterization; (5) parametric performance/power
    estimation; (6) POLYUFC-SEARCH for the cap of every top-level loop
    nest, aggregating per-statement caps with the paper's rule ([min] of
    the statement caps for a CB region, [max] for BB), followed by
    redundant-cap removal.

    The result carries the cap schedule consumed by the hardware simulator
    and a compile-time breakdown in the shape of Table IV. *)

(** Canonical span names of the four Fig. 3 phases. [timing] below is a
    view over the telemetry span tree: when telemetry is enabled,
    [compile] records one child span per phase under a ["flow.compile"]
    root, and each [timing] field equals the duration of the
    same-named span. *)

val phase_preprocess : string
val phase_pluto : string
val phase_cm : string
val phase_steps456 : string

type timing = {
  preprocess_s : float;  (** validation + SCoP extraction (stage 2 extract) *)
  pluto_s : float;  (** tiling / parallelization (stage 2 optimizer) *)
  cm_s : float;  (** PolyUFC-CM + OI (stages 3a–3b) *)
  steps456_s : float;  (** characterization, estimation, search (4–6) *)
}

type stmt_decision = {
  stmt_name : string;
  stmt_oi : float;
  stmt_bound : Roofline.boundedness;
  stmt_cap : float;
}

type region_decision = {
  region_var : string;  (** top-level loop variable — the cap key *)
  region_oi : float;
  region_bound : Roofline.boundedness;
  cap_ghz : float;  (** aggregated over statements (min CB / max BB) *)
  search : Search.outcome;  (** region-level search outcome *)
  stmts : stmt_decision list;
}

type compiled = {
  source : Poly_ir.Ir.t;
  optimized : Poly_ir.Ir.t;  (** tiled + parallelized *)
  caps : (string * float) list;
      (** cap schedule after redundant-cap removal, in program order *)
  decisions : region_decision list;
  cm : Cache_model.Model.result;  (** whole-program PolyUFC-CM analysis *)
  profile : Perfmodel.profile;
  timing : timing;
  fidelity : Engine.Fidelity.t;
      (** [Exact] when the cache analysis ran to completion; [Degraded]
          when the budget tripped and the estimator took over *)
}

val compile :
  ?ctx:Engine.Ctx.t ->
  ?objective:Search.objective ->
  ?epsilon:float ->
  ?tile_size:int ->
  ?tile:bool ->
  ?mode:Cache_model.Model.assoc_mode ->
  machine:Hwsim.Machine.t ->
  rooflines:Roofline.constants ->
  Poly_ir.Ir.t ->
  param_values:(string * int) list ->
  compiled
(** [tile] defaults to [true]; pass [false] when the input is already
    Pluto-optimized.  Tiling goes through {!Analysis_cache.tile}: planned
    once per program per process, and read back from [ctx]'s store.

    Resources come from [ctx] ({!Engine.Ctx.t}, default {!Engine.Ctx.none}).
    The pool fans the per-statement domain checks and the
    per-region characterize/estimate/search step out over the workers
    (deterministic: the result is identical to the sequential compile).
    The cache memoizes the PolyUFC-CM analysis — the dominant compile
    cost, Table IV — in the persistent result cache, keyed by (SCoP isl
    export, machine fingerprint, model parameters, schema version).

    A budget in [ctx] governs the CM phase: on exhaustion with policy
    [Interp] the degraded estimator takes over and the result carries
    [fidelity = Degraded]; with [Off] the {!Engine.Budget.Exhausted}
    exception propagates.  A cancellation token is honoured at phase
    boundaries, inside the CM enumeration, and by pooled dispatch
    (in-flight tasks abandon queued work; no partial cache writes). *)

type evaluation = {
  baseline : Hwsim.Sim.outcome;  (** UFS-governor run of the same binary *)
  capped : Hwsim.Sim.outcome;  (** run with the PolyUFC cap schedule *)
  time_gain : float;  (** (t_base − t_cap) / t_base; negative = slowdown *)
  energy_gain : float;
  edp_gain : float;
}

val evaluate :
  ?ctx:Engine.Ctx.t ->
  machine:Hwsim.Machine.t ->
  compiled ->
  param_values:(string * int) list ->
  evaluation
(** Run both the governor baseline and the capped binary on the simulated
    machine (the paper's Fig. 7 comparison).  When [ctx] has a result
    store, the pair of outcomes is one [sim/v1] entry
    ({!Analysis_cache.sim_key}) and a hit is bit-identical to the
    simulations. *)

val pp_compiled : Format.formatter -> compiled -> unit
val pp_evaluation : Format.formatter -> evaluation -> unit
