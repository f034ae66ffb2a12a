(** PolyUFC-CM: the approximate set-associative cache model (Sec. IV).

    For each cache level independently (write-allocate, write-through:
    level [i+1] sees level [i]'s misses plus all writes), the model
    classifies every statically-enumerated access as a {e compulsory/cold}
    miss (first touch of the line — the cardinality of the paper's
    [COLDMISS = lexmin(A⁻¹ ∘ S) ∘ S⁻¹] relation), a {e capacity/conflict}
    miss (per-set reuse distance ≥ associativity [k], the paper's
    [M = {RD > k·ℓ/e}] count), or a hit.

    The instance stream is enumerated from the polyhedral representation in
    schedule order; the symbolic counting the paper delegates to barvinok
    is performed by exact enumeration here, with Ehrhart interpolation
    available for the polynomial quantities (flop count Ω, cold misses).

    The classification reads {!Poly_ir.Trace.scan}'s chunks of packed
    events, one access at a time, with no closure call per access.  In
    [Set_associative] mode each level is one {!Hwsim.Setassoc} tag array
    of [n_sets × assoc] lines, every set kept MRU-first: a hit shifts the
    ways in front of the line down by one, a miss inserts at the front and
    drops the last way (true LRU); the set index is computed without an
    integer division.  {!Lru} serves only [Fully_associative] mode, whose
    single set holds the whole level.  Lines already seen are a bitset
    over the program's layout; lines outside it go to a small overflow
    table, so a negative set index still raises in set-associative mode
    and fully-associative mode still counts them.  A statement event
    selects the instance's counter block by the statement's index, and
    only those per-statement counters are kept during the walk: the
    per-level totals are their sums.  The accesses of each chunk are
    charged to the context's budget once per chunk.

    Paper assumptions kept: no prefetching, cold initial caches,
    homogeneous associativity per level, and the OpenMP heuristic that
    divides sequential miss counts by the thread count for loop-parallel
    programs (Sec. IV-B). *)

type assoc_mode =
  | Set_associative  (** per-set LRU with the level's true associativity *)
  | Fully_associative  (** one LRU over the level's full line capacity *)

type level_counts = {
  level_name : string;
  presented : int;  (** accesses seen by this level (write-through) *)
  cold : int;
  capacity_conflict : int;
  hits : int;
  demand_hits : int;
      (** hits on the demand (miss-refill) path — excludes write-through
          forwards, which are buffered and cost no latency; this is the hit
          count the timing model (Eqn. 4) consumes *)
}

type stmt_counts = {
  stmt_levels : level_counts array;
  stmt_flops : int;
  stmt_oi : float;  (** per-statement operational intensity *)
}

type result = {
  machine : Hwsim.Machine.t;
  mode : assoc_mode;
  levels : level_counts array;
  per_stmt : (string * stmt_counts) list;
      (** per-statement breakdown, in program order — used for the paper's
          min/max cap aggregation over the statements of a top-level op *)
  threads_divisor : int;  (** OpenMP heuristic divisor applied *)
  miss_llc : float;  (** total LLC misses after the thread heuristic *)
  q_dram_bytes : float;  (** Q_DRAM = Miss_LLC · ℓ (Sec. IV-C) *)
  flops : int;  (** Ω *)
  oi : float;  (** I = Ω / Q_DRAM, FLOP per byte (Eqn. 1) *)
  hit_ratios : float array;  (** ρ^h per level *)
  miss_ratios : float array;  (** ρ^m per level *)
  fidelity : Engine.Fidelity.t;
      (** [Exact] from {!analyze}; [Degraded] from {!analyze_approx} (and
          from {!analyze_gov} after a budget-triggered fallback) *)
}

val analyze :
  ?ctx:Engine.Ctx.t ->
  ?mode:assoc_mode ->
  ?apply_thread_heuristic:bool ->
  ?set_sampling:int ->
  machine:Hwsim.Machine.t ->
  Poly_ir.Ir.t ->
  param_values:(string * int) list ->
  result
(** Run the model.  The thread heuristic applies only when the program
    contains a loop marked [parallel] (default on).  In
    [Set_associative] mode an access to any byte below the layout (a
    negative address) raises [Invalid_argument "index out of bounds"].

    With a [ctx] carrying a budget or cancellation token, every simulated
    access is metered (in batches of 8192) and the analysis raises
    {!Engine.Budget.Exhausted} / {!Engine.Cancel.Cancelled} when the
    budget trips — use {!analyze_gov} to fall back to the degraded
    estimator instead.

    [set_sampling] (default 1 = exact) enables Bullseye-style set sampling
    (Shah et al., TACO 2022 — the paper's scalability companion) at the
    {e last} cache level: only LLC sets whose index is divisible by the
    factor are simulated, and LLC counters are extrapolated by the same
    factor (shallower levels stay exact so the write-through presentation
    chain is unbiased).  Miss behaviour is near-uniform across sets for
    affine programs, so accuracy degrades gracefully while LLC model cost
    drops by roughly the factor.  [Fully_associative] mode ignores the
    option. *)

val analyze_approx :
  ?ctx:Engine.Ctx.t ->
  ?mode:assoc_mode ->
  ?apply_thread_heuristic:bool ->
  machine:Hwsim.Machine.t ->
  Poly_ir.Ir.t ->
  param_values:(string * int) list ->
  result
(** Degraded static estimator: the same [result] shape as {!analyze}, but
    computed from polyhedral footprints (governed domain/range
    cardinalities, contiguous-line cold estimates, a capacity heuristic
    from footprint vs. level capacity) instead of enumerating the access
    stream.  Bounded work even after the caller's deadline: each
    cardinality runs under a small fresh fuel-only budget (only [ctx]'s
    cancellation token is inherited).  Always returns
    [fidelity = Degraded]; accuracy tolerances are documented in
    DESIGN.md. *)

val analyze_gov :
  ?ctx:Engine.Ctx.t ->
  ?mode:assoc_mode ->
  ?apply_thread_heuristic:bool ->
  ?set_sampling:int ->
  machine:Hwsim.Machine.t ->
  Poly_ir.Ir.t ->
  param_values:(string * int) list ->
  result
(** Governed analysis: {!analyze} under [ctx]; on budget exhaustion with
    a degradation policy of [Interp], falls back to {!analyze_approx}.
    With [degrade = Off] the exception propagates.  An access below the
    layout, which set-associative {!analyze} rejects with a bare
    [Invalid_argument "index out of bounds"], raises [Invalid_argument]
    naming its statement, array and byte address instead. *)

val total_misses : level_counts -> int

val cold_misses_symbolic :
  ?ctx:Engine.Ctx.t ->
  machine:Hwsim.Machine.t ->
  level:int ->
  Poly_ir.Ir.t ->
  Presburger.Count.quasi_poly option
(** Ehrhart quasi-polynomial for the level's cold misses as a function of a
    single program parameter (cold misses = distinct lines touched, an
    Ehrhart-countable quantity).  [None] for multi-parameter programs or
    failed fits.  When [ctx] carries a pool, sample instances are
    analyzed in parallel. *)

val access_map_with_cache_dims :
  machine:Hwsim.Machine.t ->
  level:int ->
  Poly_ir.Scop.stmt_info ->
  Poly_ir.Ir.access ->
  layout:Poly_ir.Layout.t ->
  param_values:(string * int) list ->
  Presburger.Bset.t
(** The paper's [A_c]: the symbolic access relation extended with [line]
    and [set] output dimensions
    ([line = ⌊(base + linear·e)/ℓ⌋], [set = line mod N_sets]), built with
    existential division variables.  Parameters must be fixed in [layout];
    the resulting map has no parameters. *)

val pp_result : Format.formatter -> result -> unit
