(** Content-addressed persistence of PolyUFC-CM analyses ([numeric/v2]),
    of {!Flow.evaluate}'s simulations ([sim/v1]) and of tiling plans
    ([tiling/v1]), with the process-wide tiling memo in front of them.

    The analysis key is a stable digest of everything the analysis depends
    on: the SCoP in isl notation ({!Poly_ir.Scop.export_isl} of the
    program handed to the model — after tiling), a full fingerprint of the
    machine description, the model parameters (associativity mode, thread
    heuristic, parameter bindings), and {!Engine.Rcache.schema_version}.
    The machine fingerprint is {!Hwsim.Machine.fingerprint}.
    Payloads round-trip {!Cache_model.Model.result} and
    {!Hwsim.Sim.outcome} through JSON with
    lossless hexadecimal float encoding, so a cache hit reproduces the
    analysis bit-for-bit and downstream reports stay byte-identical. *)

val cm_key :
  machine:Hwsim.Machine.t ->
  mode:Cache_model.Model.assoc_mode ->
  apply_thread_heuristic:bool ->
  param_values:(string * int) list ->
  Poly_ir.Ir.t ->
  string

val sim_key : Hwsim.Sim.config -> string
(** The [sim/v1] key of a simulation: everything the simulator reads
    from the config — uncore policy, governor interval, each tenant's
    program ([Ir.pp]), parameters, cores and caps (as [%h]) — plus the
    machine fingerprint and {!Hwsim.Sim.version}. *)

val evaluation_to_json :
  Hwsim.Sim.outcome * Hwsim.Sim.outcome -> Telemetry.Json.t
(** A [Flow.evaluate] pair (baseline, capped), bit-exact. *)

val evaluation_of_json :
  Telemetry.Json.t -> (Hwsim.Sim.outcome * Hwsim.Sim.outcome) option

val cm_to_json : Cache_model.Model.result -> Telemetry.Json.t

val cm_of_json :
  machine:Hwsim.Machine.t ->
  mode:Cache_model.Model.assoc_mode ->
  Telemetry.Json.t ->
  Cache_model.Model.result option
(** [None] when the payload does not have the expected shape (treated by
    {!Engine.Rcache.find_or_add} as a corrupt entry). *)

(** {1 Tiling once per program} *)

type tiled = private {
  program : Poly_ir.Ir.t;  (** the tiled program *)
  scop_isl : string;  (** its SCoP in isl notation, for {!cm_key} *)
}
(** Only {!tile} builds one, so the export always belongs to the
    program. *)

val tile : ctx:Engine.Ctx.t -> tile_size:int -> Poly_ir.Ir.t -> tiled
(** [Poly_ir.Tiling.tile ~tile_size prog]'s program, planned once per
    process.  A process-wide memo, keyed on an exact digest of [prog]
    (its marshalled bytes, so programs that differ only in a float
    constant get distinct entries), holds each program's plan and its
    tiled form per tile size.  A memo miss reads the [tiling/v1] entry
    of [ctx]'s store when it has one; an entry that does not decode or
    does not apply is a miss.  Only a fresh plan is stored.  Counted as
    [tiling.memo_hits], [tiling.store_hits] and [tiling.plans].  Safe
    from concurrent threads and domains; the memo is bounded and resets
    when full. *)

val tiling_key : Poly_ir.Ir.t -> string
(** The [tiling/v1] key of a program: its exact digest,
    {!Poly_ir.Tiling.default_legality_sizes} and
    {!Poly_ir.Tiling.version}. *)

val plan_to_json : Poly_ir.Tiling.nest_report list -> Telemetry.Json.t
(** The [tiling/v1] payload. *)

val clear_tile_memo : unit -> unit
(** Drop every memo entry (tests use it to reach the store tier), the
    {!empty_stmt_domains} counts included. *)

val empty_stmt_domains :
  ctx:Engine.Ctx.t ->
  Poly_ir.Ir.t ->
  param_values:(string * int) list ->
  int * Engine.Fidelity.t
(** How many statements of a valid [prog] have an empty iteration domain
    at the sizes (a missing size counts as 0), and the pool fidelity of
    the count.  An exact count is memoized per (program digest, sizes);
    on a miss the source SCoP comes from the program's {!tile} memo entry
    when a request has already extracted it there, and the checks fan out
    over [ctx]'s pool when it has one. *)

val analyze_gov :
  ?ctx:Engine.Ctx.t ->
  mode:Cache_model.Model.assoc_mode ->
  apply_thread_heuristic:bool ->
  machine:Hwsim.Machine.t ->
  Poly_ir.Ir.t ->
  param_values:(string * int) list ->
  Cache_model.Model.result
(** Governed analysis through the context: memoized through [ctx]'s cache
    when present (keyed by {!cm_key}), budget-metered via {!Cache_model.Model.analyze_gov}.
    Degraded results are returned but never stored — a future run with a
    healthier budget must be able to compute (and then cache) the exact
    analysis. *)

val analyze_tiled :
  ?ctx:Engine.Ctx.t ->
  mode:Cache_model.Model.assoc_mode ->
  apply_thread_heuristic:bool ->
  machine:Hwsim.Machine.t ->
  tiled ->
  param_values:(string * int) list ->
  Cache_model.Model.result
(** {!analyze_gov} of a {!tile}d program, keyed on the SCoP export it
    carries instead of extracting it again. *)
