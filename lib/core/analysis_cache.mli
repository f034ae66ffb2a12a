(** Content-addressed persistence of PolyUFC-CM analyses ([numeric/v2])
    and of {!Flow.evaluate}'s simulations ([sim/v1]).

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

val analyze_gov :
  ?ctx:Engine.Ctx.t ->
  mode:Cache_model.Model.assoc_mode ->
  apply_thread_heuristic:bool ->
  machine:Hwsim.Machine.t ->
  Poly_ir.Ir.t ->
  param_values:(string * int) list ->
  Cache_model.Model.result
(** Governed analysis through the context: memoized through [ctx]'s cache
    when present, budget-metered via {!Cache_model.Model.analyze_gov}.
    Degraded results are returned but never stored — a future run with a
    healthier budget must be able to compute (and then cache) the exact
    analysis. *)

val analyze_cached :
  cache:Engine.Rcache.t ->
  mode:Cache_model.Model.assoc_mode ->
  apply_thread_heuristic:bool ->
  machine:Hwsim.Machine.t ->
  Poly_ir.Ir.t ->
  param_values:(string * int) list ->
  Cache_model.Model.result
(** {!Cache_model.Model.analyze} memoized through the result cache.
    Deprecated spelling of [analyze_gov ~ctx:(Ctx.create ~cache ())]. *)
