(** The PolyUFC flow of Fig. 3 behind one entry point: parse → tile →
    PolyUFC-CM → characterize → search → simulate, for one {!Request.t}.

    Every frontend runs requests through {!execute}: the CLI's inline
    subcommands, the serve daemon's handler, [batch] and the benches.  A
    served [ok] payload is therefore {!to_json} of the same outcome the
    inline [--json] output prints. *)

type outcome =
  | Analysis of Cache_model.Model.result  (** [Analyze] *)
  | Compiled of Flow.compiled  (** [Search] *)
  | Ran of Flow.compiled * Flow.evaluation  (** [Run] *)
  | Fleet of Fleet.result  (** [Analyze_multi] *)

val execute : ctx:Engine.Ctx.t -> Request.t -> outcome
(** Load every program of the request ({!load}), then run its op under
    [ctx]: [Analyze] tiles the program ({!Analysis_cache.tile}, in a
    {!Flow.phase_pluto} span) and analyzes it through
    {!Analysis_cache.analyze_gov}; [Search] and [Run] compile with
    {!Flow.compile} against {!Roofline.for_machine}, and [Run] goes on
    to {!Flow.evaluate}; [Analyze_multi] is {!Fleet.analyze}.  Failures
    raise, for the caller's {!Engine.Guard} boundary to classify. *)

val load : Request.job -> Poly_ir.Ir.t * (string * int) list
(** The program of a job and its parameter bindings (a workload's bundled
    sizes when the job gives none), in the Guard ["parse"] phase.  An
    unknown workload is invalid input: it raises
    [Failure "unknown workload \"NAME\""]. *)

val source_file : string -> Request.program
(** [Source] of a Polylang file's text, read in the Guard ["parse"]
    phase. *)

val to_json : outcome -> Telemetry.Json.t
(** The [--json] document of an outcome. *)

val pp : Format.formatter -> outcome -> unit
(** The text rendering of an outcome. *)
