(** The unified resource context threaded through the analysis pipeline.

    [Ctx.t] bundles the four concerns every governed entry point used to
    take (or not take) as separate optional arguments:

    - [pool]: worker pool for parallel fan-out ({!Pool});
    - [cache]: persistent result cache ({!Rcache});
    - [budget]: deadline / fuel / degradation policy ({!Budget});
    - [cancel]: cooperative cancellation token ({!Cancel}).

    Entry points take a single [?ctx:Ctx.t]; it is the only way to hand
    them a pool, a cache, a budget or a token (see DESIGN.md, "[Ctx] is
    the only spelling").  Passing no context (or {!none}) gives the
    ungoverned, sequential, uncached behaviour. *)

type t = {
  pool : Pool.t option;
  cache : Rcache.t option;
  budget : Budget.t option;
  cancel : Cancel.t option;
}

val none : t
(** No pool, no cache, no budget, no cancellation: the default. *)

val create :
  ?pool:Pool.t -> ?cache:Rcache.t -> ?budget:Budget.t -> ?cancel:Cancel.t ->
  unit -> t

val pool : t -> Pool.t option
val cache : t -> Rcache.t option
val budget : t -> Budget.t option
val cancel : t -> Cancel.t option

val check : t -> unit
(** Hard checkpoint: raises {!Cancel.Cancelled} if cancelled, then
    {!Budget.Exhausted} if the budget is spent.  Use inside governed
    computations that have a degradation fallback upstream. *)

val checkpoint : t -> unit
(** Soft phase-boundary checkpoint: cancellation always raises; budget
    exhaustion raises only under [degrade = Off].  Under [Interp] an
    expired budget must not abort the pipeline between phases — the
    remaining phases run degraded instead (bounded, closed-form work). *)

val spend : t -> int -> unit
(** Meter [n] work units: cancellation check + {!Budget.spend}. *)

val degrade_allowed : t -> bool
(** [true] iff there is a budget whose policy is [Interp]. *)

val without_pool : t -> t
(** The same context with parallel fan-out disabled.  Self-healing
    fallbacks use this to re-run a computation inline after a pooled
    attempt lost jobs to {!Pool.Worker_failure}. *)

(** {1 QoS clamping}

    Serving frontends let clients request their own resource budget
    (deadline / fuel) per request, bounded by server-side maxima: a
    client may always ask for {e less} than the server allows, never
    more.  [None] on the request side means "unlimited", which a
    [Some]-limit clamps down to the limit itself. *)

val clamp_deadline : ?limit:float -> float option -> float option
(** [clamp_deadline ?limit requested] is [requested] bounded above by
    [limit].  No limit: the request passes through unchanged. *)

val clamp_fuel : ?limit:int -> int option -> int option
(** Same clamping rule for the work-unit budget. *)
