(** Resource budgets: wall-clock deadlines, counting fuel, and the
    degradation policy applied when either runs out.

    A budget is shared by every computation of one analysis request.
    Work loops meter themselves through {!spend} (fuel is a global
    [Atomic], so domains racing on the same budget account correctly);
    phase boundaries poll {!check}.  When the budget is exhausted,
    governed computations raise {!Exhausted}; callers that declared a
    degradation policy of {!Interp} catch it and substitute a cheaper
    estimate (recording the result as [Degraded] — see {!Fidelity}).

    Deadlines are absolute wall-clock instants ([Unix.gettimeofday]),
    so a budget created at the top of a request bounds the whole
    request, not each sub-computation separately. *)

type degrade =
  | Off  (** exhaustion is an error: {!Exhausted} propagates to the caller *)
  | Interp
      (** fall back to Ehrhart-style interpolation / footprint estimates *)

type t

exception Exhausted of string
(** Raised by {!spend}/{!check} when the deadline has passed or the fuel
    counter has gone negative.  The payload says which limit tripped. *)

val create : ?deadline_s:float -> ?fuel:int -> ?degrade:degrade -> unit -> t
(** [create ?deadline_s ?fuel ?degrade ()] — [deadline_s] is a relative
    number of seconds from now (the absolute instant is captured here);
    [fuel] is a number of abstract work units (one unit ≈ one scanned
    lattice point, one counted slice, or one simulated cache access).
    Omitted limits are unlimited.  [degrade] defaults to {!Interp}. *)

val of_limits :
  ?deadline_s:float -> ?fuel:int -> degrade:degrade -> unit -> t option
(** [None] when neither limit is set (an unlimited request needs no
    budget), otherwise {!create} of the limits. *)

val degrade : t -> degrade

val spend : t -> int -> unit
(** Consume [n] work units and poll the deadline.  Raises {!Exhausted}
    when either limit trips.  Call in batches (e.g. every 1024 points):
    one atomic add + one clock read per call. *)

val check : t -> unit
(** Poll deadline and fuel without consuming anything. *)

val exhausted : t -> bool
(** [true] iff a deadline/fuel limit has tripped (never raises). *)

val remaining_fuel : t -> int option
(** Fuel left, if fuel-limited ([Some 0] when overdrawn). *)

val remaining_s : t -> float option
(** Seconds until the deadline, if deadline-limited (0. when passed). *)
