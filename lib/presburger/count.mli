(** Symbolic counting of parametric integer sets — the barvinok substitute.

    For an affine set parametric in one size parameter [n], the number of
    integer points is an {e Ehrhart quasi-polynomial}: a polynomial in [n]
    whose coefficients depend periodically on [n mod p] for some period [p].
    We recover it by counting concrete instances at sampled parameter values
    (using the exact enumerator of {!Bset}) and interpolating with exact
    rational arithmetic, validating the fit on held-out samples. *)

type quasi_poly = private {
  period : int;
  polys : Linalg.Q.t array array;
      (** [polys.(r)] are the coefficients (low degree first) applying when
          [n mod period = r]. *)
}

exception Overflow of string
(** Raised by {!eval} when the exact value does not fit a native [int]. *)

val eval : quasi_poly -> int -> int
(** Value at a concrete parameter; raises [Invalid_argument] if the
    quasi-polynomial yields a non-integer there (a fit bug) and
    {!Overflow} when the exact value overflows a native [int]. *)

val degree : quasi_poly -> int

val pp : Format.formatter -> quasi_poly -> unit

val interpolate :
  ?ctx:Engine.Ctx.t ->
  ?max_degree:int ->
  ?max_period:int ->
  ?base:int ->
  count:(int -> int) ->
  unit ->
  quasi_poly option
(** [interpolate ~count ()] samples [count n] at parameter values
    [base, base+1, ...] and returns the smallest-degree, smallest-period
    quasi-polynomial consistent with all samples (degrees up to
    [max_degree], default 6; periods up to [max_period], default 8; [base]
    default 4).  Each candidate is validated on extra held-out samples.
    [None] if nothing fits.  When [ctx] carries a pool, the
    not-yet-memoized samples of each candidate are counted in parallel
    ([count] must then be safe to call from several domains); the result
    is unchanged.  [ctx]'s cancellation and
    budget are polled between candidate fits. *)

val card_poly :
  ?ctx:Engine.Ctx.t ->
  ?max_degree:int ->
  ?max_period:int ->
  ?base:int ->
  (int -> Bset.t) ->
  quasi_poly option
(** [card_poly instance] interpolates the cardinality of the family
    [instance n] (each instance must have its parameters already fixed). *)

val card_estimate : ?ctx:Engine.Ctx.t -> Bset.t -> int
(** Cheap cardinality estimate of a ground basic set, for use after an
    exact count exhausted its budget: counts two shrunken copies
    ((1/r)·P and (1/2r)·P, each within a fixed ≈50k-point cap under a
    fresh fuel-only budget) and extrapolates the two leading Ehrhart
    terms to the full dilation — relative error O(1/r), see DESIGN.md.
    Sets with division variables or equality constraints (whose lattice
    structure does not survive scaling) fall back to the bounding-box
    product, an upper estimate.  The caller's deadline is deliberately
    ignored — only its cancellation token is honored — so a just-expired
    deadline still yields a number after a bounded amount of work.
    Raises {!Poly.Unbounded} when the set has no finite bounding box. *)

val card_gov : ?ctx:Engine.Ctx.t -> Bset.t -> int * Engine.Fidelity.t
(** Governed cardinality: exact {!Bset.cardinality} under [ctx]; when the
    budget runs out and its policy allows degradation, retry once under a
    small fresh fuel-only budget (small sets stay exact even after the
    deadline) and otherwise fall back to {!card_estimate}, recording the
    degradation ({!Engine.Fidelity.note_degraded}).  With [degrade = Off]
    the {!Engine.Budget.Exhausted} exception propagates. *)

(** {1 Chamber-decomposed parametric counting}

    The scan-free path: decompose the parameter space into validity
    chambers once ({!Chamber}), then answer every concrete query by a
    quasi-polynomial evaluation.  See DESIGN.md, "Counting engine". *)

val card_param : ?ctx:Engine.Ctx.t -> Bset.t -> Chamber.t option
(** Chamber decomposition of a parametric basic set; [None] when the
    set is out of scope of the chamber engine (the caller should scan).
    Memoized process-wide.  Budget exhaustion propagates
    ({!Engine.Budget.Exhausted}) before anything is memoized. *)

val card_at : ?ctx:Engine.Ctx.t -> Bset.t -> int array -> int
(** [card_at b values] is the cardinality of [b] at the given parameter
    values (length = number of parameters).  Evaluates the chamber
    decomposition in O(1) when one exists; falls back to the exact
    ground count of {!Bset.cardinality} otherwise (including when the
    budget expired mid-decomposition — the fallback's own metering
    re-raises if the budget really is spent).  Raises {!Overflow} when
    the exact value does not fit a native [int]. *)

val card_pset_at :
  ?ctx:Engine.Ctx.t -> Pset.t -> int array -> int
(** Parametric cardinality of a disjoint union: chamber path for a
    single disjunct, ground {!Pset.cardinality} otherwise. *)
