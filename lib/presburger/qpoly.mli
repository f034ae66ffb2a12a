(** Multivariate quasi-polynomials with periodic coefficients.

    A quasi-polynomial in [np] integer variables is a polynomial whose
    coefficients depend periodically on the variables: for each residue
    class [r] of the variables modulo per-axis periods [p_i], a single
    coefficient tensor applies.  Chamber-decomposed Ehrhart counting
    ({!Chamber}) produces one of these per validity chamber; evaluation
    is O((degree+1)^np) exact rational arithmetic — no scanning.

    Coefficients are exact rationals ({!Linalg.Q}); every evaluation at
    an integer point of the fitting domain yields an integer. *)

type t = private {
  np : int;  (** number of variables *)
  degree : int;  (** per-axis degree bound *)
  periods : int array;  (** per-axis periods, each >= 1; length [np] *)
  tables : Linalg.Q.t array array;
      (** one flat row-major coefficient tensor of size [(degree+1)^np]
          per residue class; class index is mixed-radix over [periods]
          with axis 0 most significant. *)
}

val np : t -> int
val degree : t -> int

val const : np:int -> int -> t
(** The constant quasi-polynomial (degree 0, all periods 1). *)

val eval_q : t -> int array -> Linalg.Q.t
(** Exact value at an integer point (length [np]).  Raises
    {!Linalg.Ints.Overflow} if the exact arithmetic overflows. *)

val eval : t -> int array -> int
(** Integer value at a point; ticks the [presburger.qpoly_evals]
    counter.  Raises [Invalid_argument] if the value is not an integer
    there (a fit bug) and {!Linalg.Ints.Overflow} on overflow. *)

val fit :
  degree:int ->
  periods:int array ->
  anchor:int array ->
  f:(int array -> int) ->
  unit ->
  t option
(** [fit ~degree ~periods ~anchor ~f ()] interpolates [f] on the sample
    grid [class_anchor + periods .* k], [k ∈ {0..degree}^np], one grid
    per residue class ([class_anchor] is the smallest point [>= anchor]
    in the class), then validates the candidate against [f] at held-out
    points beyond the grid (per-axis extensions, a diagonal, and
    deterministic interior probes — these catch an under-estimated
    period, which a Vandermonde fit on the grid alone cannot).  All
    probed points lie within [anchor + extent] per axis (see {!extent}).
    [None] when validation fails; exceptions from [f] propagate. *)

val extent : degree:int -> period:int -> int
(** Upper bound on the per-axis offset from [anchor] of any point
    sampled by {!fit} with these settings.  Callers use it to pick an
    anchor whose sample box lies inside a chamber. *)

val pp : Format.formatter -> t -> unit
