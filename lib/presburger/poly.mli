(** Raw constraint systems over integer variables.

    A value of type {!t} represents the integer points [x ∈ Zⁿ] satisfying a
    conjunction of affine constraints [coef·x + const {=, >=} 0].  This is
    the computational core under {!Bset}: Fourier–Motzkin elimination,
    feasibility, lexicographic scanning, sampling, and lexmin/lexmax by
    branch and bound.

    Variables are identified by position [0 .. nvar-1]; the enclosing layer
    fixes their meaning (parameters first, then tuple dimensions, then
    existential division variables). *)

type cstr = { coef : int array; const : int; eq : bool }
(** [coef·x + const >= 0], or [= 0] when [eq]. [Array.length coef = nvar]. *)

type t = private { nvar : int; cstrs : cstr list }

exception Infeasible
(** Raised internally when constraint normalization proves emptiness. *)

exception Unbounded
(** Raised by scanning operations when a variable has no finite bound. *)

val make : int -> cstr list -> t
(** [make nvar cstrs] normalizes each constraint (gcd reduction with integer
    tightening of inequalities).  A constraint proving emptiness is kept in
    an always-false canonical form rather than raising. *)

val universe : int -> t
val nvar : t -> int
val constraints : t -> cstr list
val ge : int array -> int -> cstr
(** [ge coef const] is the inequality [coef·x + const >= 0]. *)

val eq : int array -> int -> cstr
(** [eq coef const] is the equality [coef·x + const = 0]. *)

val add_constraints : t -> cstr list -> t
val append : t -> t -> t
(** Conjunction of two systems over the same variables. *)

val mem : t -> int array -> bool
(** Point membership. *)

val insert_vars : t -> at:int -> count:int -> t
(** Insert [count] fresh unconstrained variables at position [at],
    shifting existing columns. *)

val remap : t -> int -> (int -> int) -> t
(** [remap t nvar' perm] rebuilds the system over [nvar'] variables where the
    old variable [i] becomes the new variable [perm i]. [perm] must be
    injective. *)

val fix_vars : t -> (int -> int option) -> t
(** [fix_vars t value] substitutes the constant [v] for every variable [i]
    with [value i = Some v] and drops those columns; the remaining variables
    keep their relative order. *)

val eliminate_var : t -> int -> t
(** Fourier–Motzkin elimination of one variable (the column remains but is
    unconstrained).  Exact over the rationals; a superset over the
    integers. *)

val eliminate_from : t -> int -> t
(** [eliminate_from t k] eliminates all variables with index [>= k]. *)

val rational_feasible : t -> bool
(** Sound emptiness check over the rationals: [false] means definitely
    empty; [true] means rationally feasible (integers may still be empty). *)

val remove_redundant : t -> t
(** Constraint-system minimization: merges opposite parallel inequalities
    (into an equality when they pin the affine form), then drops every
    inequality [c] such that [rest ∧ ¬c] is rationally infeasible over the
    integers ([¬c] being [coef·x + const <= -1]).  The integer point set is
    unchanged; rationally empty systems are returned untouched. *)

val fold_points :
  ?budget:Engine.Budget.t ->
  ?cancel:Engine.Cancel.t ->
  ?n_scan:int ->
  t ->
  init:'a ->
  f:('a -> int array -> 'a) ->
  'a
(** Fold over integer points in lexicographic order of variables
    [0 .. n_scan-1] (default all).  When [n_scan < nvar], the remaining
    variables are treated existentially: each scanned prefix is visited at
    most once, if some completion satisfies the system.  The array passed to
    [f] has length [n_scan] and is reused between calls — copy it if
    retained.  Raises {!Unbounded} if a scanned variable has no finite
    bounds.  With [budget]/[cancel], the existential search meters one
    work unit per candidate value, as in {!count_points}. *)

val iter_points : ?n_scan:int -> t -> f:(int array -> unit) -> unit

val count_points :
  ?pool:Engine.Pool.t ->
  ?budget:Engine.Budget.t ->
  ?cancel:Engine.Cancel.t ->
  ?n_scan:int ->
  t ->
  int
(** Number of points (of scanned-prefix projections when [n_scan] is
    given).  Unlike {!fold_points} this does not enumerate every point:
    after constraint minimization ({!remove_redundant}) it detects scan
    levels whose deeper bounds are decoupled from them and multiplies
    closed-form interval lengths instead of iterating (a box costs O(1),
    a triangular domain O(N)).  The result — including {!Unbounded}
    behavior — is identical to [count_points_naive].  When [pool] is given
    the outermost scanned dimension is chunked across its workers.

    Resource governance: with [budget]/[cancel], the slice loops meter
    one work unit per scanned point or counted slice, and the existential
    search over the columns past [n_scan] one per candidate value (polled
    in batches of 1024), and raise {!Engine.Budget.Exhausted} /
    {!Engine.Cancel.Cancelled} — the count is then abandoned; callers
    with a degradation policy substitute an estimate
    ({!Count.card_gov}). *)

val count_points_naive : ?n_scan:int -> t -> int
(** Reference implementation: enumerate with {!fold_points} and count.
    Kept as the differential-testing and benchmarking baseline. *)

val is_empty : t -> bool
(** Exact integer emptiness (rational pre-check, then bounded search). *)

val sample : t -> int array option
(** Some integer point of the system, or [None]. *)

val lexmin : ?n_scan:int -> t -> int array option
(** Lexicographically smallest point of the projection onto the first
    [n_scan] variables (default all, treating none existentially). *)

val lexmax : ?n_scan:int -> t -> int array option

val var_bounds : t -> int -> (int option * int option)
(** [var_bounds t v] is [(lo, hi)]: the tightest integer bounds on variable
    [v] implied over the rationals after eliminating every other variable.
    [None] means unbounded in that direction. *)

val pp : Format.formatter -> t -> unit

val convex_hull : t -> t -> t
(** Closed convex hull of the union of the two systems (same [nvar]),
    over the rationals: every point of either argument satisfies the
    result, which is the tightest such polyhedron up to integer gcd
    tightening.  Computed by Fourier–Motzkin elimination of the
    Benoy–King lifted system (no vertex enumeration); the result is
    passed through {!remove_redundant}.  A rationally empty argument is
    absorbed ([convex_hull a empty = a]). *)
