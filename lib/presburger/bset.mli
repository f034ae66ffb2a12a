(** Basic integer sets and relations (single conjunction of constraints).

    A basic set is a conjunction of affine constraints over
    [params @ ins @ outs @ divs].  Division variables are existentially
    quantified; they are introduced by {!add_div} with their defining
    constraints, so projection onto the tuple dimensions is always exact.

    A basic {e map} is a basic set whose space has a non-empty input tuple.
    The same type covers both, as in isl. *)

type t = private { space : Space.t; n_div : int; poly : Poly.t }

type aff = { coefs : (int * int) list; const : int }
(** An affine expression [Σ c·x_i + const]; the [int] pairs are
    [(coefficient, variable index)] in the basic set's variable order
    (params, ins, outs, divs). *)

val universe : Space.t -> t
val of_poly : Space.t -> n_div:int -> Poly.t -> t

val space : t -> Space.t
val n_div : t -> int
val n_total : t -> int
(** All columns: [Space.n_vars space + n_div]. *)

val param_pos : t -> int -> int
val in_pos : t -> int -> int
val out_pos : t -> int -> int
val div_pos : t -> int -> int
(** Column index of the given parameter / input / output / div variable. *)

val add_eq : t -> aff -> t
(** Constrain [aff = 0]. *)

val add_ge : t -> aff -> t
(** Constrain [aff >= 0]. *)

val add_div : t -> num:aff -> den:int -> t * int
(** [add_div t ~num ~den] introduces a fresh existential [q = ⌊num/den⌋]
    (with [den > 0]) and returns its column index. *)

val intersect : t -> t -> t
(** Conjunction; spaces must agree in shape. *)

val fix_params : t -> int array -> t
(** Substitute concrete values for all parameters. *)

val inverse : t -> t
(** Swap input and output tuples of a map. *)

val domain : t -> t
(** Domain of a map, as a set (outputs become existential). *)

val range : t -> t
(** Range of a map, as a set (inputs become existential). *)

val compose : t -> t -> t
(** [compose a b] is [b ∘ a]: [{x -> z : ∃y. (x,y) ∈ a ∧ (y,z) ∈ b}]. *)

val product_domain : t -> t -> t
(** [product_domain a b] for maps [a : X -> Y], [b : X -> Z] is the map
    [X -> (Y,Z)] relating [x] to the concatenation of its images. *)

val deltas : t -> t
(** For a map with equal input/output arity: the set [{ y - x }]. *)

val to_set : t -> t
(** Forget the input tuple of a map by wrapping ins and outs into a single
    set tuple (the "flattened wrap" of isl). *)

val is_empty : t -> bool
val sample : t -> int array option
(** A point over the tuple dimensions (ins then outs), parameters must have
    been fixed. *)

val mem : t -> int array -> bool
(** Membership of a tuple-dimension point (params fixed, divs solved). *)

val lexmin : t -> int array option
val lexmax : t -> int array option
(** Lexicographic extrema of the tuple dimensions (params fixed). *)

val fold_points :
  ?ctx:Engine.Ctx.t -> t -> init:'a -> f:('a -> int array -> 'a) -> 'a
(** Enumerate tuple-dimension points in lexicographic order; params must be
    fixed.  The visited array is reused — copy if retained.  [ctx]'s budget
    and cancellation meter the existential search over divisions
    ({!Poly.fold_points}). *)

val cardinality : ?ctx:Engine.Ctx.t -> t -> int
(** Number of tuple-dimension points (params fixed; divs existential).
    Uses the closed-form counting path of {!Poly.count_points} and a
    process-wide memo keyed by the canonical constraint system, so
    repeated counts of the same polytope are free.  When [ctx] carries
    a pool, large scans are chunked across its workers; the result is
    identical either way.

    With a [ctx] carrying a budget or cancellation token the count is
    governed (see {!Poly.count_points}); exhaustion raises before the
    memo is updated, so the memo only ever holds exact counts. *)

val card : ?ctx:Engine.Ctx.t -> t -> int
(** Alias for {!cardinality}. *)

val clear_count_memo : unit -> unit
(** Drop all memoized cardinalities (mainly for tests and benchmarks). *)

val subtract : t -> t -> t list
(** [subtract a b]: the difference as a disjoint union of basic sets.
    Raises [Invalid_argument] if [b] has division variables (quantifier
    elimination is out of scope, as in the paper's PolyUFC-CM which removes
    redundant reuse polytopes before counting). *)

val gist_trivial : t -> t
(** Cheap cleanup: drop duplicate and trivially-true constraints. *)

val gist : t -> context:t -> t
(** [gist b ~context] drops every constraint of [b] that is implied by
    [context] (isl's gist): the result equals [b] on points of [context].
    Constraints whose negation requires quantifier elimination (i.e. when
    [b] carries division variables referenced by the constraint) are kept
    conservatively. *)

val bounding_box : t -> ((int option * int option) array) 
(** Per tuple dimension, the tightest rational-implied integer bounds
    ([None] = unbounded); parameters must be fixed. *)

val rename_tuples : ?in_name:string -> ?out_name:string -> t -> t

val pp : Format.formatter -> t -> unit
