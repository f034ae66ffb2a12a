(** Finite unions of basic sets / basic maps.

    This is the user-facing level, mirroring isl's [isl_set] / [isl_map]:
    most operations distribute over the disjuncts.  Disjuncts are not kept
    disjoint in general; operations that require disjointness
    (exact counting) disjointify on the fly when possible. *)

type t = private { space : Space.t; disjuncts : Bset.t list }

val of_bset : Bset.t -> t
val of_bsets : Space.t -> Bset.t list -> t
val universe : Space.t -> t
val empty : Space.t -> t
val space : t -> Space.t
val disjuncts : t -> Bset.t list
val n_disjuncts : t -> int

val union : t -> t -> t
val intersect : t -> t -> t
val subtract : t -> t -> t
(** Set difference.  Raises [Invalid_argument] if the subtrahend carries
    division variables (see {!Bset.subtract}). *)

val compose : t -> t -> t
(** [compose a b] = [b ∘ a] pointwise over disjuncts. *)

val inverse : t -> t
val domain : t -> t
val range : t -> t
val deltas : t -> t
val product_domain : t -> t -> t
val to_set : t -> t
val fix_params : t -> int array -> t

val lex_lt : int -> t
(** [lex_lt n]: the map [{ [x] -> [y] : x ≺ y }] on n-tuples, as a union of
    [n] basic maps. *)

val lex_le : int -> t
(** [lex_le n]: [{ [x] -> [y] : x ⪯ y }]. *)

val is_empty : t -> bool
val sample : t -> int array option
val mem : t -> int array -> bool

val is_subset : t -> t -> bool
(** [is_subset a b]; requires [b] free of division variables. *)

val is_equal : t -> t -> bool
(** Mutual inclusion; both sides must be free of division variables. *)

val lexmin_point : t -> int array option
(** Lexicographically smallest tuple point across all disjuncts
    (params must be fixed). *)

val lexmax_point : t -> int array option

val coalesce : t -> t
(** Merge pairs of quantifier-free disjuncts whose union is itself a basic
    set (isl's coalesce): e.g. [{[i]: 0<=i<5} ∪ {[i]: 5<=i<10}] becomes
    [{[i]: 0<=i<10}].  Disjuncts with division variables are left alone. *)

val cardinality : ?ctx:Engine.Ctx.t -> t -> int
(** Exact number of distinct tuple points (params fixed).  Works with
    overlapping disjuncts: small div-free unions are disjointified by
    subtraction and counted through the closed-form path; anything else is
    enumerated with deduplication.  Governed by [ctx]'s budget and
    cancellation token (see {!Bset.cardinality}). *)

val card : ?ctx:Engine.Ctx.t -> t -> int
(** Alias for {!cardinality}. *)

val fold_points :
  ?ctx:Engine.Ctx.t -> t -> init:'a -> f:('a -> int array -> 'a) -> 'a
(** Fold over distinct points of the union, in lexicographic order when
    there is a single disjunct (unordered otherwise); metered as
    {!Bset.fold_points}. *)

val pp : Format.formatter -> t -> unit
