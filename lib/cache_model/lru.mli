(** Bounded LRU set with O(1) touch — the reuse-distance kernel of
    PolyUFC-CM's [Fully_associative] mode, where one set holds a whole
    level's lines (set-associative mode scans a few ways of a flat tag
    array instead, with the same semantics).

    A set of at most [capacity] integer keys ordered by recency.  [touch]
    reports whether the key was present (reuse distance < capacity) and
    evicts the least-recently-used key on overflow: a line hits iff fewer
    than [capacity] distinct lines intervened since its last use. *)

type t

val create : capacity:int -> t

val touch : t -> int -> bool
(** [touch t key]: [true] if [key] was present (it is refreshed to
    most-recent); [false] if absent (it is inserted, evicting the LRU entry
    when full). *)
