(** The set-associative tag-array core shared by PolyUFC-CM's
    set-associative levels ({!Cache_model.Model}) and the inclusive
    write-back hierarchy of {!Cache}.

    A level is one flat array of [sets × ways] line tags, each set ordered
    most-recently-used first, with optional per-way dirty bits.  Unused
    ways hold the caller's [empty] tag.  Every operation takes the set
    index explicitly: the two callers index sets differently (plain modulo
    for the model, an XOR fold on large simulated LLCs), and both compute
    it without an integer division through {!divisor}. *)

(** {1 Division-free indexing} *)

type divisor
(** A positive divisor prepared for repeated division: a shift and a mask
    when it is a power of two, otherwise a reciprocal multiply with an
    exact ±1 correction. *)

val divisor : int -> divisor
(** Raises [Invalid_argument] unless the divisor is positive. *)

val div : divisor -> int -> int
(** [div d x = x / d]: OCaml's truncating division, negative [x]
    included. *)

val rem : divisor -> int -> int
(** [rem d x = x mod d]: OCaml's truncated remainder, so negative for a
    negative [x] that [d] does not divide. *)

val fold_index : divisor -> int -> int
(** The simulator's LLC set index: the upper line bits XOR-folded into
    the index, [(x lxor (x / n) lxor (x / (n·n))) mod n], brought into
    [\[0, n)] for negative lines. *)

(** {1 Tag arrays} *)

type t

val create : sets:int -> ways:int -> empty:int -> dirty:bool -> t
(** All ways hold [empty]; [dirty] allocates the dirty bits. *)

val find_promote : t -> set:int -> int -> bool
(** [find_promote t ~set line]: if [line] is in [set], move it to the MRU
    way and return [true]; the set is unchanged otherwise.  A negative
    [set] raises [Invalid_argument "index out of bounds"], as the
    unchecked array access it replaces did. *)

val touch : t -> set:int -> int -> bool
(** Find-and-promote, or on a miss insert [line] at MRU and drop the LRU
    way: [true] on a hit.  Dirty bits are not kept. *)

val mark_dirty : t -> set:int -> unit
(** Set the MRU way's dirty bit (after a hit of {!find_promote}). *)

val insert : t -> set:int -> int -> dirty:bool -> int
(** Insert [line] at MRU with the given dirty bit; return the victim's
    tag (the former LRU way, [empty] if it was unused).  The victim's
    dirty bit is then {!victim_dirty}. *)

val victim_dirty : t -> bool

val invalidate : t -> set:int -> int -> bool
(** Remove [line] from [set], closing the gap; [true] if its copy was
    dirty. *)

val dirty_count : t -> int
(** Number of dirty ways. *)

val reset : t -> unit
