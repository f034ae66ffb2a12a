(** The set-associative tag-array core shared by PolyUFC-CM's
    set-associative levels ({!Cache_model.Model}) and the inclusive
    write-back hierarchy of {!Cache}.

    A level is one flat array of [sets × ways] line tags, each set ordered
    most-recently-used first, with optional per-way dirty bits.  Unused
    ways hold the caller's [empty] tag.  Every operation takes the set
    index explicitly: the two callers index sets differently (plain modulo
    for the model, an XOR fold on large simulated LLCs), and both compute
    it without an integer division through {!divisor}.

    The record {!t} is [private] so that a per-access kernel can answer a
    hit on a set's MRU way with a load and a compare: [tags.(set * ways)]
    is always the set's most recently used line (or [empty]), and a hit
    there changes no tag order.  Code outside this module is compiled
    against its interface only (dune's dev profile passes [-opaque]), so
    none of the functions below inlines into a caller; reading the record
    is the one way to skip a call.  Every tag and ordering change stays
    in this module; the one write allowed outside it is setting the MRU
    way's dirty bit after such a hit, which is exactly {!mark_dirty}. *)

(** {1 Division-free indexing} *)

type divisor = private {
  d : int;
  shift : int;  (** [log2 d] when [d] is a power of two, else [-1] *)
  mask : int;  (** [d - 1] when [d] is a power of two *)
  magic : int;
  bits : int;  (** [\[0, 2^bits)] is the reciprocal's exact range *)
}
(** A positive divisor prepared for repeated division: a shift and a mask
    when it is a power of two, otherwise a reciprocal multiply with an
    exact ±1 correction.  For [x >= 0] and [shift >= 0],
    [x lsr shift = x / d] and [x land mask = x mod d]. *)

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

type t = private {
  sets : int;
  ways : int;
  empty : int;
  tags : int array;
      (** [sets × ways], MRU first within a set: [tags.(set * ways)] is
          the set's MRU line *)
  dirty : bool array;  (** parallel to [tags]; [[||]] without dirty bits *)
  mutable vdirty : bool;  (** the last victim's dirty bit *)
}

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
