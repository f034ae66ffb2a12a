(** Trace-driven, inclusive, multi-level, set-associative cache simulator.

    Each level is set-associative with true LRU replacement, one
    {!Setassoc} tag array per level.  The hierarchy
    is inclusive: a fill at level [i] also fills all deeper levels; an
    eviction from a deeper level back-invalidates shallower ones.  Writes
    are write-allocate and write-back (dirty lines produce DRAM traffic on
    eviction) — this is the "real hardware" reference against which the
    paper-faithful write-through analytical model (PolyUFC-CM) is
    validated. *)

type level_stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable writebacks : int;  (** dirty evictions leaving this level *)
}

type t

type outcome = {
  hit_level : int;
      (** 0-based level that served the access; [n_levels] means DRAM *)
  dram_fill : bool;  (** a line was brought from DRAM *)
  dram_writeback : bool;  (** a dirty line was written back to DRAM *)
}

val create : Machine.cache_geometry list -> t
val n_levels : t -> int
val access : t -> addr:int -> is_write:bool -> outcome

val access_code : t -> addr:int -> is_write:bool -> int
(** {!access} without the record: [hit_level lsl 1 lor dram_writeback]. *)

val stats : t -> level_stats array
val dram_reads : t -> int
val dram_writebacks : t -> int
val reset : t -> unit
val flush_writebacks : t -> int
(** Number of dirty lines still resident (would be written back at program
    end); does not change state. *)
