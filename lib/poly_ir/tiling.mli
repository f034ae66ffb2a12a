(** Loop tiling and parallelization — the Pluto substitute.

    Rectangular tiling of the outermost fully-permutable band of each
    top-level loop nest (paper baseline: Pluto v0.11.4, default tile size
    32), with OpenMP-style parallel marking of the outermost tile loop when
    no dependence is carried there.

    Legality is the standard condition: a band of loops may be tiled iff
    every dependence distance is non-negative in each band dimension (full
    permutability).  Bands that fail shrink to their largest permutable
    prefix; a band ends above its first triangular or strided loop; bands
    of length < 2 are left untiled (tiling a single loop has no locality
    benefit).

    Assumption (satisfied by all paper benchmarks): loop lower bounds are
    non-negative, so tile loops may start at 0. *)

type nest_report = {
  nest_root : string;  (** variable of the outermost loop of the nest *)
  band : int;  (** loops actually tiled *)
  parallel : bool;  (** outermost (tile) loop marked parallel *)
  n_deps : int;
}

type report = { tiled : Ir.t; nests : nest_report list }

(** {1 Plan, then apply}

    Tiling splits in two.  {!plan} is the dependence analysis — the
    expensive half, independent of the tile size; {!apply} is a cheap
    rewrite of the program along a plan.  Callers that tile the same
    program repeatedly keep the plan ([Core.Analysis_cache.tile] memoizes
    it per process and persists it as a [tiling/v1] store entry). *)

val version : int
(** Salt of persisted plans: bump it whenever {!plan} may answer
    differently for some program, so stored plans of the old tiler are
    never served.  A test pins a digest of the plans of every bundled
    workload under this version. *)

val default_legality_sizes : int list
(** [[6; 9]]: the sizes at which {!plan} samples dependences by default. *)

val plan : ?legality_sizes:int list -> Ir.t -> nest_report list
(** One report per top-level loop nest, in program order: how many loops
    of its perfect band may be tiled ([0]: none) and whether its
    outermost loop is parallel.  Dependences are tested at each of
    [legality_sizes] for every parameter; a band is tiled only if legal
    at all samples. *)

val apply : tile_size:int -> Ir.t -> nest_report list -> Ir.t
(** Rewrite [prog] along a plan of it: tile each nest's band, mark its
    outer loop parallel, then {!Ir.validate} the result.
    @raise Invalid_argument if the plan does not match the program's
    nests (roots, count or band lengths) or the result is invalid. *)

val tile :
  ?tile_size:int ->
  ?legality_sizes:int list ->
  Ir.t ->
  report
(** [tile prog] is {!plan} followed by {!apply} (default tile size 32). *)

val tile_program : ?tile_size:int -> Ir.t -> Ir.t
(** Convenience: [ (tile prog).tiled ]. *)

val pp_report : Format.formatter -> report -> unit
