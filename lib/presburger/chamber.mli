(** Chamber decomposition of parametric counting problems.

    For a basic set over parameters [p ∈ Z^np] and tuple dimensions
    [x ∈ Z^m], the counting function [p ↦ #{x : (p, x) ∈ S}] is
    piecewise quasi-polynomial: the parameter space splits into
    {e validity chambers} — polyhedra on which a single Ehrhart
    quasi-polynomial gives the count.  This module computes such a
    decomposition heuristically:

    - project the set onto the parameters with the Fourier–Motzkin
      tower (the rational shadow of the parameter domain [D]);
    - derive candidate chamber walls as resultants of same-side bound
      pairs of each counting level (where the binding lower/upper bound
      changes, the closed form changes);
    - split [D] along the walls and fit one {!Qpoly} per chamber by
      exact interpolation, validating every fit against the exact
      enumerator ({!Bset.cardinality}) at held-out and boundary points.

    The construction is {e sound by validation}: any shape the
    heuristics cannot certify returns [None] and callers fall back to
    the exact scan, so a successful decomposition is always safe to
    evaluate.  Results are memoized process-wide (shared across daemon
    requests); budget exhaustion raises {e before} the memo is updated,
    so degraded results are never memoized. *)

type chamber = private { guard : Poly.t; count : Qpoly.t }
(** [guard] is a polyhedron over the [np] parameter columns; [count]
    gives the cardinality on parameter points inside it. *)

type t = private { np : int; chambers : chamber list }
(** Chambers are pairwise disjoint and cover the integer projection of
    the set onto its parameters; parameter points outside every guard
    have an empty instance (count 0). *)

val decompose : ?ctx:Engine.Ctx.t -> Bset.t -> t option
(** [decompose b] builds the chamber decomposition of [b], or [None]
    when the set is out of scope (division variables, no parameters,
    unbounded or too-high-dimensional tuples) or a fit cannot be
    validated.  The result is memoized on the canonical constraint
    system; memo hits tick [presburger.chamber_cache_hits], fresh
    builds add to [presburger.chambers_built].  With [ctx]: sampling
    and enumeration are metered against its budget
    ({!Engine.Budget.Exhausted} propagates, nothing is memoized). *)

val eval : t -> int array -> int
(** Count at a concrete parameter point (length [np]).  O(1): one
    guard lookup plus one quasi-polynomial evaluation.  Raises
    {!Linalg.Ints.Overflow} when the exact value overflows. *)

val n_chambers : t -> int

val clear_memo : unit -> unit
(** Drop the process-wide decomposition memo (tests and benchmarks). *)

val pp : Format.formatter -> t -> unit
