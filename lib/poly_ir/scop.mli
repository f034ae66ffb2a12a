(** Extraction of the polyhedral representation from the loop AST.

    This is the PET / OpenSCoP substitute (step 2 of Fig. 3): every
    statement gets an iteration domain (a {!Presburger.Bset.t}), affine
    access relations, and a "2d+1" schedule that encodes the AST position.
    The paper's cache model and dependence analysis consume this form. *)

open Presburger

type stmt_info = {
  stmt : Ir.stmt;
  iter_vars : string list;  (** enclosing loop variables, outermost first *)
  domain : Bset.t;
      (** set over [iter_vars], parametric in the program parameters *)
  beta : int list;
      (** the "2d+1" schedule constants [c₀; c₁; …; c_d]: [c_k] is the
          statement's sequential position among the items at depth [k] *)
  access_maps : (Ir.access * Bset.t) list;
      (** one map [iteration -> array indices] per access, in
          {!Ir.accesses_of_stmt} order *)
  parallel_flags : bool list;
      (** per enclosing loop: was it marked parallel *)
}

type t = {
  prog : Ir.t;
  stmt_infos : stmt_info list;  (** in program (textual) order *)
}

val extract : Ir.t -> t
(** Raises [Invalid_argument] if the program does not validate. *)

val find_stmt : t -> string -> stmt_info

val common_depth : stmt_info -> stmt_info -> int
(** Number of loops shared by the two statements (length of the common
    prefix of their AST paths, judged by the beta constants). *)

val schedule_map : t -> stmt_info -> Bset.t
(** The 2d+1 schedule as an explicit relation
    [iteration -> time], time dimensions interleaving position constants
    and iteration variables, padded to the program's maximal depth. *)

val flop_count :
  ?ctx:Engine.Ctx.t ->
  t ->
  param_values:(string * int) list ->
  int
(** Total arithmetic operations [Ω = Σ_s ω_s · |D_s|] (Sec. IV-C), counting
    domain cardinalities with the exact (closed-form) counter.  Governed
    by [ctx]'s budget/cancellation (see {!Presburger.Bset.cardinality}). *)

val flop_count_sym :
  ?ctx:Engine.Ctx.t -> t -> Count.quasi_poly option
(** Symbolic flop count for single-parameter programs, via Ehrhart
    interpolation (the barvinok path). [None] if the program has more or
    fewer than one parameter or interpolation fails. *)

val domain_cardinality :
  ?ctx:Engine.Ctx.t ->
  t ->
  stmt_info ->
  param_values:(string * int) list ->
  int
(** Exact iteration count of one statement's domain at concrete parameter
    values.  Backed by the chamber decomposition ({!Presburger.Count.card_at}):
    when the parametric domain admits chambers the answer is an O(1)
    quasi-polynomial evaluation off the process-wide memo; otherwise an
    exact governed scan. *)

val pp_isl : Format.formatter -> t -> unit
(** Dump the SCoP in isl notation (the OpenSCoP-exchange substitute): per
    statement its iteration domain, every access relation tagged R/W, and
    the 2d+1 schedule map.  The output's sets and maps re-parse with
    {!Presburger.Syntax}. *)

val export_isl : t -> string
