(** Joint core + uncore frequency selection — the core-DVFS extension.

    The paper leaves the core domain to the hardware P-state driver but
    notes that "PolyUFC remains adaptable and can be used to manage the
    core frequency domain" (Sec. VII-F).  This module realizes that
    extension: for each candidate core frequency the machine description is
    retuned ({!Hwsim.Machine.with_core_ghz}), the rooflines are refit
    (one micro-benchmark campaign per retuned machine, through
    {!Roofline.for_machine} — exactly the retargetability story of
    Sec. I), the flow recompiled, and the
    (core, uncore-cap) pair with the best model objective selected.

    The expected physics: CB kernels keep the core high (compute is the
    bottleneck) while capping the uncore low; BB kernels can often lower
    the {e core} too — compute finishes early against the memory wall
    anyway — compounding the uncore savings. *)

type point = {
  core_ghz : float;
  rooflines : Roofline.constants;
  compiled : Flow.compiled;
  est_edp : float;  (** model EDP of the whole program at the chosen caps *)
  est_time_s : float;
  est_energy_j : float;
}

type t = {
  best : point;
  points : point list;  (** one per candidate core frequency, ascending *)
}

val search :
  ?objective:Search.objective ->
  ?epsilon:float ->
  ?core_freqs:float list ->
  machine:Hwsim.Machine.t ->
  Poly_ir.Ir.t ->
  param_values:(string * int) list ->
  t
(** [core_freqs] defaults to {2/3, 5/6, 1, 7/6} × the machine's base core
    clock.  The input program should already be Pluto-optimized (the flow
    is invoked with [tile:false]). *)

val evaluate_best :
  t -> param_values:(string * int) list -> Flow.evaluation
(** Simulate the best point's capped binary against the UFS baseline on
    its retuned machine. *)

val pp : Format.formatter -> t -> unit
