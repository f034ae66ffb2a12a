(** POLYUFC-SEARCH (Sec. VI-C): selection of an uncore frequency cap.

    A binary search over the machine's 0.1 GHz cap grid, guided by the
    bottleneck characterization: CB kernels search the lower frequencies to
    harvest energy, BB kernels the higher frequencies to protect
    performance.  Moves are admitted by the ε rule — for CB, [f_c] may
    drop only while the predicted performance loss does not exceed the
    bandwidth-capability loss by more than ε; for BB, [f_c] may rise only
    while the performance gain tracks the bandwidth gain within ε.  The
    search terminates when the frequency stabilizes between iterations or
    the space is exhausted, optimizing EDP by default (energy-only and
    performance-only objectives are also supported). *)

type objective = Edp | Energy | Performance

type outcome = {
  cap_ghz : float;
  chosen : Perfmodel.estimate;
  baseline : Perfmodel.estimate;  (** estimate at the maximum frequency *)
  sweep : Perfmodel.estimate list;
  steps : int;  (** frequencies examined by the binary search *)
  boundedness : Roofline.boundedness;
  fidelity : Engine.Fidelity.t;
      (** fidelity of the profile the search ran on: a cap chosen from a
          degraded OI is itself degraded *)
}

val run :
  ?ctx:Engine.Ctx.t ->
  ?fidelity:Engine.Fidelity.t ->
  ?objective:objective ->
  ?epsilon:float ->
  Roofline.constants ->
  Perfmodel.profile ->
  outcome
(** Default [objective] is [Edp], default [epsilon] is [1e-3] (the paper's
    setting, Sec. VII-E).  With a pool in [ctx], the f_c sweep points are
    evaluated in parallel on the worker pool; the outcome is identical
    to the sequential one (results are re-ordered deterministically).
    [fidelity] (default [Exact]) records the fidelity of the profile being
    searched and is copied into the outcome.  The search itself is
    closed-form and cheap: [ctx] is only consulted for cancellation /
    hard (degrade=off) deadlines at entry. *)

val pp_outcome : Format.formatter -> outcome -> unit
