(* Shared fixtures: the roofline campaign is deterministic and takes
   seconds, so the suite characterizes each machine once, through
   [Roofline.for_machine]'s process-wide memo. *)

let bdw_rooflines =
  lazy (Roofline.for_machine ~ctx:Engine.Ctx.none Hwsim.Machine.bdw)

let rpl_rooflines =
  lazy (Roofline.for_machine ~ctx:Engine.Ctx.none Hwsim.Machine.rpl)
