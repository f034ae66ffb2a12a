(** Fleet-level (multi-tenant) analysis: compile each tenant program
    solo, ask {!Hwsim.Cap_arbiter} for the one shared uncore cap that
    satisfies every tenant's memory-bound demand, then co-simulate the
    tenant set under that cap with {!Hwsim.Sim.simulate}.

    The CLI's [analyze-multi], the serve daemon's [analyze_multi] op
    and the traffic-replay bench all build an [Analyze_multi]
    {!Request.t}, which {!Pipeline.execute} answers with {!analyze}, so
    the three surfaces report identical numbers and the same roofline
    scatter rows ({!Report.scatter_row}). *)

type spec = {
  sp_name : string;
  sp_prog : Poly_ir.Ir.t;
  sp_sizes : (string * int) list;  (** parameter bindings for this tenant *)
  sp_weight : float;  (** QoS weight fed to the arbiter *)
  sp_cores : int;  (** cores granted; 0 = equal share *)
}

val spec :
  ?sizes:(string * int) list ->
  ?weight:float ->
  ?cores:int ->
  name:string ->
  Poly_ir.Ir.t ->
  spec
(** Smart constructor; raises [Invalid_argument] on a non-positive
    weight or negative core count. *)

type tenant_report = {
  tr_spec : spec;
  tr_compiled : Flow.compiled;  (** the tenant's solo compile *)
  tr_demand : Hwsim.Cap_arbiter.demand;  (** what it asked the arbiter for *)
  tr_outcome : Hwsim.Sim.tenant_outcome;  (** what it got co-scheduled *)
  tr_scatter : Report.scatter_row;  (** its point on the shared roofline *)
}

type result = {
  machine : Hwsim.Machine.t;
  decision : Hwsim.Cap_arbiter.decision;
  sim : Hwsim.Sim.multi_outcome;
  tenants : tenant_report list;  (** in spec order *)
}

val analyze :
  ?ctx:Engine.Ctx.t ->
  ?objective:Search.objective ->
  ?epsilon:float ->
  ?tile_size:int ->
  ?solo:bool ->
  machine:Hwsim.Machine.t ->
  rooflines:Roofline.constants ->
  spec list ->
  result
(** Compile-arbitrate-cosimulate.  [solo] (default [true]) additionally
    runs each tenant alone to report slowdowns; raises
    [Invalid_argument] on an empty spec list.  Compile errors
    ({!Poly_ir} validation, budget exhaustion with [Off]) propagate
    from {!Flow.compile} unchanged. *)

val scatter_of_result : result -> Report.scatter_row list
val json_of_result : result -> Telemetry.Json.t
val pp_result : Format.formatter -> result -> unit
