(** One analysis request, as every frontend states it.

    The CLI's [analyze], [search], [run] and [analyze-multi] subcommands,
    their [polyufc client] twins, the serve daemon's ops of the same
    names, [batch] and the traffic-replay bench all build a {!t} and hand
    it to {!Pipeline.execute}.  The request defaults and the spellings of
    machines and objectives are stated here, once.  On the wire a request
    is its op name plus the [params] object of {!to_json}. *)

type program =
  | Workload of string  (** a bundled workload, by name *)
  | Source of string  (** Polylang source text *)

type job = {
  program : program;
  sizes : (string * int) list;  (** [[]]: the workload's bundled sizes *)
}

type tenant = {
  name : string;
  job : job;
  weight : float;  (** QoS weight fed to the cap arbiter, > 0 *)
  cores : int;  (** cores granted; 0 = equal share *)
}

type op =
  | Analyze of job  (** PolyUFC-CM cache analysis of the tiled program *)
  | Search of job  (** the full compilation flow with its cap search *)
  | Run of job  (** compile, then simulate capped vs. the UFS baseline *)
  | Analyze_multi of { tenants : tenant list; solo : bool }
      (** compile each tenant, arbitrate one cap, co-simulate *)

type t = {
  op : op;
  machine : Hwsim.Machine.t;  (** {!Hwsim.Machine.bdw} or [rpl] *)
  tile_size : int;
  epsilon : float;  (** search threshold; [Analyze] ignores it *)
  objective : Search.objective;  (** [Analyze] ignores it *)
}

(** The defaults: BDW, tile size 32, [epsilon = 1e-3] (the paper's
    setting, Sec. VII-E) and [Edp]. *)
val default_machine : Hwsim.Machine.t
val default_tile_size : int
val default_epsilon : float
val default_objective : Search.objective

val make :
  ?machine:Hwsim.Machine.t ->
  ?tile_size:int ->
  ?epsilon:float ->
  ?objective:Search.objective ->
  op ->
  t
(** The defaults above for every knob not given. *)

val machine_of_string : string -> (Hwsim.Machine.t, string) result
(** [bdw]/[BDW] or [rpl]/[RPL]. *)

val objectives : (string * Search.objective) list
(** [edp], [energy] and [performance], in that order. *)

val op_name : op -> string
(** The wire name: [analyze], [search], [run] or [analyze_multi]. *)

val of_json : op:string -> Telemetry.Json.t -> (t, string) result
(** Decode the [params] object of a request for the op named [op]; a
    malformed object is [Error "params.… must be …"].  Only the shape is
    checked: whether a workload exists or a source parses is the
    pipeline's business. *)

val to_json : t -> Telemetry.Json.t
(** The [params] object: [of_json ~op:(op_name r.op) (to_json r) = Ok r]
    for every BDW or RPL request, except that an [Analyze] request does
    not carry [epsilon] and [objective] and decodes with the defaults. *)
