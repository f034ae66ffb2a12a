(** Request execution for the serve daemon.

    A {!shared} value holds the state that makes a long-lived daemon
    worth running: the worker {!Engine.Pool} and the {!Engine.Rcache}
    handle — plus the server-side QoS ceilings that clamp each request's
    envelope.  Roofline constants come from {!Roofline.for_machine}'s
    process-wide memo.

    {!execute} runs one request to a complete {!Protocol.response}: an
    analysis op decodes its params with {!Polyufc_core.Request.of_json},
    builds the per-request {!Engine.Ctx} from the clamped QoS and runs
    {!Polyufc_core.Pipeline.execute}, as the CLI subcommand does (so
    [ok] payloads are byte-identical to [--json] output).  Any failure
    becomes a structured protocol error through {!Engine.Guard.protect}
    — a request can fail, the daemon cannot. *)

type shared

val create :
  ?pool:Engine.Pool.t ->
  ?cache:Engine.Rcache.t ->
  ?max_deadline_s:float ->
  ?max_fuel:int ->
  unit ->
  shared

val execute : shared -> Protocol.request -> Protocol.response
(** Never raises. *)

val cache : shared -> Engine.Rcache.t option
(** The daemon's result-store handle (for the server's drain-time GC). *)
