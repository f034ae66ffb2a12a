(** Request execution for the serve daemon.

    A {!shared} value holds the state that makes a long-lived daemon
    worth running: the worker {!Engine.Pool} and the {!Engine.Rcache}
    handle — plus the server-side QoS ceilings that clamp each request's
    envelope.  Roofline constants come from {!Roofline.for_machine}'s
    process-wide memo.

    {!execute} runs one request to a complete {!Protocol.response}: it
    builds the per-request {!Engine.Ctx} from the clamped QoS, runs the
    same pipeline the CLI subcommand runs (so [ok] payloads are
    byte-identical to [--json] output), and converts any failure into a
    structured protocol error through {!Engine.Guard.protect} — a
    request can fail, the daemon cannot. *)

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
