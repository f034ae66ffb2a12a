(** Client side of the serve protocol: connect (optionally spawning a
    daemon first), send one request, match its response.

    All failures are values: transport problems surface as a
    {!Protocol.error} of kind [Transport] so a CLI frontend has one
    error path and one exit-code mapping
    ({!Protocol.exit_code_of_kind}). *)

type t

val connect : ?retry_for:float -> string -> (t, string) result
(** Connect to a daemon's socket.  [retry_for] (seconds, default 0)
    keeps retrying on [ENOENT]/[ECONNREFUSED] — the daemon may still be
    binding its socket.  Ignores [SIGPIPE] process-wide. *)

val spawn_and_connect :
  ?spawn_args:string list -> exe:string -> socket:string -> unit -> (t, string) result
(** Try {!connect}; when no daemon answers, start one
    ([exe serve --socket=SOCKET spawn_args], stdio on [/dev/null],
    left running when this process exits) and retry-connect for up to
    10 seconds. *)

val close : t -> unit

val request :
  t ->
  ?id:Telemetry.Json.t ->
  ?version:int ->
  ?qos:Protocol.qos ->
  op:Protocol.op ->
  params:Telemetry.Json.t ->
  unit ->
  (Telemetry.Json.t, Protocol.error) result
(** Send one request and block for the response with a matching [id]
    (an auto-incremented integer when [?id] is omitted).  [version]
    defaults to [1] — the pre-versioning wire format; pass
    [~version:2] for v2-only ops like [Analyze_multi].  Responses to
    other ids — possible when callers pipeline on a shared connection —
    are not expected here and produce a [Transport] error. *)

val submit :
  t ->
  ?qos:Protocol.qos ->
  Polyufc_core.Request.t ->
  (Telemetry.Json.t, Protocol.error) result
(** {!request} of an analysis request, at its op's minimum version. *)

val send : t -> Protocol.request -> (unit, Protocol.error) result
(** Fire a raw request without waiting — for pipelining tests. *)

val recv : t -> (Protocol.response, Protocol.error) result
(** Read the next response frame. *)
