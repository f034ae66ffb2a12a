(* Thin blocking client for the serve protocol.  Nothing here is clever
   on purpose: one fd, sequential request/response, every failure folded
   into a Transport-kind Protocol.error so frontends have a single error
   path. *)

module J = Telemetry.Json

type t = { fd : Unix.file_descr; mutable next_id : int }

let transport fmt =
  Printf.ksprintf
    (fun message ->
      Error { Protocol.kind = Protocol.Transport; message; scope = None })
    fmt

let ignore_sigpipe () =
  try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
  with Invalid_argument _ | Sys_error _ -> ()

let connect ?(retry_for = 0.0) path =
  ignore_sigpipe ();
  let deadline = Unix.gettimeofday () +. retry_for in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> Ok { fd; next_id = 0 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED) as e, _, _)
      ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Unix.gettimeofday () < deadline then begin
        Unix.sleepf 0.05;
        go ()
      end
      else
        Error
          (Printf.sprintf "cannot connect to %s: %s" path
             (Unix.error_message e))
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" path (Unix.error_message e))
  in
  go ()

let null_fd flags = Unix.openfile "/dev/null" flags 0o644

let spawn_and_connect ?(spawn_args = []) ~exe ~socket () =
  match connect socket with
  | Ok _ as ok -> ok
  | Error _ -> (
    let argv =
      Array.of_list ((exe :: [ "serve"; "--socket"; socket ]) @ spawn_args)
    in
    match
      let devnull_in = null_fd [ Unix.O_RDONLY ] in
      let devnull_out = null_fd [ Unix.O_WRONLY ] in
      let pid =
        Unix.create_process exe argv devnull_in devnull_out devnull_out
      in
      (try Unix.close devnull_in with Unix.Unix_error _ -> ());
      (try Unix.close devnull_out with Unix.Unix_error _ -> ());
      pid
    with
    | _pid -> connect ~retry_for:10.0 socket
    | exception Unix.Unix_error (e, _, _) ->
      Error
        (Printf.sprintf "cannot spawn %s: %s" exe (Unix.error_message e)))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let send t request =
  match Protocol.write_frame t.fd (Protocol.json_of_request request) with
  | () -> Ok ()
  | exception Unix.Unix_error (e, _, _) ->
    transport "cannot send request: %s" (Unix.error_message e)
  | exception Engine.Faultsim.Injected _ -> transport "torn write (injected)"

let recv t =
  match Protocol.read_frame t.fd with
  | Ok doc -> (
    match Protocol.response_of_json doc with
    | Ok r -> Ok r
    | Error msg -> transport "malformed response: %s" msg)
  | Error Protocol.Eof -> transport "daemon closed the connection"
  | Error Protocol.Truncated -> transport "connection truncated mid-frame"
  | Error (Protocol.Oversized n) -> transport "oversized response (%d bytes)" n
  | Error (Protocol.Corrupt msg) -> transport "corrupt stream: %s" msg
  | Error (Protocol.Bad_json msg) -> transport "response is not JSON: %s" msg
  | exception Unix.Unix_error (e, _, _) ->
    transport "cannot read response: %s" (Unix.error_message e)

let request t ?id ?(version = 1) ?(qos = Protocol.default_qos) ~op ~params () =
  let id =
    match id with
    | Some id -> id
    | None ->
      let n = t.next_id in
      t.next_id <- n + 1;
      J.Int n
  in
  match send t { Protocol.id; version; op; params; qos } with
  | Error _ as e -> e
  | Ok () -> (
    match recv t with
    | Error _ as e -> e
    | Ok { Protocol.rid; result } ->
      if rid = id then
        match result with Ok payload -> Ok payload | Error e -> Error e
      else transport "response id mismatch (pipelining on a shared connection?)")

let submit t ?qos (r : Polyufc_core.Request.t) =
  let op =
    match r.op with
    | Polyufc_core.Request.Analyze _ -> Protocol.Analyze
    | Search _ -> Protocol.Search
    | Run _ -> Protocol.Run
    | Analyze_multi _ -> Protocol.Analyze_multi
  in
  request t ~version:(Protocol.op_min_version op) ?qos ~op
    ~params:(Polyufc_core.Request.to_json r) ()
