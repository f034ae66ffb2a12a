(* One request, one response (see handler.mli).  Besides the pipeline,
   the daemon keeps warm what [shared] holds — the domain pool and the
   result-store handle — and three process-wide memos: the roofline
   constants of {!Roofline.for_machine}; the tiling plans of
   {!Polyufc_core.Analysis_cache.tile}, so a repeated program is tiled
   in a digest and a table probe; and the chamber decompositions of
   {!Presburger.Chamber}, which an analysis that misses the store
   computes per statement domain, so later requests for the same program
   shape at any parameter value evaluate closed forms. *)

module J = Telemetry.Json
open Polyufc_core

type shared = {
  pool : Engine.Pool.t option;
  cache : Engine.Rcache.t option;
  max_deadline_s : float option;
  max_fuel : int option;
  scatter_mu : Mutex.t;
  mutable scatter : Report.scatter_row list;
      (* newest first, bounded at [scatter_cap]: the daemon's rolling
         roofline scatter, served by a v2 stats request *)
}

let scatter_cap = 256

let create ?pool ?cache ?max_deadline_s ?max_fuel () =
  {
    pool;
    cache;
    max_deadline_s;
    max_fuel;
    scatter_mu = Mutex.create ();
    scatter = [];
  }

let cache shared = shared.cache

let record_scatter shared rows =
  Mutex.protect shared.scatter_mu @@ fun () ->
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  shared.scatter <- take scatter_cap (List.rev_append rows shared.scatter)

(* oldest first, the order the requests arrived in *)
let scatter_rows shared =
  Mutex.protect shared.scatter_mu @@ fun () -> List.rev shared.scatter

let ctx_of shared (qos : Protocol.qos) =
  let deadline_s =
    Engine.Ctx.clamp_deadline ?limit:shared.max_deadline_s qos.deadline_s
  in
  let fuel = Engine.Ctx.clamp_fuel ?limit:shared.max_fuel qos.fuel in
  let budget =
    Engine.Budget.of_limits ?deadline_s ?fuel ~degrade:qos.degrade ()
  in
  Engine.Ctx.create ?pool:shared.pool ?cache:shared.cache ?budget ()

let analysis shared (r : Protocol.request) =
  match Request.of_json ~op:(Protocol.op_name r.op) r.params with
  | Error _ as e -> e
  | Ok req ->
    let outcome = Pipeline.execute ~ctx:(ctx_of shared r.qos) req in
    (match outcome with
    | Pipeline.Fleet result ->
      record_scatter shared (Fleet.scatter_of_result result)
    | _ -> ());
    Ok (Pipeline.to_json outcome)

(* the daemon's view of its result store, for a v2 stats response: tier
   occupancy from the index and the memory tier — no entry scan *)
let cache_json shared =
  match shared.cache with
  | None -> J.Null
  | Some c ->
    let module R = Engine.Rcache in
    let s = R.stats c in
    let m = R.mem_stats c in
    let k = R.counts_for c in
    J.Obj
      [
        ("dir", J.Str (R.dir c));
        ( "upstream",
          match R.upstream c with Some u -> J.Str u | None -> J.Null );
        ("read_only", J.Bool (R.read_only c));
        ("entries", J.Int s.R.entries);
        ("bytes", J.Int s.R.bytes);
        ("mem_entries", J.Int m.R.entries);
        ("mem_bytes", J.Int m.R.bytes);
        ("hits", J.Int k.R.hits);
        ("misses", J.Int k.R.misses);
        ("mem_hits", J.Int k.R.mem_hits);
        ("disk_hits", J.Int k.R.disk_hits);
        ("upstream_hits", J.Int k.R.upstream_hits);
        ("promotions", J.Int k.R.promotions);
        ("evictions", J.Int k.R.evictions);
        ("gc_runs", J.Int k.R.gc_runs);
      ]

(* a v1 stats response is exactly the telemetry document (old scrapers
   parse it byte-for-byte); v2 appends the daemon's rolling scatter and
   its result-store tier occupancy *)
let stats shared ~version =
  let doc = Telemetry.stats_json () in
  if version < 2 then doc
  else
    match doc with
    | J.Obj fields ->
      J.Obj
        (fields
        @ [
            ("scatter", Report.json_of_scatter (scatter_rows shared));
            ("cache", cache_json shared);
          ])
    | doc -> doc

let ping ~version params =
  (* delay_s: a testing aid for deterministic overload/backpressure
     tests — a request whose execution time the test controls exactly *)
  match J.member "delay_s" params with
  | Some v when J.number v = None -> Error "params.delay_s must be a number"
  | v ->
    let delay = Option.value (Option.bind v J.number) ~default:0.0 in
    let delay = Float.max 0.0 (Float.min 30.0 delay) in
    if delay > 0.0 then Unix.sleepf delay;
    (* [protocol] echoes the *negotiated* version: a v1 ping answer is
       byte-identical to what pre-versioning daemons sent.  v2 pings also
       learn the daemon's ceiling and its executable ops. *)
    Ok
      (J.Obj
         ([
            ("pong", J.Bool true);
            ("protocol", J.Int version);
            ("pid", J.Int (Unix.getpid ()));
          ]
         @
         if version >= 2 then
           [
             ("max_protocol", J.Int Protocol.protocol_version);
             ( "capabilities",
               J.Arr (List.map (fun c -> J.Str c) Protocol.capabilities) );
           ]
         else []))

let error_of_diagnostic (d : Engine.Guard.diagnostic) : Protocol.error =
  let kind : Protocol.error_kind =
    if d.code = Engine.Guard.exit_usage then Bad_request
    else if d.code = Engine.Guard.exit_invalid_input then Invalid_input
    else if d.code = Engine.Guard.exit_exhausted then Exhausted
    else if d.code = Engine.Guard.exit_interrupted then Cancelled
    else Internal
  in
  let message =
    match d.span with
    | Some span -> Printf.sprintf "%s: %s (in %s)" span d.message d.phase
    | None -> Printf.sprintf "%s (in %s)" d.message d.phase
  in
  { kind; message; scope = None }

let execute shared (r : Protocol.request) : Protocol.response =
  (* request-shape problems come back as [Error], inside the Guard
     boundary, so they surface as bad_request; anything raised is
     classified by Guard *)
  let body () =
    let min_v = Protocol.op_min_version r.op in
    if r.version < min_v then
      Error
        (Printf.sprintf "op %s requires protocol version >= %d (request is v%d)"
           (Protocol.op_name r.op) min_v r.version)
    else
      match r.op with
      | Protocol.Analyze | Protocol.Analyze_multi | Protocol.Search
      | Protocol.Run ->
        analysis shared r
      | Protocol.Stats -> Ok (stats shared ~version:r.version)
      | Protocol.Ping -> ping ~version:r.version r.params
      | Protocol.Shutdown -> Ok (J.Obj [ ("draining", J.Bool true) ])
  in
  let result =
    match Engine.Guard.protect ~phase:(Protocol.op_name r.op) body with
    | Ok (Ok payload) -> Ok payload
    | Ok (Error m) ->
      Error { Protocol.kind = Bad_request; message = m; scope = None }
    | Error d -> Error (error_of_diagnostic d)
  in
  { Protocol.rid = r.id; result }
