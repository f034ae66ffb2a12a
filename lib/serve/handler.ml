(* One request, one response — the daemon-side twin of the CLI
   subcommand bodies.  The analyze/search/run pipelines here are the
   same calls bin/polyufc.ml makes, in the same order with the same
   defaults, which is what makes a served [ok] payload byte-identical to
   the corresponding [--json] stdout.

   What the daemon keeps warm between requests lives in [shared]: the
   domain pool and the result-cache handle (and through it the engine's
   count memos).  Two process-wide memos are warm too: the roofline
   constants of {!Roofline.for_machine}, characterized once per machine
   fingerprint (read from the store, or measured and written to it, on
   the first request for a machine), and the chamber decompositions of
   {!Presburger.Chamber}: [analyze] decomposes each statement domain up
   front, so subsequent requests for the same program shape at any
   parameter value evaluate closed forms. *)

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

(* --- parameter decoding -------------------------------------------- *)

(* Parameter problems are [Failure]s: Guard classifies a bare Failure as
   invalid input, but a *request-shape* problem should be bad_request —
   so those are raised as a dedicated exception caught before Guard. *)
exception Bad_params of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_params m)) fmt

let get_string params key =
  match J.member key params with
  | Some (J.Str s) -> Some s
  | Some _ -> bad "params.%s must be a string" key
  | None -> None

let get_int ~default params key =
  match J.member key params with
  | Some (J.Int n) -> n
  | Some (J.Float f) when Float.is_integer f -> int_of_float f
  | Some _ -> bad "params.%s must be an integer" key
  | None -> default

let get_float ~default params key =
  match Option.map J.number (J.member key params) with
  | Some (Some f) -> f
  | Some None -> bad "params.%s must be a number" key
  | None -> default

let get_bool ~default params key =
  match J.member key params with
  | Some (J.Bool b) -> b
  | Some _ -> bad "params.%s must be a boolean" key
  | None -> default

let machine_of params =
  match get_string params "machine" with
  | None | Some "bdw" | Some "BDW" -> Hwsim.Machine.bdw
  | Some ("rpl" | "RPL") -> Hwsim.Machine.rpl
  | Some s -> bad "unknown machine %S (use bdw or rpl)" s

let objective_of params =
  match get_string params "objective" with
  | None | Some "edp" -> Search.Edp
  | Some "energy" -> Search.Energy
  | Some "performance" -> Search.Performance
  | Some s -> bad "unknown objective %S (use edp, energy or performance)" s

let sizes_of params =
  match J.member "sizes" params with
  | None -> []
  | Some (J.Obj kvs) ->
    List.map
      (fun (p, v) ->
        match v with
        | J.Int n -> (p, n)
        | J.Float f when Float.is_integer f -> (p, int_of_float f)
        | _ -> bad "params.sizes.%s must be an integer" p)
      kvs
  | Some _ -> bad "params.sizes must be an object of integers"

(* Mirror of the CLI's [load]: a bundled workload by name, or inline
   Polylang source text (the daemon cannot assume it shares a filesystem
   view with the client, so clients ship source, not paths). *)
let load_program params =
  Engine.Guard.phase "parse" @@ fun () ->
  let sizes = sizes_of params in
  match (get_string params "workload", get_string params "source") with
  | Some _, Some _ -> bad "give either params.workload or params.source, not both"
  | Some name, None -> (
    match Workloads.find_opt name with
    | None -> failwith (Printf.sprintf "unknown workload %S" name)
    | Some w ->
      let sizes = if sizes = [] then Workloads.param_values w else sizes in
      (Workloads.program w, sizes))
  | None, Some src -> (Polylang.parse src, sizes)
  | None, None -> bad "missing params.workload or params.source"

(* --- per-request context ------------------------------------------- *)

let ctx_of shared (qos : Protocol.qos) =
  let deadline_s =
    Engine.Ctx.clamp_deadline ?limit:shared.max_deadline_s qos.deadline_s
  in
  let fuel = Engine.Ctx.clamp_fuel ?limit:shared.max_fuel qos.fuel in
  let budget =
    if deadline_s = None && fuel = None then None
    else
      Some (Engine.Budget.create ?deadline_s ?fuel ~degrade:qos.degrade ())
  in
  Engine.Ctx.create ?pool:shared.pool ?cache:shared.cache ?budget ()

(* --- operations ---------------------------------------------------- *)

let analyze _shared ~ctx params =
  let prog, sizes = load_program params in
  let tile_size = get_int ~default:32 params "tile_size" in
  let machine = machine_of params in
  let tiled = Poly_ir.Tiling.tile_program ~tile_size prog in
  (* warm the chamber memo: decompose each statement domain once per
     program shape, so repeat queries — same program, other sizes — hit
     the process-wide memo (presburger.chamber_cache_hits) and evaluate
     closed forms instead of re-scanning.  Best-effort: shapes the
     chamber engine declines, or an exhausted budget, just skip it. *)
  (try
     let scop = Poly_ir.Scop.extract tiled in
     List.iter
       (fun (info : Poly_ir.Scop.stmt_info) ->
         ignore (Presburger.Count.card_param ~ctx info.Poly_ir.Scop.domain))
       scop.Poly_ir.Scop.stmt_infos
   with Engine.Budget.Exhausted _ | Invalid_argument _ -> ());
  let cm =
    Analysis_cache.analyze_gov ~ctx ~mode:Cache_model.Model.Set_associative
      ~apply_thread_heuristic:false ~machine tiled ~param_values:sizes
  in
  Report.json_of_cm cm

let compile ~ctx params =
  let prog, sizes = load_program params in
  let tile_size = get_int ~default:32 params "tile_size" in
  let epsilon = get_float ~default:1e-3 params "epsilon" in
  let machine = machine_of params in
  let objective = objective_of params in
  let k = Roofline.for_machine ~ctx machine in
  let c =
    Flow.compile ~ctx ~objective ~epsilon ~tile_size ~machine ~rooflines:k
      prog ~param_values:sizes
  in
  (c, machine, sizes)

let search _shared ~ctx params =
  let c, _, _ = compile ~ctx params in
  Report.json_of_compiled c

let run _shared ~ctx params =
  let c, machine, sizes = compile ~ctx params in
  let e = Flow.evaluate ~ctx ~machine c ~param_values:sizes in
  Report.json_of_run c e

(* v2: compile every tenant, arbitrate the shared cap, co-simulate.
   params.tenants is an array of per-tenant objects, each shaped like an
   analyze request (workload|source, sizes) plus name/weight/cores. *)
let analyze_multi shared ~ctx params =
  let tile_size = get_int ~default:32 params "tile_size" in
  let epsilon = get_float ~default:1e-3 params "epsilon" in
  let solo = get_bool ~default:true params "solo" in
  let machine = machine_of params in
  let objective = objective_of params in
  let tenant_specs =
    match J.member "tenants" params with
    | Some (J.Arr (_ :: _ as items)) ->
      List.mapi
        (fun i t ->
          match t with
          | J.Obj _ ->
            let prog, sizes = load_program t in
            let name =
              match (get_string t "name", get_string t "workload") with
              | Some n, _ -> n
              | None, Some w -> w
              | None, None -> Printf.sprintf "tenant%d" i
            in
            let weight = get_float ~default:1.0 t "weight" in
            if weight <= 0.0 then
              bad "params.tenants[%d].weight must be positive" i;
            let cores = get_int ~default:0 t "cores" in
            if cores < 0 then
              bad "params.tenants[%d].cores must be non-negative" i;
            Fleet.spec ~sizes ~weight ~cores ~name prog
          | _ -> bad "params.tenants[%d] must be an object" i)
        items
    | Some (J.Arr []) -> bad "params.tenants must not be empty"
    | Some _ -> bad "params.tenants must be an array of objects"
    | None -> bad "missing params.tenants"
  in
  let rooflines = Roofline.for_machine ~ctx machine in
  let result =
    Fleet.analyze ~ctx ~objective ~epsilon ~tile_size ~solo ~machine
      ~rooflines tenant_specs
  in
  record_scatter shared (Fleet.scatter_of_result result);
  Fleet.json_of_result result

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
  let delay = get_float ~default:0.0 params "delay_s" in
  let delay = Float.max 0.0 (Float.min 30.0 delay) in
  if delay > 0.0 then Unix.sleepf delay;
  (* [protocol] echoes the *negotiated* version: a v1 ping answer is
     byte-identical to what pre-versioning daemons sent.  v2 pings also
     learn the daemon's ceiling and its executable ops. *)
  J.Obj
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
    else [])

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
  let body () =
    (* request-shape problems (Bad_params) are caught here, inside the
       Guard boundary, so they surface as bad_request rather than being
       trapped as an internal fault *)
    try
      let min_v = Protocol.op_min_version r.op in
      if r.version < min_v then
        bad "op %s requires protocol version >= %d (request is v%d)"
          (Protocol.op_name r.op) min_v r.version;
      Ok
        (match r.op with
        | Protocol.Analyze -> analyze shared ~ctx:(ctx_of shared r.qos) r.params
        | Protocol.Analyze_multi ->
          analyze_multi shared ~ctx:(ctx_of shared r.qos) r.params
        | Protocol.Search -> search shared ~ctx:(ctx_of shared r.qos) r.params
        | Protocol.Run -> run shared ~ctx:(ctx_of shared r.qos) r.params
        | Protocol.Stats -> stats shared ~version:r.version
        | Protocol.Ping -> ping ~version:r.version r.params
        | Protocol.Shutdown -> J.Obj [ ("draining", J.Bool true) ])
    with Bad_params m -> Error m
  in
  let result =
    match Engine.Guard.protect ~phase:(Protocol.op_name r.op) body with
    | Ok (Ok payload) -> Ok payload
    | Ok (Error m) ->
      Error { Protocol.kind = Bad_request; message = m; scope = None }
    | Error d -> Error (error_of_diagnostic d)
  in
  { Protocol.rid = r.id; result }
