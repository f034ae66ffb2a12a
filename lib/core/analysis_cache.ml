(* Key construction and JSON round-tripping for cached PolyUFC-CM
   results, and the tiling memo in front of them.

   Floats are encoded as hexadecimal literals ("%h") and decoded with
   [float_of_string]: the round trip is exact (including infinities, e.g.
   the OI of a kernel with no DRAM traffic), which keeps reports built
   from cache hits byte-identical to reports built from fresh analyses. *)

module J = Telemetry.Json
module M = Cache_model.Model

let mode_str = function
  | M.Set_associative -> "set-associative"
  | M.Fully_associative -> "fully-associative"

let params_str param_values =
  String.concat ","
    (List.map (fun (p, v) -> Printf.sprintf "%s=%d" p v) param_values)

let scop_isl prog = Poly_ir.Scop.export_isl (Poly_ir.Scop.extract prog)

let cm_key_of_isl ~machine ~mode ~apply_thread_heuristic ~param_values scop =
  Engine.Rcache.key
    [
      ("kind", "polyufc-cm");
      ("scop", scop);
      ("machine", Hwsim.Machine.fingerprint machine);
      ("mode", mode_str mode);
      ("threads", string_of_bool apply_thread_heuristic);
      ("params", params_str param_values);
    ]

let cm_key ~machine ~mode ~apply_thread_heuristic ~param_values prog =
  cm_key_of_isl ~machine ~mode ~apply_thread_heuristic ~param_values
    (scop_isl prog)

(* Everything in the config the simulator reads.  It ignores array
   values (it replays addresses and flop counts), so [Ir.pp]'s rendering
   of constants need not be exact; tenant names and QoS weights only
   label or arbitrate. *)
let sim_key (cfg : Hwsim.Sim.config) =
  let module S = Hwsim.Sim in
  Engine.Rcache.key
    (("kind", "evaluation")
     :: ( "uncore",
          match cfg.S.uncore with
          | `Fixed f -> Printf.sprintf "fixed=%h" f
          | `Governor -> "governor" )
     :: ("governor_us", Printf.sprintf "%h" cfg.S.governor_interval_us)
     :: List.concat_map
          (fun (t : S.tenant) ->
            [
              ("program", Format.asprintf "%a" Poly_ir.Ir.pp t.S.t_prog);
              ("params", params_str t.S.t_params);
              ("cores", string_of_int t.S.t_cores);
              ( "caps",
                String.concat ","
                  (List.map
                     (fun (v, f) -> Printf.sprintf "%s=%h" v f)
                     t.S.t_caps) );
            ])
          cfg.S.tenants
    @ [
        ("machine", Hwsim.Machine.fingerprint cfg.S.machine);
        ("sim", string_of_int S.version);
      ])

let evaluation_to_json (baseline, capped) =
  J.Obj
    [
      ("baseline", Hwsim.Sim.outcome_to_json baseline);
      ("capped", Hwsim.Sim.outcome_to_json capped);
    ]

let evaluation_of_json j =
  let outcome k = Option.bind (J.member k j) Hwsim.Sim.outcome_of_json in
  match (outcome "baseline", outcome "capped") with
  | Some b, Some c -> Some (b, c)
  | _ -> None

(* --- encode --- *)

let json_of_level (c : M.level_counts) =
  J.Obj
    [
      ("name", J.Str c.M.level_name);
      ("presented", J.Int c.M.presented);
      ("cold", J.Int c.M.cold);
      ("capacity_conflict", J.Int c.M.capacity_conflict);
      ("hits", J.Int c.M.hits);
      ("demand_hits", J.Int c.M.demand_hits);
    ]

let cm_to_json (r : M.result) =
  J.Obj
    [
      ("levels", J.Arr (Array.to_list (Array.map json_of_level r.M.levels)));
      ( "per_stmt",
        J.Arr
          (List.map
             (fun (name, (sc : M.stmt_counts)) ->
               J.Obj
                 [
                   ("stmt", J.Str name);
                   ( "levels",
                     J.Arr
                       (Array.to_list (Array.map json_of_level sc.M.stmt_levels))
                   );
                   ("flops", J.Int sc.M.stmt_flops);
                   ("oi", J.hex_float sc.M.stmt_oi);
                 ])
             r.M.per_stmt) );
      ("threads_divisor", J.Int r.M.threads_divisor);
      ("miss_llc", J.hex_float r.M.miss_llc);
      ("q_dram_bytes", J.hex_float r.M.q_dram_bytes);
      ("flops", J.Int r.M.flops);
      ("oi", J.hex_float r.M.oi);
      ( "hit_ratios",
        J.Arr (Array.to_list (Array.map J.hex_float r.M.hit_ratios)) );
      ( "miss_ratios",
        J.Arr (Array.to_list (Array.map J.hex_float r.M.miss_ratios)) );
      ("fidelity", J.Str (Engine.Fidelity.to_string r.M.fidelity));
    ]

(* --- decode --- *)

let level_of_json j =
  let open J in
  {
    M.level_name = str_of (get "name" j);
    presented = int_of (get "presented" j);
    cold = int_of (get "cold" j);
    capacity_conflict = int_of (get "capacity_conflict" j);
    hits = int_of (get "hits" j);
    demand_hits = int_of (get "demand_hits" j);
  }

let cm_of_json ~machine ~mode =
  J.decode @@ fun j ->
  let open J in
  {
    M.machine;
    mode;
    levels = Array.of_list (List.map level_of_json (arr_of (get "levels" j)));
    per_stmt =
      List.map
        (fun sj ->
          ( str_of (get "stmt" sj),
            {
              M.stmt_levels =
                Array.of_list
                  (List.map level_of_json (arr_of (get "levels" sj)));
              stmt_flops = int_of (get "flops" sj);
              stmt_oi = flt_of (get "oi" sj);
            } ))
        (arr_of (get "per_stmt" j));
    threads_divisor = int_of (get "threads_divisor" j);
    miss_llc = flt_of (get "miss_llc" j);
    q_dram_bytes = flt_of (get "q_dram_bytes" j);
    flops = int_of (get "flops" j);
    oi = flt_of (get "oi" j);
    hit_ratios =
      Array.of_list (List.map flt_of (arr_of (get "hit_ratios" j)));
    miss_ratios =
      Array.of_list (List.map flt_of (arr_of (get "miss_ratios" j)));
    fidelity =
      (match Engine.Fidelity.of_string (str_of (get "fidelity" j)) with
      | Some f -> f
      | None -> raise Bad_shape);
  }

(* ---- tiling: a process-wide memo in front of tiling/v1 plans ----

   Keyed on an exact digest of the program.  Not on [Ir.pp]: it prints
   float constants with [%g], so programs differing only in a constant
   would share an entry.  The memo never holds its mutex across a
   dependence analysis: tiling is deterministic, a racing duplicate is
   dropped. *)

module T = Poly_ir.Tiling

let c_tile_memo_hits = Telemetry.counter "tiling.memo_hits"
let c_tile_store_hits = Telemetry.counter "tiling.store_hits"
let c_tile_plans = Telemetry.counter "tiling.plans"

type tiled = { program : Poly_ir.Ir.t; scop_isl : string }

type tiling_entry = {
  plan : T.nest_report list;
  mutable by_size : (int * tiled) list; (* newest first *)
  mutable source : Poly_ir.Scop.t option;
      (* the untiled program's SCoP, once a request has extracted it *)
}

let tile_memo : (Digest.t, tiling_entry) Hashtbl.t = Hashtbl.create 64
let tile_memo_mu = Mutex.create ()
let tile_memo_cap = 256
let tile_sizes_cap = 8

(* empty-domain counts by (program digest, sorted sizes) *)
let empty_memo : (Digest.t * (string * int) list, int) Hashtbl.t = Hashtbl.create 64

let clear_tile_memo () =
  Mutex.protect tile_memo_mu (fun () ->
      Hashtbl.reset tile_memo;
      Hashtbl.reset empty_memo)

(* the last program digested: one request asks for its program's digest
   in the preprocess and again in the pluto phase *)
let last_digest : (Poly_ir.Ir.t * Digest.t) option Atomic.t = Atomic.make None

let program_digest (prog : Poly_ir.Ir.t) =
  match Atomic.get last_digest with
  | Some (p, d) when p == prog -> d
  | _ ->
    let d = Digest.string (Marshal.to_string prog [ Marshal.No_sharing ]) in
    Atomic.set last_digest (Some (prog, d));
    d

let tiling_key_of_digest digest =
  Engine.Rcache.key
    [
      ("kind", Engine.Rcache.kind_tiling);
      ("program", Digest.to_hex digest);
      ( "legality",
        String.concat "," (List.map string_of_int T.default_legality_sizes) );
      ("tiling", string_of_int T.version);
    ]

let tiling_key prog = tiling_key_of_digest (program_digest prog)

let plan_to_json plan =
  J.Arr
    (List.map
       (fun (n : T.nest_report) ->
         J.Obj
           [
             ("root", J.Str n.T.nest_root);
             ("band", J.Int n.T.band);
             ("parallel", J.Bool n.T.parallel);
             ("deps", J.Int n.T.n_deps);
           ])
       plan)

let plan_of_json =
  J.decode @@ fun j ->
  let open J in
  List.map
    (fun n ->
      {
        T.nest_root = str_of (get "root" n);
        band = int_of (get "band" n);
        parallel = bool_of (get "parallel" n);
        n_deps = int_of (get "deps" n);
      })
    (arr_of j)

let tiled_along ~tile_size prog plan =
  let program = T.apply ~tile_size prog plan in
  { program; scop_isl = scop_isl program }

(* the plan of a memo miss and the program tiled along it: a tiling/v1
   entry when [ctx] has a store and the entry decodes and applies,
   otherwise a fresh dependence analysis, stored *)
let plan_and_tile ~ctx ~tile_size digest prog =
  let key = tiling_key_of_digest digest in
  let cache = Engine.Ctx.cache ctx in
  let stored =
    match Option.bind cache (fun c -> Engine.Rcache.find c key) with
    | None -> None
    | Some j -> (
      match plan_of_json j with
      | None -> None
      | Some plan -> (
        match tiled_along ~tile_size prog plan with
        | t -> Some (plan, t)
        | exception Invalid_argument _ -> None))
  in
  match stored with
  | Some hit ->
    Telemetry.tick c_tile_store_hits;
    hit
  | None ->
    Telemetry.tick c_tile_plans;
    let plan = T.plan prog in
    let t = tiled_along ~tile_size prog plan in
    Option.iter
      (fun c ->
        Engine.Rcache.store ~kind:Engine.Rcache.kind_tiling c key
          (plan_to_json plan))
      cache;
    (plan, t)

let tile ~ctx ~tile_size prog =
  let digest = program_digest prog in
  let locked f = Mutex.protect tile_memo_mu f in
  match locked (fun () -> Hashtbl.find_opt tile_memo digest) with
  | Some e -> (
    Telemetry.tick c_tile_memo_hits;
    match locked (fun () -> List.assoc_opt tile_size e.by_size) with
    | Some t -> t
    | None ->
      let t = tiled_along ~tile_size prog e.plan in
      locked (fun () ->
          if not (List.mem_assoc tile_size e.by_size) then
            e.by_size <-
              (tile_size, t)
              :: List.filteri (fun i _ -> i < tile_sizes_cap - 1) e.by_size);
      t)
  | None ->
    let plan, t = plan_and_tile ~ctx ~tile_size digest prog in
    locked (fun () ->
        if not (Hashtbl.mem tile_memo digest) then begin
          if Hashtbl.length tile_memo >= tile_memo_cap then
            Hashtbl.reset tile_memo;
          Hashtbl.add tile_memo digest
            { plan; by_size = [ (tile_size, t) ]; source = None }
        end);
    t

let empty_stmt_domains ~ctx prog ~param_values =
  let digest = program_digest prog in
  let key = (digest, List.sort compare param_values) in
  let locked f = Mutex.protect tile_memo_mu f in
  match locked (fun () -> Hashtbl.find_opt empty_memo key) with
  | Some n -> (n, Engine.Fidelity.Exact)
  | None ->
    let entry = locked (fun () -> Hashtbl.find_opt tile_memo digest) in
    let scop =
      match Option.bind entry (fun e -> e.source) with
      | Some scop -> scop
      | None ->
        let scop = Poly_ir.Scop.extract prog in
        Option.iter (fun e -> locked (fun () -> e.source <- Some scop)) entry;
        scop
    in
    let empty (info : Poly_ir.Scop.stmt_info) =
      let sp = Presburger.Bset.space info.Poly_ir.Scop.domain in
      let values =
        Array.map
          (fun p -> Option.value (List.assoc_opt p param_values) ~default:0)
          sp.Presburger.Space.params
      in
      Presburger.Bset.is_empty
        (Presburger.Bset.fix_params info.Poly_ir.Scop.domain values)
    in
    (* independent per-statement checks; fanned out when the context has
       a pool, where only the total is observable *)
    let flags, fid =
      match Engine.Ctx.pool ctx with
      | None -> (List.map empty scop.Poly_ir.Scop.stmt_infos, Engine.Fidelity.Exact)
      | Some pool ->
        Engine.Pool.map_partial ?cancel:(Engine.Ctx.cancel ctx) pool empty
          scop.Poly_ir.Scop.stmt_infos
    in
    let n = List.length (List.filter Fun.id flags) in
    (* a count with abandoned jobs is partial: never memoized *)
    if fid = Engine.Fidelity.Exact then
      locked (fun () ->
          if Hashtbl.length empty_memo >= tile_memo_cap then Hashtbl.reset empty_memo;
          Hashtbl.replace empty_memo key n);
    (n, fid)

(* [isl] is [prog]'s SCoP export, asked for only on a store lookup *)
let analyze ~ctx ~isl ~mode ~apply_thread_heuristic ~machine prog
    ~param_values =
  let compute () =
    (* Self-healing: losing pool jobs inside the counting fan-outs would
       silently skew the cache-model numbers, so when the supervised pool
       gives up on a job we redo the whole analysis inline (exact, just
       not parallel) rather than accept partial counts. *)
    try
      M.analyze_gov ~ctx ~mode ~apply_thread_heuristic ~machine prog
        ~param_values
    with Engine.Pool.Worker_failure _ ->
      M.analyze_gov
        ~ctx:(Engine.Ctx.without_pool ctx)
        ~mode ~apply_thread_heuristic ~machine prog ~param_values
  in
  match Engine.Ctx.cache ctx with
  | None -> compute ()
  | Some cache -> (
    let key =
      cm_key_of_isl ~machine ~mode ~apply_thread_heuristic ~param_values
        (isl ())
    in
    match Option.bind (Engine.Rcache.find cache key) (cm_of_json ~machine ~mode) with
    | Some r -> r
    | None ->
      let r = compute () in
      (* a degraded result is what this budget could afford, not what the
         analysis is worth: caching it would serve estimates to future
         runs with healthy budgets, so only exact results are stored *)
      if r.M.fidelity = Engine.Fidelity.Exact then
        Engine.Rcache.store cache key (cm_to_json r);
      r)

let analyze_gov ?(ctx = Engine.Ctx.none) ~mode ~apply_thread_heuristic ~machine
    prog ~param_values =
  analyze ~ctx
    ~isl:(fun () -> scop_isl prog)
    ~mode ~apply_thread_heuristic ~machine prog ~param_values

let analyze_tiled ?(ctx = Engine.Ctx.none) ~mode ~apply_thread_heuristic
    ~machine t ~param_values =
  analyze ~ctx
    ~isl:(fun () -> t.scop_isl)
    ~mode ~apply_thread_heuristic ~machine t.program ~param_values
