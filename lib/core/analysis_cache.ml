(* Key construction and JSON round-tripping for cached PolyUFC-CM
   results.

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

let cm_key ~machine ~mode ~apply_thread_heuristic ~param_values prog =
  let scop = Poly_ir.Scop.export_isl (Poly_ir.Scop.extract prog) in
  Engine.Rcache.key
    [
      ("kind", "polyufc-cm");
      ("scop", scop);
      ("machine", Hwsim.Machine.fingerprint machine);
      ("mode", mode_str mode);
      ("threads", string_of_bool apply_thread_heuristic);
      ("params", params_str param_values);
    ]

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

exception Bad_shape

let get k j = match J.member k j with Some v -> v | None -> raise Bad_shape
let int_of = function J.Int i -> i | _ -> raise Bad_shape
let str_of = function J.Str s -> s | _ -> raise Bad_shape

let flt_of j =
  match J.float_of_hex j with Some f -> f | None -> raise Bad_shape

let arr_of = function J.Arr l -> l | _ -> raise Bad_shape

let level_of_json j =
  {
    M.level_name = str_of (get "name" j);
    presented = int_of (get "presented" j);
    cold = int_of (get "cold" j);
    capacity_conflict = int_of (get "capacity_conflict" j);
    hits = int_of (get "hits" j);
    demand_hits = int_of (get "demand_hits" j);
  }

let cm_of_json ~machine ~mode j =
  match
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
  with
  | r -> Some r
  | exception Bad_shape -> None

let analyze_gov ?(ctx = Engine.Ctx.none) ~mode ~apply_thread_heuristic ~machine
    prog ~param_values =
  let compute () =
    (* Warm the chamber memo — and, when the context carries a result
       cache, the symbolic/v1 tier — before the model runs: a parametric
       domain decomposed here answers every later counting query at any
       parameter values in O(1), and across processes via the cache.
       Domains the chamber engine declines cost one gate check each. *)
    (try
       let scop = Poly_ir.Scop.extract prog in
       List.iter
         (fun (info : Poly_ir.Scop.stmt_info) ->
           ignore (Presburger.Count.card_param ~ctx info.Poly_ir.Scop.domain))
         scop.Poly_ir.Scop.stmt_infos
     with Engine.Budget.Exhausted _ | Invalid_argument _ -> ());
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
      cm_key ~machine ~mode ~apply_thread_heuristic ~param_values prog
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

let analyze_cached ~cache ~mode ~apply_thread_heuristic ~machine prog
    ~param_values =
  analyze_gov
    ~ctx:(Engine.Ctx.create ~cache ())
    ~mode ~apply_thread_heuristic ~machine prog ~param_values
