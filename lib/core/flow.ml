open Poly_ir

(* Canonical span names of the Fig. 3 phases. The [timing] record below is
   a view over these spans: both are produced by the same
   [Telemetry.with_span_timed] measurement. *)
let phase_preprocess = "preprocess"
let phase_pluto = "pluto"
let phase_cm = "polyufc-cm"
let phase_steps456 = "steps456"

let c_compiles = Telemetry.counter "flow.compiles"
let c_empty_domains = Telemetry.counter "flow.empty_stmt_domains"

type timing = {
  preprocess_s : float;
  pluto_s : float;
  cm_s : float;
  steps456_s : float;
}

type stmt_decision = {
  stmt_name : string;
  stmt_oi : float;
  stmt_bound : Roofline.boundedness;
  stmt_cap : float;
}

type region_decision = {
  region_var : string;
  region_oi : float;
  region_bound : Roofline.boundedness;
  cap_ghz : float;
  search : Search.outcome;
  stmts : stmt_decision list;
}

type compiled = {
  source : Ir.t;
  optimized : Ir.t;
  caps : (string * float) list;
  decisions : region_decision list;
  cm : Cache_model.Model.result;
  profile : Perfmodel.profile;
  timing : timing;
  fidelity : Engine.Fidelity.t;
}

let profile_of_stmt_counts (sc : Cache_model.Model.stmt_counts) =
  {
    Perfmodel.omega = float_of_int sc.Cache_model.Model.stmt_flops;
    level_hits =
      Array.map
        (fun (c : Cache_model.Model.level_counts) ->
          float_of_int c.Cache_model.Model.demand_hits)
        sc.Cache_model.Model.stmt_levels;
    miss_llc =
      (let last =
         sc.Cache_model.Model.stmt_levels.(Array.length sc.Cache_model.Model.stmt_levels - 1)
       in
       float_of_int (Cache_model.Model.total_misses last));
    q_dram_bytes =
      (let last =
         sc.Cache_model.Model.stmt_levels.(Array.length sc.Cache_model.Model.stmt_levels - 1)
       in
       float_of_int (Cache_model.Model.total_misses last) *. 64.0);
    oi = sc.Cache_model.Model.stmt_oi;
  }

let rec stmt_names_of_item = function
  | Ir.Stmt s -> [ s.Ir.stmt_name ]
  | Ir.Loop l -> List.concat_map stmt_names_of_item l.Ir.body
  | Ir.If b ->
    List.concat_map stmt_names_of_item b.Ir.then_
    @ List.concat_map stmt_names_of_item b.Ir.else_

let compile ?(ctx = Engine.Ctx.none) ?(objective = Search.Edp) ?(epsilon = 1e-3)
    ?(tile_size = 32) ?(tile = true)
    ?(mode = Cache_model.Model.Set_associative) ~machine ~rooflines prog
    ~param_values =
  let pool = Engine.Ctx.pool ctx in
  let cancel = Engine.Ctx.cancel ctx in
  (* the per-stmt / per-region searches below may themselves run inside
     pool workers; they must not re-enter the pool *)
  let inner_ctx = { ctx with Engine.Ctx.pool = None; cache = None } in
  Telemetry.tick c_compiles;
  Telemetry.with_span "flow.compile" ~args:[ ("prog", prog.Ir.prog_name) ]
  @@ fun () ->
  (* soft phase boundary: cancellation always aborts; an expired budget
     aborts only under degrade=off — otherwise downstream phases run on
     (possibly degraded) results *)
  Engine.Ctx.checkpoint ctx;
  (* Jobs terminally abandoned by the supervised pool (Worker_failure
     after max_retries) degrade the result instead of failing it; the
     worst pool fidelity across fan-outs merges into [compiled.fidelity]. *)
  let pool_fidelity = ref Engine.Fidelity.Exact in
  let note_partial fid =
    pool_fidelity := Engine.Fidelity.worst !pool_fidelity fid
  in
  (* (1) preprocess: validation + per-statement domain sanity (an empty
     iteration domain under the given sizes means a dead statement and
     usually a sizing mistake), memoized per program and sizes *)
  let (), preprocess_s =
    Telemetry.with_span_timed phase_preprocess (fun () ->
        (match Ir.validate prog with
        | Ok () -> ()
        | Error m -> invalid_arg ("Flow.compile: " ^ m));
        let n, fid = Analysis_cache.empty_stmt_domains ~ctx prog ~param_values in
        note_partial fid;
        Telemetry.add c_empty_domains n)
  in
  Engine.Ctx.checkpoint ctx;
  (* (2) Pluto *)
  let tiled, pluto_s =
    Telemetry.with_span_timed phase_pluto (fun () ->
        if tile then Some (Analysis_cache.tile ~ctx ~tile_size prog) else None)
  in
  let optimized =
    match tiled with Some t -> t.Analysis_cache.program | None -> prog
  in
  Engine.Ctx.checkpoint ctx;
  (* (3) PolyUFC-CM on the whole program, with per-statement breakdown.
     The OpenMP sharing heuristic models multiple hardware threads
     splitting the working set; our simulated testbed executes a single
     instruction stream with scaled timing, so it is disabled here (it
     remains available and tested in Cache_model). *)
  let (cm, profile), cm_s =
    Telemetry.with_span_timed phase_cm (fun () ->
        let cm =
          match tiled with
          | Some t ->
            Analysis_cache.analyze_tiled ~ctx ~mode
              ~apply_thread_heuristic:false ~machine t ~param_values
          | None ->
            Analysis_cache.analyze_gov ~ctx ~mode ~apply_thread_heuristic:false
              ~machine prog ~param_values
        in
        (cm, Perfmodel.profile_of_cm cm))
  in
  Engine.Ctx.checkpoint ctx;
  (* (4–6) characterize, estimate, search per top-level region *)
  let decide_region (l : Ir.loop) =
    let names = List.concat_map stmt_names_of_item l.Ir.body in
    let stmt_decs =
      List.filter_map
        (fun (name, sc) ->
          if List.mem name names && sc.Cache_model.Model.stmt_flops >= 0 then begin
            let p = profile_of_stmt_counts sc in
            if p.Perfmodel.miss_llc = 0.0 && p.Perfmodel.omega = 0.0 then None
            else begin
              let s =
                Search.run ~ctx:inner_ctx
                  ~fidelity:cm.Cache_model.Model.fidelity ~objective ~epsilon
                  rooflines p
              in
              Some
                {
                  stmt_name = name;
                  stmt_oi = p.Perfmodel.oi;
                  stmt_bound = s.Search.boundedness;
                  stmt_cap = s.Search.cap_ghz;
                }
            end
          end
          else None)
        cm.Cache_model.Model.per_stmt
    in
    (* region-level profile: sum of its statements *)
    let n_levels = Array.length cm.Cache_model.Model.levels in
    let region_profile =
      List.fold_left
        (fun acc (name, sc) ->
          if List.mem name names then begin
            let p = profile_of_stmt_counts sc in
            {
              Perfmodel.omega = acc.Perfmodel.omega +. p.Perfmodel.omega;
              level_hits =
                Array.init n_levels (fun i ->
                    acc.Perfmodel.level_hits.(i) +. p.Perfmodel.level_hits.(i));
              miss_llc = acc.Perfmodel.miss_llc +. p.Perfmodel.miss_llc;
              q_dram_bytes = acc.Perfmodel.q_dram_bytes +. p.Perfmodel.q_dram_bytes;
              oi = 0.0;
            }
          end
          else acc)
        {
          Perfmodel.omega = 0.0;
          level_hits = Array.make n_levels 0.0;
          miss_llc = 0.0;
          q_dram_bytes = 0.0;
          oi = 0.0;
        }
        cm.Cache_model.Model.per_stmt
    in
    let region_oi =
      if region_profile.Perfmodel.q_dram_bytes > 0.0 then
        region_profile.Perfmodel.omega /. region_profile.Perfmodel.q_dram_bytes
      else Float.infinity
    in
    let region_profile = { region_profile with Perfmodel.oi = region_oi } in
    let search =
      Search.run ~ctx:inner_ctx ~fidelity:cm.Cache_model.Model.fidelity
        ~objective ~epsilon rooflines region_profile
    in
    let region_bound = search.Search.boundedness in
    (* paper's aggregation: min of statement caps for CB, max for BB *)
    let cap_ghz =
      match stmt_decs with
      | [] -> search.Search.cap_ghz
      | ds ->
        let caps = List.map (fun d -> d.stmt_cap) ds in
        (match region_bound with
        | Roofline.CB -> List.fold_left Float.min (search.Search.cap_ghz) caps
        | Roofline.BB -> List.fold_left Float.max (search.Search.cap_ghz) caps)
    in
    {
      region_var = l.Ir.var;
      region_oi;
      region_bound;
      cap_ghz;
      search;
      stmts = stmt_decs;
    }
  in
  let (decisions, caps), steps456_s =
    Telemetry.with_span_timed phase_steps456 (fun () ->
        let regions =
          List.filter_map
            (function
              | Ir.Loop l -> Some l | Ir.Stmt _ | Ir.If _ -> None)
            optimized.Ir.body
        in
        (* regions are independent; fan them out when a pool was given
           (Pool.map keeps program order, so the cap schedule and the
           redundant-cap removal below are unaffected) *)
        let decisions =
          match pool with
          | None -> List.map decide_region regions
          | Some pool ->
            let ds, fid =
              Engine.Pool.map_partial ?cancel pool decide_region regions
            in
            note_partial fid;
            ds
        in
        (* cap schedule with redundant-cap removal (the paper's
           pattern-rewrite): a region whose cap equals the previously
           active cap needs no call *)
        let caps =
          List.rev
            (snd
               (List.fold_left
                  (fun (prev, acc) d ->
                    match prev with
                    | Some p when Float.abs (p -. d.cap_ghz) < 1e-9 ->
                      (prev, acc)
                    | _ -> (Some d.cap_ghz, (d.region_var, d.cap_ghz) :: acc))
                  (None, []) decisions))
        in
        (decisions, caps))
  in
  {
    source = prog;
    optimized;
    caps;
    decisions;
    cm;
    profile;
    timing = { preprocess_s; pluto_s; cm_s; steps456_s };
    fidelity =
      Engine.Fidelity.worst cm.Cache_model.Model.fidelity !pool_fidelity;
  }

type evaluation = {
  baseline : Hwsim.Sim.outcome;
  capped : Hwsim.Sim.outcome;
  time_gain : float;
  energy_gain : float;
  edp_gain : float;
}

let evaluate ?(ctx = Engine.Ctx.none) ~machine compiled ~param_values =
  let config ~caps =
    Hwsim.Sim.config ~machine ~uncore:`Governor
      [
        Hwsim.Sim.tenant ~caps ~param_values
          ~name:compiled.source.Poly_ir.Ir.prog_name compiled.optimized;
      ]
  in
  (* the governor baseline and the capped binary share one trace walk *)
  let simulate () =
    Telemetry.with_span "evaluate.simulate" (fun () ->
        match
          Hwsim.Sim.run_each [ config ~caps:[]; config ~caps:compiled.caps ]
        with
        | [ baseline; capped ] -> (baseline, capped)
        | _ -> assert false)
  in
  (* both runs are pure functions of the capped config (the baseline
     drops its caps), so one sim/v1 entry keyed on it holds the pair *)
  let baseline, capped =
    match Engine.Ctx.cache ctx with
    | None -> simulate ()
    | Some store ->
      Engine.Rcache.find_or_add ~kind:Engine.Rcache.kind_sim store
        ~key:(Analysis_cache.sim_key (config ~caps:compiled.caps))
        ~decode:Analysis_cache.evaluation_of_json
        ~encode:Analysis_cache.evaluation_to_json simulate
  in
  let gain base v = (base -. v) /. base in
  {
    baseline;
    capped;
    time_gain = gain baseline.Hwsim.Sim.time_s capped.Hwsim.Sim.time_s;
    energy_gain = gain baseline.Hwsim.Sim.energy_j capped.Hwsim.Sim.energy_j;
    edp_gain = gain baseline.Hwsim.Sim.edp capped.Hwsim.Sim.edp;
  }

let pp_compiled ppf c =
  Format.fprintf ppf "@[<v>PolyUFC compile of %s:@," c.source.Ir.prog_name;
  if c.fidelity <> Engine.Fidelity.Exact then
    Format.fprintf ppf "  fidelity: %a@," Engine.Fidelity.pp c.fidelity;
  Format.fprintf ppf "  whole-program OI=%.3f FpB@," c.profile.Perfmodel.oi;
  List.iter
    (fun d ->
      Format.fprintf ppf "  region %s: OI=%.3f [%a] cap=%.1f GHz (%d stmts)@,"
        d.region_var d.region_oi Roofline.pp_boundedness d.region_bound
        d.cap_ghz (List.length d.stmts))
    c.decisions;
  Format.fprintf ppf "  cap schedule:";
  List.iter (fun (v, f) -> Format.fprintf ppf " %s->%.1f" v f) c.caps;
  Format.fprintf ppf "@,  compile time: pre=%.3fs pluto=%.3fs cm=%.3fs s456=%.3fs@]"
    c.timing.preprocess_s c.timing.pluto_s c.timing.cm_s c.timing.steps456_s

let pp_evaluation ppf e =
  Format.fprintf ppf
    "baseline: %a@ capped:   %a@ gains: time %+.1f%% energy %+.1f%% EDP %+.1f%%"
    Hwsim.Sim.pp_outcome e.baseline Hwsim.Sim.pp_outcome e.capped
    (100. *. e.time_gain) (100. *. e.energy_gain) (100. *. e.edp_gain)
