open Poly_ir

type uncore_policy = [ `Fixed of float | `Governor ]

type zone_energy = {
  core_j : float;
  uncore_j : float;
  dram_j : float;
  static_j : float;
}

type outcome = {
  time_s : float;
  energy_j : float;
  edp : float;
  avg_power_w : float;
  avg_uncore_ghz : float;
  zones : zone_energy;
  flops : int;
  dram_lines : int;
  dram_bytes : int;
  cache_stats : Cache.level_stats array;
  cap_switches : int;
  achieved_gflops : float;
  achieved_bw_gbps : float;
}

type cap_schedule = (string * float) list

let c_runs = Telemetry.counter "hwsim.runs"
let c_walks = Telemetry.counter "hwsim.walks"
let c_multi_runs = Telemetry.counter "hwsim.multi_runs"
let c_tenants = Telemetry.counter "hwsim.tenants_interleaved"
let c_cap_switches = Telemetry.counter "hwsim.cap_switches"
let c_gov_switches = Telemetry.counter "hwsim.governor_switches"
let c_dram_lines = Telemetry.counter "hwsim.dram_lines"

let clamp lo hi x = Float.max lo (Float.min hi x)

(* --- tenant configuration ------------------------------------------- *)

type tenant = {
  t_name : string;
  t_prog : Ir.t;
  t_params : (string * int) list;
  t_cores : int;
  t_weight : float;
  t_caps : cap_schedule;
}

let tenant ?(cores = 0) ?(weight = 1.0) ?(caps = []) ?(param_values = [])
    ~name prog =
  if weight <= 0.0 then invalid_arg "Sim.tenant: weight must be positive";
  if cores < 0 then invalid_arg "Sim.tenant: cores must be non-negative";
  {
    t_name = name;
    t_prog = prog;
    t_params = param_values;
    t_cores = cores;
    t_weight = weight;
    t_caps = caps;
  }

type config = {
  machine : Machine.t;
  uncore : uncore_policy;
  governor_interval_us : float;
  tenants : tenant list;
}

let config ~machine ~uncore ?(governor_interval_us = 100.0) tenants =
  if tenants = [] then invalid_arg "Sim.config: at least one tenant";
  { machine; uncore; governor_interval_us; tenants }

type tenant_outcome = {
  o_tenant : string;
  o_time_s : float;
  o_energy_j : float;
  o_flops : int;
  o_accesses : int;
  o_dram_lines : int;
  o_dram_bytes : int;
  o_gflops : float;
  o_bw_gbps : float;
  o_solo_time_s : float;
  o_slowdown : float;
}

type multi_outcome = {
  combined : outcome;
  per_tenant : tenant_outcome list;
  n_tenants : int;
}

let policy_name = function `Fixed _ -> "fixed" | `Governor -> "governor"

(* --- clocks ---------------------------------------------------------- *)

(* What one clock integrates, as an all-float record: OCaml stores it
   flat, so the per-event updates below allocate nothing.  [uncore_w],
   [dram_lat_ns] and [dram_bw] are the machine's curves at [f_u],
   refreshed by [set_f_u] whenever the clock moves — the same values the
   curve functions return, computed once per clock change instead of once
   per event.  All times are in nanoseconds. *)
type clock = {
  mutable time_ns : float;
  mutable core_j : float;
  mutable uncore_j : float;
  mutable dram_j : float;
  mutable uncore_tw : float;  (* ∫ f_u dt, for the time-weighted average *)
  mutable gov_last_t : float;  (* start of the governor's window *)
  mutable f_u : float;
  mutable uncore_w : float;
  mutable dram_lat_ns : float;
  mutable dram_bw : float;
}

let set_f_u m c f =
  c.f_u <- f;
  c.uncore_w <- Machine.uncore_power_w m ~f_u:f;
  c.dram_lat_ns <- Machine.dram_latency_ns m ~f_u:f;
  c.dram_bw <- Machine.dram_bw_gbps m ~f_u:f

(* a policy's starting clock: pinned, or the governor's floor *)
let new_clock m uncore =
  let c =
    {
      time_ns = 0.0;
      core_j = 0.0;
      uncore_j = 0.0;
      dram_j = 0.0;
      uncore_tw = 0.0;
      gov_last_t = 0.0;
      f_u = 0.0;
      uncore_w = 0.0;
      dram_lat_ns = 0.0;
      dram_bw = 0.0;
    }
  in
  set_f_u m c
    (match uncore with
    | `Fixed f -> clamp m.Machine.uncore_min_ghz m.Machine.uncore_max_ghz f
    | `Governor -> m.Machine.uncore_min_ghz);
  c

(* The UFS-like driver's next clock after a window of [dt] ns that moved
   [bytes] DRAM bytes.  Demand is measured against the capability at the
   current clock; the driver targets the top of the range under any
   sustained memory activity (over-provisioning CB phases, cf. Sec. I)
   but ramps with control-loop latency and decays between phases. *)
let governor_next m c ~bytes ~dt =
  let bw_gbps = float_of_int bytes /. dt in
  let capacity = c.dram_bw in
  let demand = bw_gbps /. Float.max 1e-9 capacity in
  let target =
    if demand > 0.01 then m.Machine.uncore_max_ghz
    else
      m.Machine.uncore_min_ghz
      +. ((m.Machine.uncore_max_ghz -. m.Machine.uncore_min_ghz)
         *. (demand /. 0.01))
  in
  let next =
    if target > c.f_u then c.f_u +. ((target -. c.f_u) *. 0.5)
    else c.f_u -. ((c.f_u -. target) *. 0.15)
  in
  clamp m.Machine.uncore_min_ghz m.Machine.uncore_max_ghz next

(* an outcome from a clock's totals: [time_ns] is the run's wall time
   and the zones are its energy, static power aside *)
let outcome_of m c ~flops ~dram_lines ~dram_bytes ~cache_stats ~cap_switches =
  let time_s = c.time_ns *. 1e-9 in
  let static_j = m.Machine.p_static_w *. time_s in
  let energy_j = c.core_j +. c.uncore_j +. c.dram_j +. static_j in
  {
    time_s;
    energy_j;
    edp = energy_j *. time_s;
    avg_power_w = (if time_s > 0.0 then energy_j /. time_s else 0.0);
    avg_uncore_ghz = (if c.time_ns > 0.0 then c.uncore_tw /. c.time_ns else c.f_u);
    zones = { core_j = c.core_j; uncore_j = c.uncore_j; dram_j = c.dram_j; static_j };
    flops;
    dram_lines;
    dram_bytes;
    cache_stats;
    cap_switches;
    achieved_gflops =
      (if time_s > 0.0 then float_of_int flops /. time_s /. 1e9 else 0.0);
    achieved_bw_gbps =
      (if time_s > 0.0 then
         float_of_int (dram_lines * Machine.line_bytes m) /. time_s /. 1e9
       else 0.0);
  }

(* --- single-kernel engine: one walk, many clocks --------------------- *)

(* The paper-faithful single-kernel engine: one inclusive cache
   hierarchy, one trace.  Which line hits where, which fill comes from
   DRAM and which victim is written back depend only on the access
   stream, never on the uncore clock, so every policy that shares a
   (machine, program, parameters) triple shares one trace walk and one
   cache; each policy keeps its own clock, governor window and cap
   state, and integrates the same event sequence with the same float
   expressions, in the same order, as a walk of its own would. *)

type policy = {
  clk : clock;
  p_uncore : uncore_policy;
  p_caps : cap_schedule;
  gov_interval_ns : float;
  mutable capped : bool;
      (* a cap pins the clock for the rest of the run: PolyUFC writes
         both UFS limits *)
  mutable cap_switches : int;
  mutable gov_switches : int;
  mutable gov_bytes : int;  (* DRAM bytes since the governor's last tick *)
}

(* advance simulated time, integrating power over the interval *)
let[@inline] advance m c ~threads dt_ns =
  if dt_ns > 0.0 then begin
    c.time_ns <- c.time_ns +. dt_ns;
    c.core_j <- c.core_j +. (m.Machine.core_w_active *. threads *. dt_ns *. 1e-9);
    c.uncore_j <- c.uncore_j +. (c.uncore_w *. dt_ns *. 1e-9);
    c.uncore_tw <- c.uncore_tw +. (c.f_u *. dt_ns)
  end

let governor_tick m p =
  let c = p.clk in
  if (not p.capped) && c.time_ns -. c.gov_last_t >= p.gov_interval_ns then begin
    let next =
      governor_next m c ~bytes:p.gov_bytes ~dt:(c.time_ns -. c.gov_last_t)
    in
    if Float.abs (next -. c.f_u) > 1e-9 then p.gov_switches <- p.gov_switches + 1;
    set_f_u m c next;
    c.gov_last_t <- c.time_ns;
    p.gov_bytes <- 0
  end

let apply_cap m p ~threads freq =
  let c = p.clk in
  p.cap_switches <- p.cap_switches + 1;
  (* the MSR write stalls the pipeline for the cap-switch latency; the
     stall is integrated at the pre-switch clock — the uncore is still
     running at the old frequency while the write retires *)
  advance m c ~threads (m.Machine.cap_switch_us *. 1e3);
  p.capped <- true;
  set_f_u m c (clamp m.Machine.uncore_min_ghz m.Machine.uncore_max_ghz freq);
  (* restart the governor's accounting window: bytes observed before the
     switch were transferred at the old clock, and a later tick must not
     evaluate them against the new clock's capacity *)
  c.gov_last_t <- c.time_ns;
  p.gov_bytes <- 0

(* each outcome owns its counters: the walk's cache is shared *)
let copy_stats (s : Cache.level_stats) =
  {
    Cache.hits = s.Cache.hits;
    misses = s.Cache.misses;
    evictions = s.Cache.evictions;
    writebacks = s.Cache.writebacks;
  }

(* the walk's thread factor: a one-field float record, so reading it on
   every event does not box *)
type thread_factor = { mutable tf : float }

let walk m prog ~param_values (pols : policy array) =
  let n_pol = Array.length pols in
  Telemetry.tick c_walks;
  Telemetry.with_span "hwsim.run"
    ~args:
      [
        ("prog", prog.Ir.prog_name);
        ("machine", m.Machine.name);
        ( "uncore",
          String.concat ","
            (Array.to_list (Array.map (fun p -> policy_name p.p_uncore) pols)) );
      ]
  @@ fun () ->
  let cache = Cache.create m.Machine.caches in
  let line = Machine.line_bytes m in
  let line_f = float_of_int line in
  let hit_lat =
    Array.of_list (List.map (fun g -> g.Machine.hit_latency_ns) m.Machine.caches)
  in
  let n_levels = Array.length hit_lat in
  let mlp = m.Machine.mlp in
  let line_j = m.Machine.dram_nj_per_line *. 1e-9 in
  let par_threads = float_of_int m.Machine.threads in
  let w = { tf = 1.0 } in
  let parallel_depth = ref 0 in
  let total_flops = ref 0 and dram_event_bytes = ref 0 in
  let tables = Trace.tables prog in
  let stmts = tables.Trace.stmts and loops = tables.Trace.loops in
  (* each policy's cap for each loop: a depth-0 loop's first matching
     schedule entry *)
  let caps =
    Array.map
      (fun p ->
        Array.map
          (fun (l : Trace.loop_info) ->
            if l.Trace.l_depth = 0 then List.assoc_opt l.Trace.l_var p.p_caps else None)
          loops)
      pols
  in
  let on_access addr is_write =
    let code = Cache.access_code cache ~addr ~is_write in
    let tf = w.tf in
    let level = code lsr 1 in
    let hit = level < n_levels and wb = code land 1 = 1 in
    let hit_dt = if hit then hit_lat.(level) /. mlp /. tf else 0.0 in
    if not hit then dram_event_bytes := !dram_event_bytes + line;
    if wb then dram_event_bytes := !dram_event_bytes + line;
    for i = 0 to n_pol - 1 do
      let p = pols.(i) in
      let c = p.clk in
      if hit then advance m c ~threads:tf hit_dt
      else begin
        (* DRAM: latency amortized by MLP, bandwidth shared by all threads *)
        let lat = c.dram_lat_ns /. mlp /. tf in
        let bw_t = line_f /. c.dram_bw in
        advance m c ~threads:tf (Float.max lat bw_t);
        c.dram_j <- c.dram_j +. line_j;
        p.gov_bytes <- p.gov_bytes + line
      end;
      if wb then begin
        (* buffered write-back: occupies bandwidth, no added latency *)
        let bw_t = line_f /. c.dram_bw in
        advance m c ~threads:tf (bw_t *. 0.5);
        c.dram_j <- c.dram_j +. line_j;
        p.gov_bytes <- p.gov_bytes + line
      end;
      match p.p_uncore with `Governor -> governor_tick m p | `Fixed _ -> ()
    done
  in
  let on_stmt flops =
    total_flops := !total_flops + flops;
    let tf = w.tf in
    let dt = float_of_int flops *. m.Machine.flop_ns /. tf in
    for i = 0 to n_pol - 1 do
      advance m pols.(i).clk ~threads:tf dt
    done
  in
  let on_loop_enter k =
    if loops.(k).Trace.l_parallel then begin
      incr parallel_depth;
      w.tf <- par_threads
    end;
    for i = 0 to n_pol - 1 do
      match caps.(i).(k) with Some f -> apply_cap m pols.(i) ~threads:w.tf f | None -> ()
    done
  in
  let on_loop_exit k =
    if loops.(k).Trace.l_parallel then begin
      decr parallel_depth;
      if !parallel_depth = 0 then w.tf <- 1.0
    end
  in
  let on_chunk buf len =
    for e = 0 to len - 1 do
      let code = Array.unsafe_get buf e in
      let kind = code land 7 and payload = code asr 3 in
      if kind <= Trace.ev_write then on_access payload (kind = Trace.ev_write)
      else if kind = Trace.ev_stmt then on_stmt stmts.(payload).Trace.s_flops
      else if kind = Trace.ev_enter then on_loop_enter payload
      else on_loop_exit payload
    done
  in
  ignore (Trace.scan prog ~param_values ~on_chunk);
  (* final dirty lines drain to DRAM, at each policy's final clock *)
  let resident_dirty = Cache.flush_writebacks cache in
  let drain_bytes = resident_dirty * line in
  dram_event_bytes := !dram_event_bytes + drain_bytes;
  let dram_lines = Cache.dram_reads cache in
  let stats = Cache.stats cache in
  Array.map
    (fun p ->
      let c = p.clk in
      let bw_t = float_of_int drain_bytes /. c.dram_bw in
      advance m c ~threads:w.tf (bw_t *. 0.5);
      c.dram_j <-
        c.dram_j +. (float_of_int resident_dirty *. m.Machine.dram_nj_per_line *. 1e-9);
      let o =
        outcome_of m c ~flops:!total_flops ~dram_lines
          ~dram_bytes:!dram_event_bytes ~cache_stats:(Array.map copy_stats stats)
          ~cap_switches:p.cap_switches
      in
      (* bulk-report per outcome; the per-access path stays
         telemetry-free *)
      Telemetry.tick c_runs;
      if Telemetry.is_enabled () then begin
        Telemetry.add c_cap_switches p.cap_switches;
        Telemetry.add c_gov_switches p.gov_switches;
        Telemetry.add c_dram_lines dram_lines;
        List.iteri
          (fun i (g : Machine.cache_geometry) ->
            let level = String.lowercase_ascii g.Machine.level_name in
            Telemetry.count ~by:stats.(i).Cache.hits ("hwsim." ^ level ^ "_hits");
            Telemetry.count ~by:stats.(i).Cache.misses ("hwsim." ^ level ^ "_misses"))
          m.Machine.caches;
        Telemetry.observe "hwsim.time_s" o.time_s;
        Telemetry.observe "hwsim.energy_j" o.energy_j
      end;
      o)
    pols

let policy_of cfg (t : tenant) =
  {
    clk = new_clock cfg.machine cfg.uncore;
    p_uncore = cfg.uncore;
    p_caps = t.t_caps;
    gov_interval_ns = cfg.governor_interval_us *. 1e3;
    capped = false;
    cap_switches = 0;
    gov_switches = 0;
    gov_bytes = 0;
  }

let run_each cfgs =
  let with_tenant cfg =
    match cfg.tenants with
    | [ t ] -> (cfg, t)
    | _ -> invalid_arg "Sim.run_each: every config must have one tenant"
  in
  match List.map with_tenant cfgs with
  | [] -> []
  | (c0, t0) :: _ as all ->
    List.iter
      (fun (cfg, t) ->
        if
          not
            ((cfg.machine == c0.machine || cfg.machine = c0.machine)
            && t.t_prog == t0.t_prog && t.t_params = t0.t_params)
        then
          invalid_arg
            "Sim.run_each: configs must share the machine, the program and \
             its parameter values")
      all;
    Array.to_list
      (walk c0.machine t0.t_prog ~param_values:t0.t_params
         (Array.of_list (List.map (fun (cfg, t) -> policy_of cfg t) all)))

(* --- multi-tenant interleaving -------------------------------------- *)

(* Each tenant's trace is a coroutine: {!Trace.scan} packs its events
   into the tenant's chunk, and the chunk callback performs one
   [Chunk_full] effect per chunk; the scheduler still hands out one event
   at a time, always to the tenant whose local clock is furthest behind —
   an event-driven merge of N traces over one simulated timeline.  Upper
   cache levels are private per tenant; the LLC, the DRAM channel and the
   uncore clock are shared, which is where the interference this
   simulator exists to expose comes from.  The merge order depends on the
   tenants' clocks, so unlike the single-kernel engine the cache state
   here depends on the uncore policy: no two policies can share a walk.
   Events use [Interp]'s encoding: statement events index the tenant's
   statement table (for the flop count), loop events its loop table (for
   the parallel flag and, at depth 0, the cap). *)

type chunk = { mutable buf : int array; mutable len : int }
type _ Effect.t += Chunk_full : unit Effect.t
type step = More of (unit, step) Effect.Deep.continuation | Done

let cap_index caps var =
  let rec go i = function
    | [] -> -1
    | (v, _) :: rest -> if String.equal v var then i else go (i + 1) rest
  in
  go 0 caps

let start_trace (t : tenant) chunk : step =
  let open Effect.Deep in
  let on_chunk buf len =
    chunk.buf <- buf;
    chunk.len <- len;
    Effect.perform Chunk_full
  in
  match_with
    (fun () -> ignore (Trace.scan t.t_prog ~param_values:t.t_params ~on_chunk))
    ()
    {
      retc = (fun () -> Done);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Chunk_full -> Some (fun (k : (a, step) continuation) -> More k)
          | _ -> None);
    }

(* tenants live in disjoint address spaces: a process-sized stride keeps
   their lines from aliasing in the shared LLC's index function *)
let addr_stride = 1 lsl 36

type tstate = {
  s_tenant : tenant;
  s_caps : float array;  (* [t_caps]' frequencies, by [cap_index] *)
  s_stmts : Trace.stmt_info array;
  s_loops : Trace.loop_info array;
  s_loop_cap : int array;  (* per loop: its [cap_index] at depth 0, else -1 *)
  s_base : int;
  s_cores : int;
  s_priv : Cache.t option;
  s_clk : clock;  (* local time, core and DRAM zones *)
  s_chunk : chunk;
  mutable s_pos : int;  (* next unhandled event of [s_chunk] *)
  mutable s_next : step;
  mutable s_pdepth : int;
  mutable s_flops : int;
  mutable s_accesses : int;
  mutable s_dram_lines : int;
  mutable s_dram_bytes : int;
  mutable s_done : bool;
}

let[@inline] tf ts = if ts.s_pdepth > 0 then float_of_int ts.s_cores else 1.0

let[@inline] advance_t m ts dt_ns =
  if dt_ns > 0.0 then begin
    let c = ts.s_clk in
    c.time_ns <- c.time_ns +. dt_ns;
    c.core_j <- c.core_j +. (m.Machine.core_w_active *. tf ts *. dt_ns *. 1e-9)
  end

let run_multi cfg ~solo =
  Telemetry.tick c_multi_runs;
  let n = List.length cfg.tenants in
  Telemetry.add c_tenants n;
  Telemetry.add c_walks n;
  Telemetry.with_span "hwsim.simulate"
    ~args:
      [
        ("tenants", string_of_int n);
        ("machine", cfg.machine.Machine.name);
        ("uncore", policy_name cfg.uncore);
      ]
  @@ fun () ->
  let m = cfg.machine in
  let line = Machine.line_bytes m in
  let line_f = float_of_int line in
  let line_j = m.Machine.dram_nj_per_line *. 1e-9 in
  let mlp = m.Machine.mlp in
  let geoms = Array.of_list m.Machine.caches in
  let n_levels = Array.length geoms in
  let hit_lat = Array.map (fun g -> g.Machine.hit_latency_ns) geoms in
  let priv_geoms = Array.to_list (Array.sub geoms 0 (n_levels - 1)) in
  let llc = Cache.create [ geoms.(n_levels - 1) ] in
  let fair_cores = max 1 (m.Machine.threads / n) in
  let states =
    Array.of_list
      (List.mapi
         (fun i t ->
           let chunk = { buf = [||]; len = 0 } in
           let tables = Trace.tables t.t_prog in
           {
             s_tenant = t;
             s_caps = Array.of_list (List.map snd t.t_caps);
             s_stmts = tables.Trace.stmts;
             s_loops = tables.Trace.loops;
             s_loop_cap =
               Array.map
                 (fun (l : Trace.loop_info) ->
                   if l.Trace.l_depth = 0 then cap_index t.t_caps l.Trace.l_var else -1)
                 tables.Trace.loops;
             s_base = i * addr_stride;
             s_cores = (if t.t_cores > 0 then t.t_cores else fair_cores);
             s_priv =
               (if priv_geoms = [] then None else Some (Cache.create priv_geoms));
             s_clk = new_clock m cfg.uncore;
             s_chunk = chunk;
             s_pos = 0;
             s_next = start_trace t chunk;
             s_pdepth = 0;
             s_flops = 0;
             s_accesses = 0;
             s_dram_lines = 0;
             s_dram_bytes = 0;
             s_done = false;
           })
         cfg.tenants)
  in
  let n_active = ref n in
  (* the shared uncore clock: [time_ns] is how far along the global
     timeline — the minimum of the unfinished tenants' clocks, which is
     non-decreasing because the scheduler always steps the tenant
     furthest behind — the uncore zone has been integrated; its governor
     window runs on that timeline too *)
  let uc = new_clock m cfg.uncore in
  let capped = ref false in
  let cap_switches = ref 0 and gov_switches = ref 0 and gov_bytes = ref 0 in
  let governor_interval_ns = cfg.governor_interval_us *. 1e3 in
  let gmin () =
    let g = ref Float.infinity in
    for i = 0 to n - 1 do
      let ts = states.(i) in
      if (not ts.s_done) && ts.s_clk.time_ns < !g then g := ts.s_clk.time_ns
    done;
    if !g = Float.infinity then uc.time_ns else !g
  in
  (* exact for piecewise-constant f_u: called right before every clock
     change, and once more at the end of the run *)
  let sync_global () =
    let g = gmin () in
    if g > uc.time_ns then begin
      let dt = g -. uc.time_ns in
      uc.uncore_j <- uc.uncore_j +. (uc.uncore_w *. dt *. 1e-9);
      uc.uncore_tw <- uc.uncore_tw +. (uc.f_u *. dt);
      uc.time_ns <- g
    end
  in
  let governor_tick () =
    let g = gmin () in
    if (not !capped) && g -. uc.gov_last_t >= governor_interval_ns then begin
      let next = governor_next m uc ~bytes:!gov_bytes ~dt:(g -. uc.gov_last_t) in
      if Float.abs (next -. uc.f_u) > 1e-9 then begin
        incr gov_switches;
        sync_global ();
        set_f_u m uc next
      end;
      uc.gov_last_t <- g;
      gov_bytes := 0
    end
  in
  (* the DRAM channel is shared: each unfinished tenant gets an equal
     slice of the bandwidth available at the current uncore clock *)
  let shared_bw () = uc.dram_bw /. float_of_int (max 1 !n_active) in
  let dram_fill ts tfv =
    let lat = uc.dram_lat_ns /. mlp /. tfv in
    let bw_t = line_f /. shared_bw () in
    advance_t m ts (Float.max lat bw_t);
    ts.s_dram_lines <- ts.s_dram_lines + 1;
    ts.s_dram_bytes <- ts.s_dram_bytes + line;
    ts.s_clk.dram_j <- ts.s_clk.dram_j +. line_j;
    gov_bytes := !gov_bytes + line
  in
  let dram_writeback ts =
    (* buffered write-back: occupies the shared channel, no added latency *)
    let bw_t = line_f /. shared_bw () in
    advance_t m ts (bw_t *. 0.5);
    ts.s_dram_bytes <- ts.s_dram_bytes + line;
    ts.s_clk.dram_j <- ts.s_clk.dram_j +. line_j;
    gov_bytes := !gov_bytes + line
  in
  let apply_cap ts freq =
    incr cap_switches;
    sync_global ();
    (* the MSR write stalls the issuing tenant; the clock change is
       global and takes effect once the write retires *)
    advance_t m ts (m.Machine.cap_switch_us *. 1e3);
    capped := true;
    set_f_u m uc (clamp m.Machine.uncore_min_ghz m.Machine.uncore_max_ghz freq);
    uc.gov_last_t <- gmin ();
    gov_bytes := 0
  in
  (* [Cache.access_code]: the hit level above the writeback bit *)
  let llc_access ts ~addr ~is_write ~tfv =
    let code = Cache.access_code llc ~addr ~is_write in
    if code lsr 1 < 1 then advance_t m ts (hit_lat.(n_levels - 1) /. mlp /. tfv)
    else dram_fill ts tfv;
    if code land 1 = 1 then dram_writeback ts
  in
  let handle_access ts ~addr:addr0 ~is_write =
    ts.s_accesses <- ts.s_accesses + 1;
    let tfv = tf ts in
    let addr = addr0 + ts.s_base in
    (match ts.s_priv with
    | Some pc ->
      let code = Cache.access_code pc ~addr ~is_write in
      let level = code lsr 1 in
      if level < n_levels - 1 then advance_t m ts (hit_lat.(level) /. mlp /. tfv)
      else llc_access ts ~addr ~is_write:false ~tfv;
      (* a dirty line displaced from the private hierarchy drains through
         the shared write buffer *)
      if code land 1 = 1 then dram_writeback ts
    | None -> llc_access ts ~addr ~is_write ~tfv);
    match cfg.uncore with `Governor -> governor_tick () | `Fixed _ -> ()
  in
  let handle_event ts code =
    let kind = code land 7 and payload = code asr 3 in
    if kind <= Trace.ev_write then
      handle_access ts ~addr:payload ~is_write:(kind = Trace.ev_write)
    else if kind = Trace.ev_stmt then begin
      let flops = ts.s_stmts.(payload).Trace.s_flops in
      ts.s_flops <- ts.s_flops + flops;
      advance_t m ts (float_of_int flops *. m.Machine.flop_ns /. tf ts)
    end
    else if kind = Trace.ev_enter then begin
      if ts.s_loops.(payload).Trace.l_parallel then ts.s_pdepth <- ts.s_pdepth + 1;
      let cap = ts.s_loop_cap.(payload) in
      if cap >= 0 then apply_cap ts ts.s_caps.(cap)
    end
    else if ts.s_loops.(payload).Trace.l_parallel then ts.s_pdepth <- ts.s_pdepth - 1
  in
  let finish ts =
    (* the tenant's private dirty lines drain to DRAM as it retires *)
    (match ts.s_priv with
    | Some pc ->
      let dirty = Cache.flush_writebacks pc in
      if dirty > 0 then begin
        let bytes = dirty * line in
        let bw_t = float_of_int bytes /. shared_bw () in
        advance_t m ts (bw_t *. 0.5);
        ts.s_dram_bytes <- ts.s_dram_bytes + bytes;
        ts.s_clk.dram_j <-
          ts.s_clk.dram_j
          +. (float_of_int dirty *. m.Machine.dram_nj_per_line *. 1e-9);
        gov_bytes := !gov_bytes + bytes
      end
    | None -> ());
    ts.s_done <- true;
    decr n_active
  in
  (* the unfinished tenant furthest behind; ties go to the first *)
  let pick () =
    let best = ref (-1) in
    for i = 0 to n - 1 do
      let ts = states.(i) in
      if
        (not ts.s_done)
        && (!best < 0 || ts.s_clk.time_ns < states.(!best).s_clk.time_ns)
      then best := i
    done;
    states.(!best)
  in
  while !n_active > 0 do
    let ts = pick () in
    if ts.s_pos < ts.s_chunk.len then begin
      let code = ts.s_chunk.buf.(ts.s_pos) in
      ts.s_pos <- ts.s_pos + 1;
      handle_event ts code
    end
    else
      (* chunk used up: refill it (the next pick is this tenant again,
         nothing having moved its clock) or retire the tenant *)
      match ts.s_next with
      | Done -> finish ts
      | More k ->
        ts.s_chunk.len <- 0;
        ts.s_pos <- 0;
        ts.s_next <- Effect.Deep.continue k ()
  done;
  (* drain the shared LLC's resident dirty lines at the final clock *)
  let llc_dirty = Cache.flush_writebacks llc in
  let drain_bytes = llc_dirty * line in
  let drain_ns = float_of_int drain_bytes /. uc.dram_bw *. 0.5 in
  let drain_j = float_of_int llc_dirty *. m.Machine.dram_nj_per_line *. 1e-9 in
  let wall_ns =
    Array.fold_left (fun acc ts -> Float.max acc ts.s_clk.time_ns) 0.0 states
    +. drain_ns
  in
  (* close the uncore integral out to the end of the run; the shared
     clock then holds the machine's totals *)
  if wall_ns > uc.time_ns then begin
    let dt = wall_ns -. uc.time_ns in
    uc.uncore_j <- uc.uncore_j +. (uc.uncore_w *. dt *. 1e-9);
    uc.uncore_tw <- uc.uncore_tw +. (uc.f_u *. dt)
  end;
  uc.time_ns <- wall_ns;
  uc.core_j <- Array.fold_left (fun a ts -> a +. ts.s_clk.core_j) 0.0 states;
  uc.dram_j <-
    Array.fold_left (fun a ts -> a +. ts.s_clk.dram_j) 0.0 states +. drain_j;
  let dram_lines = Array.fold_left (fun a ts -> a + ts.s_dram_lines) 0 states in
  let cache_stats =
    Array.init n_levels (fun i ->
        if i = n_levels - 1 then (Cache.stats llc).(0)
        else
          Array.fold_left
            (fun (acc : Cache.level_stats) ts ->
              match ts.s_priv with
              | None -> acc
              | Some pc ->
                let s = (Cache.stats pc).(i) in
                {
                  Cache.hits = acc.Cache.hits + s.Cache.hits;
                  misses = acc.Cache.misses + s.Cache.misses;
                  evictions = acc.Cache.evictions + s.Cache.evictions;
                  writebacks = acc.Cache.writebacks + s.Cache.writebacks;
                })
            { Cache.hits = 0; misses = 0; evictions = 0; writebacks = 0 }
            states)
  in
  let combined =
    outcome_of m uc
      ~flops:(Array.fold_left (fun a ts -> a + ts.s_flops) 0 states)
      ~dram_lines
      ~dram_bytes:
        (Array.fold_left (fun a ts -> a + ts.s_dram_bytes) 0 states + drain_bytes)
      ~cache_stats ~cap_switches:!cap_switches
  in
  if Telemetry.is_enabled () then begin
    Telemetry.add c_cap_switches !cap_switches;
    Telemetry.add c_gov_switches !gov_switches;
    Telemetry.add c_dram_lines dram_lines;
    Telemetry.observe "hwsim.time_s" combined.time_s;
    Telemetry.observe "hwsim.energy_j" combined.energy_j
  end;
  (* shared energy (uncore + static) is attributed by residency: a
     tenant that occupies the machine longer answers for more of the
     always-on power *)
  let busy_total = Array.fold_left (fun a ts -> a +. ts.s_clk.time_ns) 0.0 states in
  let shared_j = uc.uncore_j +. combined.zones.static_j +. drain_j in
  let per_tenant =
    Array.to_list
      (Array.map
         (fun ts ->
           let t = ts.s_tenant in
           let time_s = ts.s_clk.time_ns *. 1e-9 in
           let share =
             if busy_total > 0.0 then ts.s_clk.time_ns /. busy_total
             else 1.0 /. float_of_int n
           in
           let solo_time_s =
             if solo then
               (run_each [ { cfg with tenants = [ t ] } ] |> List.hd).time_s
             else Float.nan
           in
           {
             o_tenant = t.t_name;
             o_time_s = time_s;
             o_energy_j =
               ts.s_clk.core_j +. ts.s_clk.dram_j +. (shared_j *. share);
             o_flops = ts.s_flops;
             o_accesses = ts.s_accesses;
             o_dram_lines = ts.s_dram_lines;
             o_dram_bytes = ts.s_dram_bytes;
             o_gflops =
               (if time_s > 0.0 then float_of_int ts.s_flops /. time_s /. 1e9
                else 0.0);
             o_bw_gbps =
               (if time_s > 0.0 then
                  float_of_int ts.s_dram_bytes /. time_s /. 1e9
                else 0.0);
             o_solo_time_s = solo_time_s;
             o_slowdown =
               (if solo && solo_time_s > 0.0 then time_s /. solo_time_s
                else Float.nan);
           })
         states)
  in
  { combined; per_tenant; n_tenants = n }

let simulate ?(solo = true) cfg =
  match cfg.tenants with
  | [] -> invalid_arg "Sim.simulate: empty tenant list"
  | [ t ] ->
    let o = List.hd (run_each [ cfg ]) in
    let accesses =
      if Array.length o.cache_stats > 0 then
        o.cache_stats.(0).Cache.hits + o.cache_stats.(0).Cache.misses
      else 0
    in
    {
      combined = o;
      per_tenant =
        [
          {
            o_tenant = t.t_name;
            o_time_s = o.time_s;
            o_energy_j = o.energy_j;
            o_flops = o.flops;
            o_accesses = accesses;
            o_dram_lines = o.dram_lines;
            o_dram_bytes = o.dram_bytes;
            o_gflops = o.achieved_gflops;
            o_bw_gbps = o.achieved_bw_gbps;
            o_solo_time_s = o.time_s;
            o_slowdown = 1.0;
          };
        ];
      n_tenants = 1;
    }
  | _ -> run_multi cfg ~solo

let run_one cfg = (simulate ~solo:false cfg).combined

let version = 1

(* --- bit-exact outcome codec for the result store -------------------- *)

module J = Telemetry.Json

let outcome_to_json o =
  let f = J.hex_float and i n = J.Int n in
  J.Obj
    [
      ("time_s", f o.time_s);
      ("energy_j", f o.energy_j);
      ("edp", f o.edp);
      ("avg_power_w", f o.avg_power_w);
      ("avg_uncore_ghz", f o.avg_uncore_ghz);
      ( "zones",
        J.Arr
          [ f o.zones.core_j; f o.zones.uncore_j; f o.zones.dram_j;
            f o.zones.static_j ] );
      ("flops", i o.flops);
      ("dram_lines", i o.dram_lines);
      ("dram_bytes", i o.dram_bytes);
      ( "cache_stats",
        J.Arr
          (Array.to_list
             (Array.map
                (fun (s : Cache.level_stats) ->
                  J.Arr
                    [ i s.Cache.hits; i s.Cache.misses; i s.Cache.evictions;
                      i s.Cache.writebacks ])
                o.cache_stats)) );
      ("cap_switches", i o.cap_switches);
      ("achieved_gflops", f o.achieved_gflops);
      ("achieved_bw_gbps", f o.achieved_bw_gbps);
    ]

let outcome_of_json =
  J.decode @@ fun j ->
  let open J in
  let f k = flt_of (get k j) and i k = int_of (get k j) in
  {
    time_s = f "time_s";
    energy_j = f "energy_j";
    edp = f "edp";
    avg_power_w = f "avg_power_w";
    avg_uncore_ghz = f "avg_uncore_ghz";
    zones =
      (match get "zones" j with
      | Arr [ c; u; d; s ] ->
        { core_j = flt_of c; uncore_j = flt_of u; dram_j = flt_of d;
          static_j = flt_of s }
      | _ -> raise Bad_shape);
    flops = i "flops";
    dram_lines = i "dram_lines";
    dram_bytes = i "dram_bytes";
    cache_stats =
      Array.of_list
        (List.map
           (function
             | Arr [ h; m; e; w ] ->
               { Cache.hits = int_of h; misses = int_of m;
                 evictions = int_of e; writebacks = int_of w }
             | _ -> raise Bad_shape)
           (arr_of (get "cache_stats" j)));
    cap_switches = i "cap_switches";
    achieved_gflops = f "achieved_gflops";
    achieved_bw_gbps = f "achieved_bw_gbps";
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "time=%.3g s energy=%.3g J edp=%.3g avg_power=%.1f W avg_uncore=%.2f GHz \
     gflops=%.2f bw=%.2f GB/s dram_lines=%d cap_switches=%d"
    o.time_s o.energy_j o.edp o.avg_power_w o.avg_uncore_ghz o.achieved_gflops
    o.achieved_bw_gbps o.dram_lines o.cap_switches

let pp_tenant_outcome ppf t =
  Format.fprintf ppf
    "%s: time=%.3g s energy=%.3g J gflops=%.2f bw=%.2f GB/s slowdown=%.2fx"
    t.o_tenant t.o_time_s t.o_energy_j t.o_gflops t.o_bw_gbps t.o_slowdown

let pp_multi_outcome ppf mo =
  Format.fprintf ppf "@[<v>%d tenants: %a" mo.n_tenants pp_outcome mo.combined;
  List.iter (fun t -> Format.fprintf ppf "@,  %a" pp_tenant_outcome t)
    mo.per_tenant;
  Format.fprintf ppf "@]"
