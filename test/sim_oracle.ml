(* The simulator's replaced engines, kept as a test-only oracle for the
   [sim_oracle] suite: the single-kernel walk with one interpreter run,
   one cache and one closure-and-ref integrator per policy, and the
   multi-tenant interleaver that performs one effect per trace event.
   Verbatim but for telemetry, which the oracle does not report, and for
   running on the other oracles: the closure interpreter
   ({!Interp_oracle}) and the pre-[Setassoc] cache ({!Cache_oracle}). *)

open Poly_ir
open Hwsim
open Sim

let clamp lo hi x = Float.max lo (Float.min hi x)

(* --- single-kernel engine ------------------------------------------- *)

(* The paper-faithful single-kernel walk: one inclusive cache hierarchy,
   one trace, one clock. *)
let run_single ~machine ~uncore ~caps ~governor_interval_us prog
    ~param_values =
  let m = machine in
  let cache = Cache_oracle.create m.Machine.caches in
  let line = Machine.line_bytes m in
  let hit_lat =
    Array.of_list (List.map (fun g -> g.Machine.hit_latency_ns) m.Machine.caches)
  in
  let n_levels = Array.length hit_lat in
  (* simulated state; all times in nanoseconds *)
  let time_ns = ref 0.0 in
  let core_j = ref 0.0 and uncore_j = ref 0.0 and dram_j = ref 0.0 in
  let uncore_time_weighted = ref 0.0 in
  (* [cap = None]: governor free-running; [Some f]: uncore pinned at f —
     PolyUFC writes both UFS limits, pinning the clock for the region *)
  let cap = ref None in
  let f_u =
    ref
      (match uncore with
      | `Fixed f -> clamp m.Machine.uncore_min_ghz m.Machine.uncore_max_ghz f
      | `Governor -> m.Machine.uncore_min_ghz)
  in
  let parallel_depth = ref 0 in
  let cap_switches = ref 0 in
  let gov_switches = ref 0 in
  let total_flops = ref 0 in
  let dram_event_bytes = ref 0 in
  (* governor state: DRAM bytes seen since the last adjustment *)
  let gov_last_t = ref 0.0 in
  let gov_bytes = ref 0 in
  let governor_interval_ns = governor_interval_us *. 1e3 in
  (* advance simulated time, integrating power over the interval *)
  let advance dt_ns =
    if dt_ns > 0.0 then begin
      time_ns := !time_ns +. dt_ns;
      let threads =
        if !parallel_depth > 0 then float_of_int m.Machine.threads else 1.0
      in
      core_j := !core_j +. (m.Machine.core_w_active *. threads *. dt_ns *. 1e-9);
      uncore_j := !uncore_j +. (Machine.uncore_power_w m ~f_u:!f_u *. dt_ns *. 1e-9);
      uncore_time_weighted := !uncore_time_weighted +. (!f_u *. dt_ns)
    end
  in
  let governor_tick () =
    if !cap = None && !time_ns -. !gov_last_t >= governor_interval_ns then begin
      let dt = !time_ns -. !gov_last_t in
      let bw_gbps = float_of_int !gov_bytes /. dt in
      (* demand ratio against the capability at the current clock; the
         driver targets the top of the range under any sustained memory
         activity (over-provisioning CB phases, cf. Sec. I) but ramps with
         control-loop latency and decays between phases *)
      let capacity = Machine.dram_bw_gbps m ~f_u:!f_u in
      let demand = bw_gbps /. Float.max 1e-9 capacity in
      let target =
        if demand > 0.01 then m.Machine.uncore_max_ghz
        else
          m.Machine.uncore_min_ghz
          +. ((m.Machine.uncore_max_ghz -. m.Machine.uncore_min_ghz)
             *. (demand /. 0.01))
      in
      let next =
        if target > !f_u then !f_u +. ((target -. !f_u) *. 0.5)
        else !f_u -. ((!f_u -. target) *. 0.15)
      in
      let next = clamp m.Machine.uncore_min_ghz m.Machine.uncore_max_ghz next in
      if Float.abs (next -. !f_u) > 1e-9 then incr gov_switches;
      f_u := next;
      gov_last_t := !time_ns;
      gov_bytes := 0
    end
  in
  let apply_cap freq =
    incr cap_switches;
    (* the MSR write stalls the pipeline for the cap-switch latency; the
       stall is integrated at the pre-switch clock — the uncore is still
       running at the old frequency while the write retires *)
    advance (m.Machine.cap_switch_us *. 1e3);
    let f = clamp m.Machine.uncore_min_ghz m.Machine.uncore_max_ghz freq in
    cap := Some f;
    f_u := f;
    (* restart the governor's accounting window: bytes observed before
       the switch were transferred at the old clock, and a later tick
       must not evaluate them against the new clock's capacity *)
    gov_last_t := !time_ns;
    gov_bytes := 0
  in
  let thread_factor () =
    if !parallel_depth > 0 then float_of_int m.Machine.threads else 1.0
  in
  let on_access ~stmt:_ ~array:_ ~addr ~bytes:_ ~is_write =
    let o = Cache_oracle.access cache ~addr ~is_write in
    let tf = thread_factor () in
    if o.Cache.hit_level < n_levels then
      advance (hit_lat.(o.Cache.hit_level) /. m.Machine.mlp /. tf)
    else begin
      (* DRAM: latency amortized by MLP, bandwidth shared by all threads *)
      let lat = Machine.dram_latency_ns m ~f_u:!f_u /. m.Machine.mlp /. tf in
      let bw_t =
        float_of_int line /. Machine.dram_bw_gbps m ~f_u:!f_u
      in
      advance (Float.max lat bw_t);
      dram_j := !dram_j +. (m.Machine.dram_nj_per_line *. 1e-9);
      gov_bytes := !gov_bytes + line;
      dram_event_bytes := !dram_event_bytes + line
    end;
    if o.Cache.dram_writeback then begin
      (* buffered write-back: occupies bandwidth, no added latency *)
      let bw_t = float_of_int line /. Machine.dram_bw_gbps m ~f_u:!f_u in
      advance (bw_t *. 0.5);
      dram_j := !dram_j +. (m.Machine.dram_nj_per_line *. 1e-9);
      gov_bytes := !gov_bytes + line;
      dram_event_bytes := !dram_event_bytes + line
    end;
    (match uncore with `Governor -> governor_tick () | `Fixed _ -> ())
  in
  let on_stmt ~stmt:_ ~flops =
    total_flops := !total_flops + flops;
    advance (float_of_int flops *. m.Machine.flop_ns /. thread_factor ())
  in
  let on_loop_enter ~var ~depth ~parallel =
    if parallel then incr parallel_depth;
    if depth = 0 then
      match List.assoc_opt var caps with
      | Some f -> apply_cap f
      | None -> ()
  in
  (* track parallel region exit *)
  let parallel_stack = ref [] in
  let cb =
    {
      Interp.on_access;
      on_stmt;
      on_loop_enter =
        (fun ~var ~depth ~parallel ->
          parallel_stack := parallel :: !parallel_stack;
          on_loop_enter ~var ~depth ~parallel);
      on_loop_exit =
        (fun ~var:_ ~depth:_ ->
          match !parallel_stack with
          | p :: rest ->
            parallel_stack := rest;
            if p then decr parallel_depth
          | [] -> ());
    }
  in
  let _res = Interp_oracle.run ~compute:false prog ~param_values cb in
  (* final dirty lines drain to DRAM *)
  let resident_dirty = Cache_oracle.flush_writebacks cache in
  let drain_bytes = resident_dirty * line in
  let bw_t = float_of_int drain_bytes /. Machine.dram_bw_gbps m ~f_u:!f_u in
  advance (bw_t *. 0.5);
  dram_j := !dram_j +. (float_of_int resident_dirty *. m.Machine.dram_nj_per_line *. 1e-9);
  dram_event_bytes := !dram_event_bytes + drain_bytes;
  let time_s = !time_ns *. 1e-9 in
  let static_j = m.Machine.p_static_w *. time_s in
  let energy_j = !core_j +. !uncore_j +. !dram_j +. static_j in
  let dram_lines = Cache_oracle.dram_reads cache in
  {
    time_s;
    energy_j;
    edp = energy_j *. time_s;
    avg_power_w = (if time_s > 0.0 then energy_j /. time_s else 0.0);
    avg_uncore_ghz =
      (if !time_ns > 0.0 then !uncore_time_weighted /. !time_ns
       else !f_u);
    zones = { core_j = !core_j; uncore_j = !uncore_j; dram_j = !dram_j; static_j };
    flops = !total_flops;
    dram_lines;
    dram_bytes = !dram_event_bytes;
    cache_stats = Cache_oracle.stats cache;
    cap_switches = !cap_switches;
    achieved_gflops =
      (if time_s > 0.0 then float_of_int !total_flops /. time_s /. 1e9 else 0.0);
    achieved_bw_gbps =
      (if time_s > 0.0 then
         float_of_int (dram_lines * line) /. time_s /. 1e9
       else 0.0);
  }

(* --- multi-tenant interleaving -------------------------------------- *)

(* Each tenant's trace is a coroutine: the interpreter's push callbacks
   perform a [Yield] effect per event, and the scheduler resumes the
   tenant whose local clock is furthest behind — an event-driven merge
   of N traces over one simulated timeline.  Upper cache levels are
   private per tenant; the LLC, the DRAM channel and the uncore clock
   are shared, which is where the interference this simulator exists to
   expose comes from. *)

type ev =
  | E_access of { addr : int; is_write : bool }
  | E_flops of int
  | E_enter of { var : string; depth : int; parallel : bool }
  | E_exit

type _ Effect.t += Yield : ev -> unit Effect.t

type step =
  | Pending of ev * (unit, step) Effect.Deep.continuation
  | Finished

let start_trace prog ~param_values : step =
  let open Effect.Deep in
  let cb =
    {
      Interp.on_access =
        (fun ~stmt:_ ~array:_ ~addr ~bytes:_ ~is_write ->
          Effect.perform (Yield (E_access { addr; is_write })));
      on_stmt =
        (fun ~stmt:_ ~flops -> Effect.perform (Yield (E_flops flops)));
      on_loop_enter =
        (fun ~var ~depth ~parallel ->
          Effect.perform (Yield (E_enter { var; depth; parallel })));
      on_loop_exit = (fun ~var:_ ~depth:_ -> Effect.perform (Yield E_exit));
    }
  in
  match_with
    (fun () -> ignore (Interp_oracle.run ~compute:false prog ~param_values cb))
    ()
    {
      retc = (fun () -> Finished);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Yield ev ->
            Some
              (fun (k : (a, step) continuation) ->
                (Pending (ev, k) : step))
          | _ -> None);
    }

(* tenants live in disjoint address spaces: a process-sized stride keeps
   their lines from aliasing in the shared LLC's index function *)
let addr_stride = 1 lsl 36

type tstate = {
  s_tenant : tenant;
  s_base : int;
  s_cores : int;
  s_priv : Cache_oracle.t option;
  mutable s_next : step;
  mutable s_time : float; (* local clock, ns *)
  mutable s_pdepth : int;
  mutable s_pstack : bool list;
  mutable s_flops : int;
  mutable s_accesses : int;
  mutable s_dram_lines : int;
  mutable s_dram_bytes : int;
  mutable s_core_j : float;
  mutable s_dram_j : float;
  mutable s_done : bool;
}

let run_multi cfg ~solo =
  let n = List.length cfg.tenants in
  let m = cfg.machine in
  let line = Machine.line_bytes m in
  let geoms = Array.of_list m.Machine.caches in
  let n_levels = Array.length geoms in
  let hit_lat = Array.map (fun g -> g.Machine.hit_latency_ns) geoms in
  let priv_geoms = Array.to_list (Array.sub geoms 0 (n_levels - 1)) in
  let llc = Cache_oracle.create [ geoms.(n_levels - 1) ] in
  let fair_cores = max 1 (m.Machine.threads / n) in
  let states =
    Array.of_list
      (List.mapi
         (fun i t ->
           {
             s_tenant = t;
             s_base = i * addr_stride;
             s_cores = (if t.t_cores > 0 then t.t_cores else fair_cores);
             s_priv =
               (if priv_geoms = [] then None else Some (Cache_oracle.create priv_geoms));
             s_next = start_trace t.t_prog ~param_values:t.t_params;
             s_time = 0.0;
             s_pdepth = 0;
             s_pstack = [];
             s_flops = 0;
             s_accesses = 0;
             s_dram_lines = 0;
             s_dram_bytes = 0;
             s_core_j = 0.0;
             s_dram_j = 0.0;
             s_done = false;
           })
         cfg.tenants)
  in
  let n_active = ref n in
  (* shared uncore clock + governor, as in the single-kernel engine *)
  let cap = ref None in
  let f_u =
    ref
      (match cfg.uncore with
      | `Fixed f -> clamp m.Machine.uncore_min_ghz m.Machine.uncore_max_ghz f
      | `Governor -> m.Machine.uncore_min_ghz)
  in
  let cap_switches = ref 0 in
  let gov_switches = ref 0 in
  let gov_last_g = ref 0.0 in
  let gov_bytes = ref 0 in
  let governor_interval_ns = cfg.governor_interval_us *. 1e3 in
  (* uncore energy integrates over the global timeline: the minimum of
     the unfinished tenants' clocks, which is non-decreasing because the
     scheduler always steps the tenant furthest behind *)
  let last_g = ref 0.0 in
  let uncore_j = ref 0.0 in
  let uncore_tw = ref 0.0 in
  let gmin () =
    let g = ref Float.infinity in
    Array.iter (fun ts -> if not ts.s_done && ts.s_time < !g then g := ts.s_time) states;
    if !g = Float.infinity then !last_g else !g
  in
  (* exact for piecewise-constant f_u: called right before every clock
     change, and once more at the end of the run *)
  let sync_global () =
    let g = gmin () in
    if g > !last_g then begin
      let dt = g -. !last_g in
      uncore_j := !uncore_j +. (Machine.uncore_power_w m ~f_u:!f_u *. dt *. 1e-9);
      uncore_tw := !uncore_tw +. (!f_u *. dt);
      last_g := g
    end
  in
  let governor_tick () =
    let g = gmin () in
    if !cap = None && g -. !gov_last_g >= governor_interval_ns then begin
      let dt = g -. !gov_last_g in
      let bw_gbps = float_of_int !gov_bytes /. dt in
      let capacity = Machine.dram_bw_gbps m ~f_u:!f_u in
      let demand = bw_gbps /. Float.max 1e-9 capacity in
      let target =
        if demand > 0.01 then m.Machine.uncore_max_ghz
        else
          m.Machine.uncore_min_ghz
          +. ((m.Machine.uncore_max_ghz -. m.Machine.uncore_min_ghz)
             *. (demand /. 0.01))
      in
      let next =
        if target > !f_u then !f_u +. ((target -. !f_u) *. 0.5)
        else !f_u -. ((!f_u -. target) *. 0.15)
      in
      let next = clamp m.Machine.uncore_min_ghz m.Machine.uncore_max_ghz next in
      if Float.abs (next -. !f_u) > 1e-9 then begin
        incr gov_switches;
        sync_global ();
        f_u := next
      end;
      gov_last_g := g;
      gov_bytes := 0
    end
  in
  let tf ts = if ts.s_pdepth > 0 then float_of_int ts.s_cores else 1.0 in
  let advance_t ts dt_ns =
    if dt_ns > 0.0 then begin
      ts.s_time <- ts.s_time +. dt_ns;
      ts.s_core_j <-
        ts.s_core_j +. (m.Machine.core_w_active *. tf ts *. dt_ns *. 1e-9)
    end
  in
  (* the DRAM channel is shared: each unfinished tenant gets an equal
     slice of the bandwidth available at the current uncore clock *)
  let shared_bw () =
    Machine.dram_bw_gbps m ~f_u:!f_u /. float_of_int (max 1 !n_active)
  in
  let dram_fill ts tfv =
    let lat = Machine.dram_latency_ns m ~f_u:!f_u /. m.Machine.mlp /. tfv in
    let bw_t = float_of_int line /. shared_bw () in
    advance_t ts (Float.max lat bw_t);
    ts.s_dram_lines <- ts.s_dram_lines + 1;
    ts.s_dram_bytes <- ts.s_dram_bytes + line;
    ts.s_dram_j <- ts.s_dram_j +. (m.Machine.dram_nj_per_line *. 1e-9);
    gov_bytes := !gov_bytes + line
  in
  let dram_writeback ts =
    (* buffered write-back: occupies the shared channel, no added latency *)
    let bw_t = float_of_int line /. shared_bw () in
    advance_t ts (bw_t *. 0.5);
    ts.s_dram_bytes <- ts.s_dram_bytes + line;
    ts.s_dram_j <- ts.s_dram_j +. (m.Machine.dram_nj_per_line *. 1e-9);
    gov_bytes := !gov_bytes + line
  in
  let apply_cap ts freq =
    incr cap_switches;
    sync_global ();
    (* the MSR write stalls the issuing tenant; the clock change is
       global and takes effect once the write retires *)
    advance_t ts (m.Machine.cap_switch_us *. 1e3);
    let f = clamp m.Machine.uncore_min_ghz m.Machine.uncore_max_ghz freq in
    cap := Some f;
    f_u := f;
    gov_last_g := gmin ();
    gov_bytes := 0
  in
  let llc_access ts ~addr ~is_write ~tfv =
    let o = Cache_oracle.access llc ~addr ~is_write in
    if o.Cache.hit_level < 1 then
      advance_t ts (hit_lat.(n_levels - 1) /. m.Machine.mlp /. tfv)
    else dram_fill ts tfv;
    if o.Cache.dram_writeback then dram_writeback ts
  in
  let handle_access ts ~addr:addr0 ~is_write =
    ts.s_accesses <- ts.s_accesses + 1;
    let tfv = tf ts in
    let addr = addr0 + ts.s_base in
    (match ts.s_priv with
    | Some pc ->
      let o = Cache_oracle.access pc ~addr ~is_write in
      if o.Cache.hit_level < n_levels - 1 then
        advance_t ts (hit_lat.(o.Cache.hit_level) /. m.Machine.mlp /. tfv)
      else llc_access ts ~addr ~is_write:false ~tfv;
      (* a dirty line displaced from the private hierarchy drains through
         the shared write buffer *)
      if o.Cache.dram_writeback then dram_writeback ts
    | None -> llc_access ts ~addr ~is_write ~tfv);
    match cfg.uncore with `Governor -> governor_tick () | `Fixed _ -> ()
  in
  let handle_event ts = function
    | E_access { addr; is_write } -> handle_access ts ~addr ~is_write
    | E_flops k ->
      ts.s_flops <- ts.s_flops + k;
      advance_t ts (float_of_int k *. m.Machine.flop_ns /. tf ts)
    | E_enter { var; depth; parallel } ->
      ts.s_pstack <- parallel :: ts.s_pstack;
      if parallel then ts.s_pdepth <- ts.s_pdepth + 1;
      if depth = 0 then (
        match List.assoc_opt var ts.s_tenant.t_caps with
        | Some f -> apply_cap ts f
        | None -> ())
    | E_exit -> (
      match ts.s_pstack with
      | p :: rest ->
        ts.s_pstack <- rest;
        if p then ts.s_pdepth <- ts.s_pdepth - 1
      | [] -> ())
  in
  let finish ts =
    (* the tenant's private dirty lines drain to DRAM as it retires *)
    (match ts.s_priv with
    | Some pc ->
      let dirty = Cache_oracle.flush_writebacks pc in
      if dirty > 0 then begin
        let bytes = dirty * line in
        let bw_t = float_of_int bytes /. shared_bw () in
        advance_t ts (bw_t *. 0.5);
        ts.s_dram_bytes <- ts.s_dram_bytes + bytes;
        ts.s_dram_j <-
          ts.s_dram_j
          +. (float_of_int dirty *. m.Machine.dram_nj_per_line *. 1e-9);
        gov_bytes := !gov_bytes + bytes
      end
    | None -> ());
    ts.s_done <- true;
    decr n_active
  in
  let pick () =
    let best = ref (-1) in
    Array.iteri
      (fun i ts ->
        if not ts.s_done then
          if !best < 0 || ts.s_time < states.(!best).s_time then best := i)
      states;
    states.(!best)
  in
  while !n_active > 0 do
    let ts = pick () in
    match ts.s_next with
    | Finished -> finish ts
    | Pending (ev, k) ->
      handle_event ts ev;
      ts.s_next <- Effect.Deep.continue k ()
  done;
  (* drain the shared LLC's resident dirty lines at the final clock *)
  let llc_dirty = Cache_oracle.flush_writebacks llc in
  let drain_bytes = llc_dirty * line in
  let drain_ns =
    float_of_int drain_bytes /. Machine.dram_bw_gbps m ~f_u:!f_u *. 0.5
  in
  let drain_j = float_of_int llc_dirty *. m.Machine.dram_nj_per_line *. 1e-9 in
  let wall_ns =
    Array.fold_left (fun acc ts -> Float.max acc ts.s_time) 0.0 states
    +. drain_ns
  in
  (* close the uncore integral out to the end of the run *)
  if wall_ns > !last_g then begin
    let dt = wall_ns -. !last_g in
    uncore_j := !uncore_j +. (Machine.uncore_power_w m ~f_u:!f_u *. dt *. 1e-9);
    uncore_tw := !uncore_tw +. (!f_u *. dt);
    last_g := wall_ns
  end;
  let wall_s = wall_ns *. 1e-9 in
  let static_j = m.Machine.p_static_w *. wall_s in
  let core_j = Array.fold_left (fun a ts -> a +. ts.s_core_j) 0.0 states in
  let dram_j =
    Array.fold_left (fun a ts -> a +. ts.s_dram_j) 0.0 states +. drain_j
  in
  let energy_j = core_j +. !uncore_j +. dram_j +. static_j in
  let total_flops = Array.fold_left (fun a ts -> a + ts.s_flops) 0 states in
  let dram_lines = Array.fold_left (fun a ts -> a + ts.s_dram_lines) 0 states in
  let dram_bytes =
    Array.fold_left (fun a ts -> a + ts.s_dram_bytes) 0 states + drain_bytes
  in
  let cache_stats =
    Array.init n_levels (fun i ->
        if i = n_levels - 1 then (Cache_oracle.stats llc).(0)
        else
          Array.fold_left
            (fun (acc : Cache.level_stats) ts ->
              match ts.s_priv with
              | None -> acc
              | Some pc ->
                let s = (Cache_oracle.stats pc).(i) in
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
    {
      time_s = wall_s;
      energy_j;
      edp = energy_j *. wall_s;
      avg_power_w = (if wall_s > 0.0 then energy_j /. wall_s else 0.0);
      avg_uncore_ghz =
        (if wall_ns > 0.0 then !uncore_tw /. wall_ns else !f_u);
      zones = { core_j; uncore_j = !uncore_j; dram_j; static_j };
      flops = total_flops;
      dram_lines;
      dram_bytes;
      cache_stats;
      cap_switches = !cap_switches;
      achieved_gflops =
        (if wall_s > 0.0 then float_of_int total_flops /. wall_s /. 1e9
         else 0.0);
      achieved_bw_gbps =
        (if wall_s > 0.0 then
           float_of_int (dram_lines * line) /. wall_s /. 1e9
         else 0.0);
    }
  in
  (* shared energy (uncore + static) is attributed by residency: a
     tenant that occupies the machine longer answers for more of the
     always-on power *)
  let busy_total = Array.fold_left (fun a ts -> a +. ts.s_time) 0.0 states in
  let shared_j = !uncore_j +. static_j +. drain_j in
  let per_tenant =
    Array.to_list
      (Array.map
         (fun ts ->
           let time_s = ts.s_time *. 1e-9 in
           let share =
             if busy_total > 0.0 then ts.s_time /. busy_total
             else 1.0 /. float_of_int n
           in
           let solo_time_s =
             if solo then
               (run_single ~machine:m ~uncore:cfg.uncore
                  ~caps:ts.s_tenant.t_caps
                  ~governor_interval_us:cfg.governor_interval_us
                  ts.s_tenant.t_prog ~param_values:ts.s_tenant.t_params)
                 .time_s
             else Float.nan
           in
           {
             o_tenant = ts.s_tenant.t_name;
             o_time_s = time_s;
             o_energy_j = ts.s_core_j +. ts.s_dram_j +. (shared_j *. share);
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
    let o =
      run_single ~machine:cfg.machine ~uncore:cfg.uncore ~caps:t.t_caps
        ~governor_interval_us:cfg.governor_interval_us t.t_prog
        ~param_values:t.t_params
    in
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

