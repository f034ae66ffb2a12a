(* Test-only oracle for PolyUFC-CM: the per-access classifier that
   {!Cache_model.Model.analyze} replaced — a Hashtbl-indexed {!Lru} per
   set, a Hashtbl of lines already seen and the statement name hashed on
   every access, fed by the closure interpreter ({!Interp_oracle}) —
   kept verbatim apart from its telemetry, so the flat core can be
   diffed against it field for field. *)

open Cache_model
open Poly_ir
open Model

(* mutable per-level model state *)
type level_state = {
  geom : Hwsim.Machine.cache_geometry;
  sets : Lru.t array;  (* one per set; a single entry in fully-assoc mode *)
  n_sets : int;
  seen : (int, unit) Hashtbl.t;  (* lines ever touched: cold classification *)
  mutable c_presented : int;
  mutable c_cold : int;
  mutable c_capconf : int;
  mutable c_hits : int;
  mutable c_demand_hits : int;
}

let make_level mode (geom : Hwsim.Machine.cache_geometry) =
  let lines_total = geom.Hwsim.Machine.size_bytes / geom.Hwsim.Machine.line_bytes in
  let n_sets, cap =
    match mode with
    | Set_associative -> (lines_total / geom.Hwsim.Machine.assoc, geom.Hwsim.Machine.assoc)
    | Fully_associative -> (1, lines_total)
  in
  {
    geom;
    sets = Array.init n_sets (fun _ -> Lru.create ~capacity:cap);
    n_sets;
    seen = Hashtbl.create 4096;
    c_presented = 0;
    c_cold = 0;
    c_capconf = 0;
    c_hits = 0;
    c_demand_hits = 0;
  }

let rec has_parallel_loop = function
  | Ir.Stmt _ -> false
  | Ir.Loop l -> l.Ir.parallel || List.exists has_parallel_loop l.Ir.body
  | Ir.If b ->
    List.exists has_parallel_loop b.Ir.then_
    || List.exists has_parallel_loop b.Ir.else_

type stmt_state = {
  ss_presented : int array;
  ss_cold : int array;
  ss_capconf : int array;
  ss_hits : int array;
  ss_demand_hits : int array;
  mutable ss_flops : int;
}

let analyze ?(ctx = Engine.Ctx.none) ?(mode = Set_associative)
    ?(apply_thread_heuristic = true) ?(set_sampling = 1) ~machine prog
    ~param_values =
  if set_sampling < 1 then invalid_arg "Model.analyze: set_sampling < 1";
  (* resource governance: the access-stream enumeration below is the
     dominant compile cost (Table IV), so each simulated access is
     metered against the context's budget/cancellation in batches *)
  let governed = ctx.Engine.Ctx.budget <> None || ctx.Engine.Ctx.cancel <> None in
  let gov_pending = ref 0 in
  let gov_meter () =
    if governed then begin
      incr gov_pending;
      if !gov_pending >= 8192 then begin
        Engine.Ctx.spend ctx !gov_pending;
        gov_pending := 0
      end
    end
  in
  let sampling = match mode with Fully_associative -> 1 | Set_associative -> set_sampling in
  let levels =
    Array.of_list (List.map (make_level mode) machine.Hwsim.Machine.caches)
  in
  let n_levels = Array.length levels in
  let stmt_tbl : (string, stmt_state) Hashtbl.t = Hashtbl.create 16 in
  let stmt_order = ref [] in
  let stmt_state name =
    match Hashtbl.find_opt stmt_tbl name with
    | Some s -> s
    | None ->
      let s =
        {
          ss_presented = Array.make n_levels 0;
          ss_cold = Array.make n_levels 0;
          ss_capconf = Array.make n_levels 0;
          ss_hits = Array.make n_levels 0;
          ss_demand_hits = Array.make n_levels 0;
          ss_flops = 0;
        }
      in
      Hashtbl.add stmt_tbl name s;
      stmt_order := name :: !stmt_order;
      s
  in
  let on_access ~stmt ~array:_ ~addr ~bytes:_ ~is_write =
    (* set-associative mode rejects every address below the layout, also
       those less than a line below it, which truncate to line 0 *)
    if mode = Set_associative && addr < 0 then invalid_arg "index out of bounds";
    gov_meter ();
    let ss = stmt_state stmt in
    (* write-through: level i+1 sees level i's misses and all writes *)
    let rec level i missed_above =
      if i < n_levels && (i = 0 || missed_above || is_write) then begin
        let demand = i = 0 || missed_above in
        let st = levels.(i) in
        let line = addr / st.geom.Hwsim.Machine.line_bytes in
        let set = if st.n_sets = 1 then 0 else line mod st.n_sets in
        (* Bullseye-style sampling applies to the last level only: the
           shallower levels keep exact state so the write-through
           presentation chain stays unbiased *)
        if sampling > 1 && i = n_levels - 1 && set mod sampling <> 0 then ()
        else begin
        st.c_presented <- st.c_presented + 1;
        ss.ss_presented.(i) <- ss.ss_presented.(i) + 1;
        let in_lru = Lru.touch st.sets.(set) line in
        let missed =
          if in_lru then begin
            st.c_hits <- st.c_hits + 1;
            ss.ss_hits.(i) <- ss.ss_hits.(i) + 1;
            if demand then begin
              st.c_demand_hits <- st.c_demand_hits + 1;
              ss.ss_demand_hits.(i) <- ss.ss_demand_hits.(i) + 1
            end;
            false
          end
          else begin
            if Hashtbl.mem st.seen line then begin
              st.c_capconf <- st.c_capconf + 1;
              ss.ss_capconf.(i) <- ss.ss_capconf.(i) + 1
            end
            else begin
              Hashtbl.add st.seen line ();
              st.c_cold <- st.c_cold + 1;
              ss.ss_cold.(i) <- ss.ss_cold.(i) + 1
            end;
            true
          end
        in
        level (i + 1) missed
        end
      end
    in
    level 0 false
  in
  (* only last-level counters are scaled back up *)
  let scale_at i x = if i = n_levels - 1 then x * sampling else x in
  let cb =
    {
      (Interp.with_access on_access) with
      Interp.on_stmt =
        (fun ~stmt ~flops ->
          let ss = stmt_state stmt in
          ss.ss_flops <- ss.ss_flops + flops);
    }
  in
  let res = Interp_oracle.run ~compute:false prog ~param_values cb in
  if governed then Engine.Ctx.spend ctx !gov_pending;
  let counts =
    Array.mapi
      (fun i st ->
        {
          level_name = st.geom.Hwsim.Machine.level_name;
          presented = scale_at i st.c_presented;
          cold = scale_at i st.c_cold;
          capacity_conflict = scale_at i st.c_capconf;
          hits = scale_at i st.c_hits;
          demand_hits = scale_at i st.c_demand_hits;
        })
      levels
  in
  let divisor =
    if
      apply_thread_heuristic
      && List.exists has_parallel_loop prog.Ir.body
      && machine.Hwsim.Machine.threads > 1
    then machine.Hwsim.Machine.threads
    else 1
  in
  let llc = counts.(n_levels - 1) in
  let miss_llc = float_of_int (total_misses llc) /. float_of_int divisor in
  let line = (Hwsim.Machine.llc machine).Hwsim.Machine.line_bytes in
  let per_stmt =
    List.rev_map
      (fun name ->
        let ss = Hashtbl.find stmt_tbl name in
        let stmt_levels =
          Array.init n_levels (fun i ->
              {
                level_name = counts.(i).level_name;
                presented = scale_at i ss.ss_presented.(i);
                cold = scale_at i ss.ss_cold.(i);
                capacity_conflict = scale_at i ss.ss_capconf.(i);
                hits = scale_at i ss.ss_hits.(i);
                demand_hits = scale_at i ss.ss_demand_hits.(i);
              })
        in
        let m_llc =
          float_of_int (total_misses stmt_levels.(n_levels - 1))
          /. float_of_int divisor
        in
        let q = m_llc *. float_of_int line in
        ( name,
          {
            stmt_levels;
            stmt_flops = ss.ss_flops;
            stmt_oi =
              (if q > 0.0 then float_of_int ss.ss_flops /. q
               else Float.infinity);
          } ))
      !stmt_order
  in
  let q_dram = miss_llc *. float_of_int line in
  let hit_ratios =
    Array.map
      (fun c ->
        if c.presented = 0 then 1.0
        else float_of_int c.hits /. float_of_int c.presented)
      counts
  in
  {
    machine;
    mode;
    levels = counts;
    per_stmt;
    threads_divisor = divisor;
    miss_llc;
    q_dram_bytes = q_dram;
    flops = res.Interp.flops;
    oi =
      (if q_dram > 0.0 then float_of_int res.Interp.flops /. q_dram
       else Float.infinity);
    hit_ratios;
    miss_ratios = Array.map (fun h -> 1.0 -. h) hit_ratios;
    fidelity = Engine.Fidelity.Exact;
  }
