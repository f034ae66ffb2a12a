open Poly_ir
open Presburger

type assoc_mode = Set_associative | Fully_associative

let c_analyze = Telemetry.counter "cache_model.analyze"
let c_analyze_approx = Telemetry.counter "cache_model.analyze_approx"
let c_accesses = Telemetry.counter "cache_model.accesses"
let c_llc_misses = Telemetry.counter "cache_model.llc_misses"

type level_counts = {
  level_name : string;
  presented : int;
  cold : int;
  capacity_conflict : int;
  hits : int;
  demand_hits : int;
}

type stmt_counts = {
  stmt_levels : level_counts array;
  stmt_flops : int;
  stmt_oi : float;
}

type result = {
  machine : Hwsim.Machine.t;
  mode : assoc_mode;
  levels : level_counts array;
  per_stmt : (string * stmt_counts) list;
  threads_divisor : int;
  miss_llc : float;
  q_dram_bytes : float;
  flops : int;
  oi : float;
  hit_ratios : float array;
  miss_ratios : float array;
  fidelity : Engine.Fidelity.t;
}

let total_misses lc = lc.cold + lc.capacity_conflict

(* Per-level model state.  Set-associative levels run on the shared
   {!Hwsim.Setassoc} tag-array core; fully-associative mode keeps {!Lru}
   because its one set holds the whole level, 8–16 K lines, where a scan
   would not pay.  Hit and miss counts live per statement only (see
   [analyze]). *)
type resident =
  | Tags of Hwsim.Setassoc.t  (* set-assoc: the level's tag array *)
  | Full of Lru.t  (* fully-assoc: the level's single LRU *)

type level_state = {
  geom : Hwsim.Machine.cache_geometry;
  line_div : Hwsim.Setassoc.divisor;
  n_sets : int;
  set_div : Hwsim.Setassoc.divisor;
  resident : resident;  (* the lines the level holds *)
  seen : Bytes.t;  (* bit [l]: line [l] of the layout ever touched *)
  seen_lines : int;
  seen_beyond : (int, unit) Hashtbl.t;  (* touched lines outside the layout *)
}

let make_level mode ~footprint (geom : Hwsim.Machine.cache_geometry) =
  let line_bytes = geom.Hwsim.Machine.line_bytes in
  let lines_total = geom.Hwsim.Machine.size_bytes / line_bytes in
  let n_sets, resident =
    match mode with
    | Set_associative ->
      let n_sets = lines_total / geom.Hwsim.Machine.assoc in
      ( n_sets,
        (* no line is [min_int]: lines are byte addresses divided by ℓ ≥ 2 *)
        Tags
          (Hwsim.Setassoc.create ~sets:n_sets ~ways:geom.Hwsim.Machine.assoc
             ~empty:min_int ~dirty:false) )
    | Fully_associative -> (1, Full (Lru.create ~capacity:lines_total))
  in
  let seen_lines = (footprint + line_bytes - 1) / line_bytes in
  {
    geom;
    line_div = Hwsim.Setassoc.divisor line_bytes;
    n_sets;
    set_div = Hwsim.Setassoc.divisor n_sets;
    resident;
    seen = Bytes.make ((seen_lines + 7) / 8) '\000';
    seen_lines;
    seen_beyond = Hashtbl.create 16;
  }

(* touch [line] in set [set] with {!Lru.touch}'s semantics: [true] on a
   hit; an address a line or more below the layout gives a negative set,
   which set-associative mode rejects ([analyze_gov] names the access;
   [analyze] rejects the ones less than a line below after its walk) *)
let[@inline] touch st set line =
  match st.resident with
  | Tags tags -> Hwsim.Setassoc.touch tags ~set line
  | Full lru -> Lru.touch lru line

(* record [line] as seen; [true] on its first touch *)
let first_touch st line =
  if line >= 0 && line < st.seen_lines then begin
    let byte = Char.code (Bytes.get st.seen (line lsr 3)) in
    let bit = 1 lsl (line land 7) in
    if byte land bit <> 0 then false
    else begin
      Bytes.set st.seen (line lsr 3) (Char.chr (byte lor bit));
      true
    end
  end
  else if Hashtbl.mem st.seen_beyond line then false
  else begin
    Hashtbl.add st.seen_beyond line ();
    true
  end

let rec has_parallel_loop = function
  | Ir.Stmt _ -> false
  | Ir.Loop l -> l.Ir.parallel || List.exists has_parallel_loop l.Ir.body
  | Ir.If b ->
    List.exists has_parallel_loop b.Ir.then_
    || List.exists has_parallel_loop b.Ir.else_

(* A statement's counters: one flat array, [n_fields] per level *)
type stmt_state = { counts : int array; mutable ss_flops : int }

let n_fields = 5
let f_presented = 0
let f_cold = 1
let f_capconf = 2
let f_hits = 3
let f_demand_hits = 4

let stmt_state_make n_levels = { counts = Array.make (n_levels * n_fields) 0; ss_flops = 0 }

let[@inline] bump (c : int array) i = c.(i) <- c.(i) + 1

let analyze ?(ctx = Engine.Ctx.none) ?(mode = Set_associative)
    ?(apply_thread_heuristic = true) ?(set_sampling = 1) ~machine prog
    ~param_values =
  Telemetry.tick c_analyze;
  Telemetry.with_span "cache_model.analyze"
    ~args:[ ("prog", prog.Ir.prog_name) ]
  @@ fun () ->
  if set_sampling < 1 then invalid_arg "Model.analyze: set_sampling < 1";
  (* resource governance: the access-stream enumeration below is the
     dominant compile cost (Table IV), so its accesses are metered against
     the context's budget/cancellation once per chunk *)
  let governed = ctx.Engine.Ctx.budget <> None || ctx.Engine.Ctx.cancel <> None in
  let sampling = match mode with Fully_associative -> 1 | Set_associative -> set_sampling in
  (* the seen-line bitsets span the layout; an invalid program gets empty
     ones here and its error from [Trace.scan] below *)
  let footprint =
    match Layout.of_program prog ~param_values with
    | l -> l.Layout.footprint
    | exception Invalid_argument _ -> 0
  in
  let levels =
    Array.of_list
      (List.map (make_level mode ~footprint) machine.Hwsim.Machine.caches)
  in
  let n_levels = Array.length levels in
  let last = n_levels - 1 in
  (* per-statement counters, by the trace's statement index, created on
     a statement's first instance *)
  let tables = Trace.tables prog in
  let states = Array.make (Array.length tables.Trace.stmts) None in
  let stmt_order = ref [] in
  let state k =
    match states.(k) with
    | Some s -> s
    | None ->
      let s = stmt_state_make n_levels in
      states.(k) <- Some s;
      stmt_order := k :: !stmt_order;
      s
  in
  let cur = ref (stmt_state_make n_levels) in
  (* [access_from ss addr is_write i0] presents the access to levels
     [i0..], level [i0] seeing it as a demand access when [i0 = 0] and
     as a write passed down by a hit otherwise *)
  let access_from ss addr is_write i0 =
    let c = ss.counts in
    (* write-through: level i+1 sees level i's misses and all writes *)
    let i = ref i0 and missed = ref false in
    while !i < n_levels && (!i = 0 || !missed || is_write) do
      let li = !i in
      let demand = li = 0 || !missed in
      let st = levels.(li) in
      let line = Hwsim.Setassoc.div st.line_div addr in
      let set = if st.n_sets = 1 then 0 else Hwsim.Setassoc.rem st.set_div line in
      (* Bullseye-style sampling applies to the last level only: the
         shallower levels keep exact state so the write-through
         presentation chain stays unbiased *)
      if sampling > 1 && li = last && set mod sampling <> 0 then i := n_levels
      else begin
        let at = li * n_fields in
        bump c (at + f_presented);
        if touch st set line then begin
          bump c (at + f_hits);
          if demand then bump c (at + f_demand_hits);
          missed := false
        end
        else begin
          bump c (at + if first_touch st line then f_cold else f_capconf);
          missed := true
        end;
        i := li + 1
      end
    done
  in
  (* The L1 MRU fast path.  An access whose line is the MRU way of its L1
     set is an L1 hit that moves no tag and touches no seen-bit: it bumps
     level 0's presented, hits and demand_hits, ends there if it is a
     read, and a write goes on down the write-through chain at level 1 as
     after any hit.  A line is only ever held in its own set, so finding
     it at way 0 proves the hit, provided [addr lsr shift] is the line:
     power-of-two lines and [addr >= 0].  The path is on where
     [line land mask] is also the set, a tag array with power-of-two
     sets, and where level 0 is not the last level, which set sampling
     thins; [mru_min] is [max_int] otherwise. *)
  let mru_min, mru_shift, mru_mask, mru_ways, mru_tags =
    let l1 = levels.(0) in
    let shift = l1.line_div.Hwsim.Setassoc.shift and sets = l1.set_div in
    match l1.resident with
    | Tags tags when n_levels > 1 && shift >= 0 && sets.Hwsim.Setassoc.shift >= 0 ->
      (0, shift, sets.Hwsim.Setassoc.mask, tags.Hwsim.Setassoc.ways, tags.Hwsim.Setassoc.tags)
    | Tags _ | Full _ -> (max_int, 0, 0, 0, [||])
  in
  let on_chunk buf len =
    let n_acc = ref 0 in
    for e = 0 to len - 1 do
      let code = Array.unsafe_get buf e in
      let kind = code land 7 in
      if kind <= Trace.ev_write then begin
        incr n_acc;
        let addr = code asr 3 and is_write = kind = Trace.ev_write in
        if addr >= mru_min then begin
          let line = addr lsr mru_shift in
          if Array.unsafe_get mru_tags ((line land mru_mask) * mru_ways) = line then begin
            let c = !cur.counts in
            bump c f_presented;
            bump c f_hits;
            bump c f_demand_hits;
            if is_write then access_from !cur addr true 1
          end
          else access_from !cur addr is_write 0
        end
        else access_from !cur addr is_write 0
      end
      else if kind = Trace.ev_stmt then begin
        let k = code asr 3 in
        let ss = state k in
        ss.ss_flops <- ss.ss_flops + tables.Trace.stmts.(k).Trace.s_flops;
        cur := ss
      end
    done;
    if governed then Engine.Ctx.spend ctx !n_acc
  in
  (* only last-level counters are scaled back up *)
  let scale_at i x = if i = n_levels - 1 then x * sampling else x in
  let res = Trace.scan prog ~param_values ~on_chunk in
  (* an address less than a line below the layout truncates to line 0
     instead of failing the tag array's bounds check: reject it the same
     way, once per scan rather than once per access *)
  if res.Trace.below_layout && mode = Set_associative then
    invalid_arg "index out of bounds";
  let stmt_order = List.rev !stmt_order in
  let stmt_state k = Option.get states.(k) in
  (* the per-level totals are the sums of the per-statement counters *)
  let total i f =
    List.fold_left
      (fun acc k -> acc + (stmt_state k).counts.((i * n_fields) + f))
      0 stmt_order
  in
  let counts =
    Array.mapi
      (fun i st ->
        {
          level_name = st.geom.Hwsim.Machine.level_name;
          presented = scale_at i (total i f_presented);
          cold = scale_at i (total i f_cold);
          capacity_conflict = scale_at i (total i f_capconf);
          hits = scale_at i (total i f_hits);
          demand_hits = scale_at i (total i f_demand_hits);
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
    List.map
      (fun k ->
        let name = tables.Trace.stmts.(k).Trace.s_name in
        let ss = stmt_state k in
        let stmt_levels =
          Array.init n_levels (fun i ->
              {
                level_name = counts.(i).level_name;
                presented = scale_at i ss.counts.((i * n_fields) + f_presented);
                cold = scale_at i ss.counts.((i * n_fields) + f_cold);
                capacity_conflict = scale_at i ss.counts.((i * n_fields) + f_capconf);
                hits = scale_at i ss.counts.((i * n_fields) + f_hits);
                demand_hits = scale_at i ss.counts.((i * n_fields) + f_demand_hits);
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
      stmt_order
  in
  let q_dram = miss_llc *. float_of_int line in
  let hit_ratios =
    Array.map
      (fun c ->
        if c.presented = 0 then 1.0
        else float_of_int c.hits /. float_of_int c.presented)
      counts
  in
  (* bulk-report: the access loop itself stays telemetry-free *)
  Telemetry.add c_accesses counts.(0).presented;
  Telemetry.add c_llc_misses (total_misses llc);
  {
    machine;
    mode;
    levels = counts;
    per_stmt;
    threads_divisor = divisor;
    miss_llc;
    q_dram_bytes = q_dram;
    flops = res.Trace.flops;
    oi =
      (if q_dram > 0.0 then float_of_int res.Trace.flops /. q_dram
       else Float.infinity);
    hit_ratios;
    miss_ratios = Array.map (fun h -> 1.0 -. h) hit_ratios;
    fidelity = Engine.Fidelity.Exact;
  }

(* --- Degraded static estimator ---

   When the exact access-stream simulation above exhausts its budget, we
   estimate the same counters from polyhedral footprints instead of
   enumerating the stream:

   - presented accesses  = (#read + #write refs)  × |domain| per stmt;
   - cold lines          = distinct touched elements (cardinality of the
     access-relation ranges, unioned per array) × elem bytes ÷ line
     bytes, assuming contiguous placement;
   - capacity/conflict   = the fraction of reuse accesses lost when the
     per-level footprint exceeds the level's capacity (1 − cap/footprint);
   - the write-through presentation chain mirrors the exact model:
     level i+1 sees level i's misses plus the writes that hit at i.

   Every cardinality runs through {!Count.card_gov} under a small fresh
   fuel-only budget, so the estimator does a bounded amount of work even
   when the caller's deadline has already expired (only the cancellation
   token is inherited).  The result is marked [Degraded]; tolerances are
   documented in DESIGN.md. *)

let estimate_fuel = 1_000_000

let analyze_approx ?(ctx = Engine.Ctx.none) ?(mode = Set_associative)
    ?(apply_thread_heuristic = true) ~machine prog ~param_values =
  Telemetry.tick c_analyze_approx;
  Telemetry.with_span "cache_model.analyze_approx"
    ~args:[ ("prog", prog.Ir.prog_name) ]
  @@ fun () ->
  let scop = Scop.extract prog in
  let layout = Layout.of_program prog ~param_values in
  let count_ctx () =
    {
      ctx with
      Engine.Ctx.budget = Some (Engine.Budget.create ~fuel:estimate_fuel ());
    }
  in
  let gov_card b = fst (Count.card_gov ~ctx:(count_ctx ()) b) in
  let values_of sp =
    Array.map
      (fun p ->
        match List.assoc_opt p param_values with
        | Some v -> v
        | None -> invalid_arg ("Model: missing parameter " ^ p))
      sp.Space.params
  in
  let bind b = Bset.fix_params b (values_of (Bset.space b)) in
  (* parametric counts go through the chamber decomposition when one is
     available (exact, O(1) on the warm memo shared with the daemon);
     shapes the chamber engine declines fall back to the governed scan *)
  let chamber_card b dom_b =
    match Count.card_param ~ctx:(count_ctx ()) b with
    | Some ch -> (
      match Chamber.eval ch (values_of (Bset.space b)) with
      | n -> n
      | exception Linalg.Ints.Overflow -> gov_card dom_b)
    | None -> gov_card dom_b
    | exception Engine.Budget.Exhausted _ -> gov_card dom_b
  in
  let geoms = Array.of_list machine.Hwsim.Machine.caches in
  let n_levels = Array.length geoms in
  let lines_of_elems elems elem_bytes line_bytes =
    if elems <= 0 then 0
    else max 1 (((elems * elem_bytes) + line_bytes - 1) / line_bytes)
  in
  (* per statement: iteration count, reference counts, per-array distinct
     elements (per-(stmt,array) range unions) *)
  let stmts =
    List.map
      (fun (info : Scop.stmt_info) ->
        let dom_b = bind info.Scop.domain in
        let n_iter = chamber_card info.Scop.domain dom_b in
        let reads, writes =
          List.fold_left
            (fun (r, w) ((a : Ir.access), _) ->
              match a.Ir.kind with Ir.Read -> (r + 1, w) | Ir.Write -> (r, w + 1))
            (0, 0) info.Scop.access_maps
        in
        (* the raw access maps carry only the index equalities; the image
           (the set of touched elements) is the range of the map
           restricted to the statement's iteration domain *)
        let image (m : Bset.t) =
          let m = bind m in
          let spm = Bset.space m in
          let ndim = Space.n_ins spm in
          let nout = Space.n_outs spm in
          let nd_dom = Bset.n_div dom_b in
          let nd_m = Bset.n_div m in
          let total = ndim + nout + nd_dom + nd_m in
          (* domain vars (set dims) line up with the map's input dims;
             domain divs go in front of the map's own divs *)
          let pdom =
            Poly.remap dom_b.Bset.poly total (fun i ->
                if i < ndim then i else i + nout)
          in
          let pm =
            Poly.remap m.Bset.poly total (fun i ->
                if i < ndim + nout then i else i + nd_dom)
          in
          Bset.range
            (Bset.of_poly spm ~n_div:(nd_dom + nd_m) (Poly.append pdom pm))
        in
        let ranges_by_array = Hashtbl.create 8 in
        List.iter
          (fun ((a : Ir.access), m) ->
            let range = image m in
            Hashtbl.replace ranges_by_array a.Ir.array
              (range
              :: Option.value
                   (Hashtbl.find_opt ranges_by_array a.Ir.array)
                   ~default:[]))
          info.Scop.access_maps;
        let union_card ranges =
          match ranges with
          | [ r ] -> gov_card r
          | rs -> (
            match
              Pset.cardinality ~ctx:(count_ctx ())
                (Pset.of_bsets (Bset.space (List.hd rs)) rs)
            with
            | n -> n
            | exception Engine.Budget.Exhausted _ -> (
              (* union too hard under the sample budget: bound it by the
                 convex hull of the members' rational shadows (divs
                 projected away) — a superset of the union, so the
                 footprint is never under-estimated, and exact for the
                 common case of adjacent/overlapping contiguous ranges *)
              let shadow (r : Bset.t) =
                let p = r.Bset.poly in
                let keep = Poly.nvar p - Bset.n_div r in
                Poly.remove_redundant
                  (Poly.fix_vars (Poly.eliminate_from p keep) (fun i ->
                       if i >= keep then Some 0 else None))
              in
              match
                let hull =
                  match rs with
                  | [] -> assert false
                  | r0 :: rest ->
                    List.fold_left
                      (fun acc r -> Poly.convex_hull acc (shadow r))
                      (shadow r0) rest
                in
                gov_card (Bset.of_poly (Bset.space (List.hd rs)) ~n_div:0 hull)
              with
              | n -> n
              | exception Linalg.Ints.Overflow ->
                (* hull arithmetic overflowed: fall back to the largest
                   member as a lower bound *)
                List.fold_left (fun acc r -> max acc (gov_card r)) 0 rs))
        in
        let elems_by_array =
          Hashtbl.fold
            (fun array ranges acc -> (array, union_card ranges) :: acc)
            ranges_by_array []
        in
        ( info, n_iter, reads, writes, elems_by_array ))
      scop.Scop.stmt_infos
  in
  (* program-level distinct elements per array: max over statements of the
     per-statement unions (arrays are shared; summing would double-count
     the common case of every statement sweeping the same array) *)
  let program_elems = Hashtbl.create 8 in
  List.iter
    (fun (_, _, _, _, elems_by_array) ->
      List.iter
        (fun (array, elems) ->
          let prev =
            Option.value (Hashtbl.find_opt program_elems array) ~default:0
          in
          Hashtbl.replace program_elems array (max prev elems))
        elems_by_array)
    stmts;
  let elem_bytes array = (Layout.find layout array).Layout.decl.Ir.elem_size in
  let footprint_lines =
    Array.map
      (fun (g : Hwsim.Machine.cache_geometry) ->
        Hashtbl.fold
          (fun array elems acc ->
            acc + lines_of_elems elems (elem_bytes array) g.Hwsim.Machine.line_bytes)
          program_elems 0)
      geoms
  in
  (* the write-through presentation chain of the exact model, driven by
     footprint-derived cold/capacity estimates for one scope (a statement
     or the whole program) *)
  let chain ~cold_lines ~p0 ~writes =
    let counts = Array.make n_levels None in
    let presented = ref p0 and demand = ref p0 in
    for i = 0 to n_levels - 1 do
      let g = geoms.(i) in
      let cold = min cold_lines.(i) !presented in
      let reuse = max 0 (!presented - cold) in
      let fp_bytes = footprint_lines.(i) * g.Hwsim.Machine.line_bytes in
      let capconf =
        if fp_bytes <= g.Hwsim.Machine.size_bytes || fp_bytes = 0 then 0
        else
          min reuse
            (int_of_float
               (float_of_int reuse
               *. (1.
                  -. float_of_int g.Hwsim.Machine.size_bytes
                     /. float_of_int fp_bytes)))
      in
      let hits = max 0 (!presented - cold - capconf) in
      let demand_hits = min hits (max 0 (!demand - cold - capconf)) in
      let misses = cold + capconf in
      counts.(i) <-
        Some
          {
            level_name = g.Hwsim.Machine.level_name;
            presented = !presented;
            cold;
            capacity_conflict = capconf;
            hits;
            demand_hits;
          };
      (* level i+1 sees the misses plus the writes that hit here *)
      let write_hits =
        if !presented = 0 then 0 else writes * hits / !presented
      in
      demand := misses;
      presented := misses + write_hits
    done;
    Array.map Option.get counts
  in
  let per_stmt =
    List.map
      (fun ((info : Scop.stmt_info), n_iter, reads, writes, elems_by_array) ->
        let p0 = (reads + writes) * n_iter in
        let w = writes * n_iter in
        let cold_lines =
          Array.map
            (fun (g : Hwsim.Machine.cache_geometry) ->
              List.fold_left
                (fun acc (array, elems) ->
                  acc
                  + lines_of_elems elems (elem_bytes array)
                      g.Hwsim.Machine.line_bytes)
                0 elems_by_array)
            geoms
        in
        (info, n_iter, w, chain ~cold_lines ~p0 ~writes:w))
      stmts
  in
  let divisor =
    if
      apply_thread_heuristic
      && List.exists has_parallel_loop prog.Ir.body
      && machine.Hwsim.Machine.threads > 1
    then machine.Hwsim.Machine.threads
    else 1
  in
  let line = (Hwsim.Machine.llc machine).Hwsim.Machine.line_bytes in
  let per_stmt_counts =
    List.map
      (fun ((info : Scop.stmt_info), n_iter, _w, stmt_levels) ->
        let flops = Ir.flops_of_expr info.Scop.stmt.Ir.rhs * n_iter in
        let m_llc =
          float_of_int (total_misses stmt_levels.(n_levels - 1))
          /. float_of_int divisor
        in
        let q = m_llc *. float_of_int line in
        ( info.Scop.stmt.Ir.stmt_name,
          {
            stmt_levels;
            stmt_flops = flops;
            stmt_oi =
              (if q > 0.0 then float_of_int flops /. q else Float.infinity);
          } ))
      per_stmt
  in
  (* program-level chain from the global footprint *)
  let program_cold =
    Array.map
      (fun (g : Hwsim.Machine.cache_geometry) ->
        Hashtbl.fold
          (fun array elems acc ->
            acc + lines_of_elems elems (elem_bytes array) g.Hwsim.Machine.line_bytes)
          program_elems 0)
      geoms
  in
  let p0_total, writes_total =
    List.fold_left
      (fun (p, w) (_, n_iter, reads, writes, _) ->
        (p + ((reads + writes) * n_iter), w + (writes * n_iter)))
      (0, 0) stmts
  in
  let counts = chain ~cold_lines:program_cold ~p0:p0_total ~writes:writes_total in
  let llc = counts.(n_levels - 1) in
  let miss_llc = float_of_int (total_misses llc) /. float_of_int divisor in
  let q_dram = miss_llc *. float_of_int line in
  let flops =
    List.fold_left (fun acc (_, sc) -> acc + sc.stmt_flops) 0 per_stmt_counts
  in
  let hit_ratios =
    Array.map
      (fun c ->
        if c.presented = 0 then 1.0
        else float_of_int c.hits /. float_of_int c.presented)
      counts
  in
  Engine.Fidelity.note_degraded ();
  {
    machine;
    mode;
    levels = counts;
    per_stmt = per_stmt_counts;
    threads_divisor = divisor;
    miss_llc;
    q_dram_bytes = q_dram;
    flops;
    oi = (if q_dram > 0.0 then float_of_int flops /. q_dram else Float.infinity);
    hit_ratios;
    miss_ratios = Array.map (fun h -> 1.0 -. h) hit_ratios;
    fidelity = Engine.Fidelity.Degraded;
  }

(* [analyze] rejects an address below the layout with a bare
   [Invalid_argument]: re-walk the trace up to the first such access and
   name it; any other error is re-raised as it came *)
let name_below_layout prog ~param_values exn =
  let tables = Trace.tables prog in
  let k = ref (-1) and nth = ref 0 in
  let on_chunk buf len =
    for e = 0 to len - 1 do
      let code = buf.(e) in
      let kind = code land 7 in
      if kind = Trace.ev_stmt then begin
        k := code asr 3;
        nth := 0
      end
      else if kind <= Trace.ev_write then begin
        if code asr 3 < 0 then begin
          let s = tables.Trace.stmts.(!k) in
          invalid_arg
            (Printf.sprintf
               "statement %s %s array %s at byte address %d, below the \
                layout (an index out of the array's bounds)"
               s.Trace.s_name
               (if kind = Trace.ev_write then "writes" else "reads")
               s.Trace.s_arrays.(!nth) (code asr 3))
        end;
        incr nth
      end
    done
  in
  ignore (Trace.scan prog ~param_values ~on_chunk);
  raise exn

let analyze_gov ?(ctx = Engine.Ctx.none) ?(mode = Set_associative)
    ?apply_thread_heuristic ?set_sampling ~machine prog ~param_values =
  match
    analyze ~ctx ~mode ?apply_thread_heuristic ?set_sampling ~machine prog
      ~param_values
  with
  | r -> r
  | exception Engine.Budget.Exhausted _ when Engine.Ctx.degrade_allowed ctx ->
    analyze_approx ~ctx ~mode ?apply_thread_heuristic ~machine prog
      ~param_values
  | exception (Invalid_argument _ as exn) when mode = Set_associative ->
    name_below_layout prog ~param_values exn

let cold_misses_symbolic ?(ctx = Engine.Ctx.none) ~machine ~level prog =
  match prog.Ir.params with
  | [ p ] ->
    (* [analyze] is self-contained, so sample instances may be counted from
       pool workers; the fitted quasi-polynomial is identical either way *)
    Count.interpolate ~ctx
      ~count:(fun n ->
        let r =
          analyze ~ctx:{ ctx with Engine.Ctx.pool = None }
            ~machine ~apply_thread_heuristic:false prog
            ~param_values:[ (p, n) ]
        in
        r.levels.(level).cold)
      ()
  | _ -> None

let access_map_with_cache_dims ~machine ~level (info : Scop.stmt_info)
    (acc : Ir.access) ~layout ~param_values =
  let geom = List.nth machine.Hwsim.Machine.caches level in
  let line_bytes = geom.Hwsim.Machine.line_bytes in
  let n_sets =
    geom.Hwsim.Machine.size_bytes / line_bytes / geom.Hwsim.Machine.assoc
  in
  let al = Layout.find layout acc.Ir.array in
  let e = al.Layout.decl.Ir.elem_size in
  let space =
    Space.map_space ~in_name:"S" ~out_name:acc.Ir.array
      info.Scop.iter_vars [ "line"; "set" ]
  in
  let b = Bset.universe space in
  (* domain constraints on the input tuple *)
  let dom =
    let sp = Bset.space info.Scop.domain in
    let values =
      Array.map
        (fun p ->
          match List.assoc_opt p param_values with
          | Some v -> v
          | None -> invalid_arg ("Model: missing parameter " ^ p))
        sp.Space.params
    in
    Bset.fix_params info.Scop.domain values
  in
  let nd_dom = Bset.n_div dom in
  let ndim = List.length info.Scop.iter_vars in
  (* combine: ins = iter dims, outs = line/set, divs = dom divs (then ours) *)
  let total = ndim + 2 + nd_dom in
  let pdom =
    Poly.remap dom.Bset.poly total (fun i ->
        if i < ndim then i else ndim + 2 + (i - ndim))
  in
  let b =
    Bset.of_poly (Bset.space b) ~n_div:nd_dom
      (Poly.append pdom (Poly.insert_vars b.Bset.poly ~at:(ndim + 2) ~count:nd_dom))
  in
  (* byte address as an affine form over the input dims *)
  let var_col v =
    let rec idx k = function
      | [] -> invalid_arg ("Model: unbound variable " ^ v)
      | w :: _ when String.equal w v -> k
      | _ :: r -> idx (k + 1) r
    in
    Bset.in_pos b (idx 0 info.Scop.iter_vars)
  in
  let param_val p =
    match List.assoc_opt p param_values with
    | Some v -> v
    | None -> invalid_arg ("Model: missing parameter " ^ p)
  in
  let addr_aff =
    List.fold_left
      (fun (k, aff) idx ->
        let stride = al.Layout.strides.(k) * e in
        let const =
          List.fold_left
            (fun acc (p, c) -> acc + (c * param_val p * stride))
            (idx.Ir.const * stride) idx.Ir.param_coefs
        in
        ( k + 1,
          {
            Bset.coefs =
              aff.Bset.coefs
              @ List.map (fun (v, c) -> (c * stride, var_col v)) idx.Ir.var_coefs;
            const = aff.Bset.const + const;
          } ))
      (0, { Bset.coefs = []; const = al.Layout.base })
      acc.Ir.indices
    |> snd
  in
  (* line = floor(addr / ℓ), set = line mod N_sets *)
  let b, qline = Bset.add_div b ~num:addr_aff ~den:line_bytes in
  let b =
    Bset.add_eq b
      { Bset.coefs = [ (1, Bset.out_pos b 0); (-1, qline) ]; const = 0 }
  in
  let b, qset =
    Bset.add_div b ~num:{ Bset.coefs = [ (1, qline) ]; const = 0 } ~den:n_sets
  in
  Bset.add_eq b
    {
      Bset.coefs = [ (1, Bset.out_pos b 1); (-1, qline); (n_sets, qset) ];
      const = 0;
    }

let pp_result ppf r =
  Format.fprintf ppf "@[<v>PolyUFC-CM (%s, %s):@,"
    r.machine.Hwsim.Machine.name
    (match r.mode with
    | Set_associative -> "set-assoc"
    | Fully_associative -> "fully-assoc");
  Array.iter
    (fun c ->
      Format.fprintf ppf
        "  %s: presented=%d cold=%d cap/conf=%d hits=%d (hit ratio %.3f)@,"
        c.level_name c.presented c.cold c.capacity_conflict c.hits
        (if c.presented = 0 then 1.0
         else float_of_int c.hits /. float_of_int c.presented))
    r.levels;
  Format.fprintf ppf
    "  Miss_LLC=%.0f (÷%d threads) Q_DRAM=%.3g bytes Ω=%d flops OI=%.3f FpB"
    r.miss_llc r.threads_divisor r.q_dram_bytes r.flops r.oi;
  if r.fidelity <> Engine.Fidelity.Exact then
    Format.fprintf ppf "@,  fidelity: %a" Engine.Fidelity.pp r.fidelity;
  Format.fprintf ppf "@]"
