let c_accesses = Telemetry.counter "interp.accesses"
let c_chunks = Telemetry.counter "interp.chunks"

(* --- the trace encoding ---------------------------------------------- *)

let chunk_len = 1024
let ev_read = 0
let ev_write = 1
let ev_stmt = 2
let ev_enter = 3
let ev_exit = 4

type stmt_info = {
  s_name : string;
  s_flops : int;
  s_arrays : string array;
  s_bytes : int array;
}

type loop_info = { l_var : string; l_depth : int; l_parallel : bool }
type tables = { stmts : stmt_info array; loops : loop_info array }

type summary = {
  layout : Layout.t;
  instances : int;
  flops : int;
  accesses : int;
  below_layout : bool;
}

(* loads of an expression in evaluation order *)
let rec loads = function
  | Ir.Load a -> [ a ]
  | Ir.Const _ -> []
  | Ir.Bin (_, x, y) -> loads x @ loads y
  | Ir.Neg e | Ir.Sqrt e | Ir.Exp e -> loads e

(* a statement's accesses in event order: its loads, then its target *)
let event_accesses (s : Ir.stmt) = loads s.Ir.rhs @ [ s.Ir.target ]

(* Both tables number their items in pre-order, [then_] before [else_];
   {!scan}'s compiler walks the program in the same order. *)
let tables prog =
  let stmts = ref [] and loops = ref [] in
  let rec item depth = function
    | Ir.Stmt s ->
      let accs = event_accesses s in
      let elem (a : Ir.access) =
        match List.find_opt (fun d -> d.Ir.array_name = a.Ir.array) prog.Ir.arrays with
        | Some d -> d.Ir.elem_size
        | None -> 0 (* an invalid program: [scan] rejects it *)
      in
      stmts :=
        {
          s_name = s.Ir.stmt_name;
          s_flops = Ir.flops_of_expr s.Ir.rhs;
          s_arrays = Array.of_list (List.map (fun a -> a.Ir.array) accs);
          s_bytes = Array.of_list (List.map elem accs);
        }
        :: !stmts
    | Ir.Loop l ->
      loops := { l_var = l.Ir.var; l_depth = depth; l_parallel = l.Ir.parallel } :: !loops;
      List.iter (item (depth + 1)) l.Ir.body
    | Ir.If b ->
      List.iter (item depth) b.Ir.then_;
      List.iter (item depth) b.Ir.else_
  in
  List.iter (item 0) prog.Ir.body;
  { stmts = Array.of_list (List.rev !stmts); loops = Array.of_list (List.rev !loops) }

let max_depth prog =
  let rec d = function
    | Ir.Stmt _ -> 0
    | Ir.Loop l -> 1 + List.fold_left (fun a i -> max a (d i)) 0 l.Ir.body
    | Ir.If b ->
      max
        (List.fold_left (fun a i -> max a (d i)) 0 b.Ir.then_)
        (List.fold_left (fun a i -> max a (d i)) 0 b.Ir.else_)
  in
  List.fold_left (fun a i -> max a (d i)) 0 prog.Ir.body

let param_of param_values p =
  match List.assoc_opt p param_values with
  | Some v -> v
  | None -> invalid_arg ("Interp: missing parameter " ^ p)

let slot_in scope v =
  match List.assoc_opt v scope with
  | Some s -> s
  | None -> invalid_arg ("Interp: unbound variable " ^ v)

(* --- the producer ------------------------------------------------------ *)

(* An affine form over the loop-variable stack: [c0 + Σ coefs·stack.(slots)]. *)
type flat = { c0 : int; slots : int array; coefs : int array }

let[@inline] eval_flat f (stack : int array) =
  let acc = ref f.c0 in
  for k = 0 to Array.length f.slots - 1 do
    acc := !acc + (Array.unsafe_get f.coefs k * stack.(Array.unsafe_get f.slots k))
  done;
  !acc

(* [scale · a] flattened, with parameters folded into the constant *)
let flat_terms ~scope ~param scale (a : Ir.aff) =
  ( scale * List.fold_left (fun acc (p, c) -> acc + (c * param p)) a.Ir.const a.Ir.param_coefs,
    List.map (fun (v, c) -> (slot_in scope v, scale * c)) a.Ir.var_coefs )

let flat_of (c0, terms) =
  (* merge terms per slot *)
  let tbl = Hashtbl.create 4 in
  List.iter
    (fun (s, c) ->
      Hashtbl.replace tbl s (c + Option.value (Hashtbl.find_opt tbl s) ~default:0))
    terms;
  let terms =
    List.sort compare (Hashtbl.fold (fun s c acc -> if c = 0 then acc else (s, c) :: acc) tbl [])
  in
  { c0; slots = Array.of_list (List.map fst terms); coefs = Array.of_list (List.map snd terms) }

let flat_aff ~scope ~param a = flat_of (flat_terms ~scope ~param 1 a)

(* the byte address of an access as one affine form:
   base + elem · Σ stride_i · index_i *)
let flat_address ~scope ~param layout (a : Ir.access) =
  let al = Layout.find layout a.Ir.array in
  let elem = al.Layout.decl.Ir.elem_size in
  let c0, terms =
    List.fold_left
      (fun (k, (c0, terms)) idx ->
        let c, t = flat_terms ~scope ~param (elem * al.Layout.strides.(k)) idx in
        (k + 1, (c0 + c, t @ terms)))
      (0, (al.Layout.base, []))
      a.Ir.indices
    |> snd
  in
  flat_of (c0, terms)

(* The one chunk a scan writes: its buffer leaves room past [chunk_len]
   for the longest burst written between two fill checks (a statement
   instance, an innermost iteration, a loop event). *)
type emitter = {
  mutable buf : int array;
  mutable len : int;
  mutable chunks : int;
  on_chunk : int array -> int -> unit;
}

let flush em =
  em.chunks <- em.chunks + 1;
  em.on_chunk em.buf em.len;
  em.len <- 0

let[@inline] push em code =
  em.buf.(em.len) <- code;
  em.len <- em.len + 1

let[@inline] check em = if em.len >= chunk_len then flush em

let scan prog ~param_values ~on_chunk =
  (* the error texts are [Interp.run]'s: a program's error reads the
     same whichever consumer walks its trace *)
  (match Ir.validate prog with
  | Ok () -> ()
  | Error m -> invalid_arg ("Interp.run: " ^ m));
  let layout = Layout.of_program prog ~param_values in
  let param = param_of param_values in
  let stack = Array.make (max 1 (max_depth prog)) 0 in
  let em = { buf = [||]; len = 0; chunks = 0; on_chunk } in
  let instances = ref 0 and flops = ref 0 and accesses = ref 0 in
  (* the [lor] of every code whose sign is checked: negative iff some
     access addressed a byte below the layout *)
  let signs = ref 0 in
  let burst = ref 1 in
  let next_stmt = ref 0 and next_loop = ref 0 in
  (* a statement instance's events, each a form and a kind: the
     statement event (a constant form, its index), then one address form
     per access *)
  let compile_stmt scope (s : Ir.stmt) =
    let k = !next_stmt in
    incr next_stmt;
    let events =
      ({ c0 = k; slots = [||]; coefs = [||] }, ev_stmt)
      :: List.map (fun a -> (flat_address ~scope ~param layout a, ev_read)) (loads s.Ir.rhs)
      @ [ (flat_address ~scope ~param layout s.Ir.target, ev_write) ]
    in
    burst := max !burst (List.length events);
    (events, Ir.flops_of_expr s.Ir.rhs)
  in
  let[@inline] code_of (f, kind) = (eval_flat f stack lsl 3) lor kind in
  let rec compile_items scope depth items =
    match List.map (compile_item scope depth) items with
    | [] -> fun () -> ()
    | [ f ] -> f
    | fs -> fun () -> List.iter (fun f -> f ()) fs
  and compile_item scope depth = function
    | Ir.If b ->
      let conds =
        List.map (fun (c : Ir.cond) -> (flat_aff ~scope ~param c.Ir.cond_aff, c.Ir.cond_eq)) b.Ir.conds
      in
      let then_ = compile_items scope depth b.Ir.then_ in
      let else_ = compile_items scope depth b.Ir.else_ in
      fun () ->
        let taken =
          List.for_all
            (fun (f, eq) ->
              let v = eval_flat f stack in
              if eq then v = 0 else v >= 0)
            conds
        in
        if taken then then_ () else else_ ()
    | Ir.Loop l ->
      let k = !next_loop in
      incr next_loop;
      let enter = (k lsl 3) lor ev_enter and exit = (k lsl 3) lor ev_exit in
      let slot = depth in
      let scope' = (l.Ir.var, slot) :: scope in
      let los = List.map (flat_aff ~scope ~param) l.Ir.lo in
      let his = List.map (flat_aff ~scope ~param) l.Ir.hi in
      let step = l.Ir.step in
      let bounds () =
        let lo = List.fold_left (fun acc f -> max acc (eval_flat f stack)) min_int los in
        let hi = List.fold_left (fun acc f -> min acc (eval_flat f stack)) max_int his in
        (lo, hi)
      in
      let innermost = List.for_all (function Ir.Stmt _ -> true | _ -> false) l.Ir.body in
      if innermost then begin
        (* strength reduction: every event code is evaluated once per loop
           entry and then advanced by a constant per iteration; the kind
           sits below the address, so the code advances by [delta lsl 3] *)
        let stmts =
          List.map (function Ir.Stmt s -> compile_stmt scope' s | _ -> assert false) l.Ir.body
        in
        let events = Array.of_list (List.concat_map fst stmts) in
        let n_ev = Array.length events in
        let n_stmts = List.length stmts in
        let n_accs = n_ev - n_stmts in
        let iter_flops = List.fold_left (fun a (_, f) -> a + f) 0 stmts in
        burst := max !burst n_ev;
        let deltas =
          Array.map
            (fun ((f : flat), _) ->
              let d = ref 0 in
              Array.iteri (fun m s -> if s = slot then d := f.coefs.(m) * step) f.slots;
              !d lsl 3)
            events
        in
        let codes = Array.make n_ev 0 in
        fun () ->
          let lo, hi = bounds () in
          push em enter;
          check em;
          if lo < hi && n_ev > 0 then begin
            let trips = ((hi - lo - 1) / step) + 1 in
            stack.(slot) <- lo;
            for e = 0 to n_ev - 1 do
              let c = code_of events.(e) in
              codes.(e) <- c;
              (* affine in the loop variable: an event's lowest code is
                 at its first or its last iteration *)
              signs := !signs lor c lor (c + ((trips - 1) * deltas.(e)))
            done;
            for _ = 1 to trips do
              let buf = em.buf and len = em.len in
              for e = 0 to n_ev - 1 do
                let c = Array.unsafe_get codes e in
                Array.unsafe_set buf (len + e) c;
                Array.unsafe_set codes e (c + Array.unsafe_get deltas e)
              done;
              em.len <- len + n_ev;
              check em
            done;
            instances := !instances + (trips * n_stmts);
            flops := !flops + (trips * iter_flops);
            accesses := !accesses + (trips * n_accs)
          end;
          push em exit;
          check em
      end
      else begin
        let body = compile_items scope' (depth + 1) l.Ir.body in
        fun () ->
          let lo, hi = bounds () in
          push em enter;
          check em;
          let i = ref lo in
          while !i < hi do
            stack.(slot) <- !i;
            body ();
            i := !i + step
          done;
          push em exit;
          check em
      end
    | Ir.Stmt s ->
      let events, f = compile_stmt scope s in
      let events = Array.of_list events in
      let n_accs = Array.length events - 1 in
      fun () ->
        for e = 0 to n_accs do
          let c = code_of events.(e) in
          signs := !signs lor c;
          push em c
        done;
        check em;
        incr instances;
        flops := !flops + f;
        accesses := !accesses + n_accs
  in
  let main = compile_items [] 0 prog.Ir.body in
  em.buf <- Array.make (chunk_len + !burst) 0;
  main ();
  if em.len > 0 then flush em;
  (* bulk-report: the producer itself stays telemetry-free *)
  Telemetry.add c_accesses !accesses;
  Telemetry.add c_chunks em.chunks;
  {
    layout;
    instances = !instances;
    flops = !flops;
    accesses = !accesses;
    below_layout = !signs < 0;
  }
