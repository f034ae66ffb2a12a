type callbacks = {
  on_access :
    stmt:string -> array:string -> addr:int -> bytes:int -> is_write:bool -> unit;
  on_stmt : stmt:string -> flops:int -> unit;
  on_loop_enter : var:string -> depth:int -> parallel:bool -> unit;
  on_loop_exit : var:string -> depth:int -> unit;
}

let null_callbacks =
  {
    on_access = (fun ~stmt:_ ~array:_ ~addr:_ ~bytes:_ ~is_write:_ -> ());
    on_stmt = (fun ~stmt:_ ~flops:_ -> ());
    on_loop_enter = (fun ~var:_ ~depth:_ ~parallel:_ -> ());
    on_loop_exit = (fun ~var:_ ~depth:_ -> ());
  }

let with_access f = { null_callbacks with on_access = f }

type result = {
  layout : Layout.t;
  values : (string * float array) list;
  instances : int;
  flops : int;
  accesses : int;
}

let default_init _name idx =
  (* deterministic, size-independent pattern in (0, 2] *)
  float_of_int ((idx * 16807 mod 97) + 1) /. 48.5

let validated prog =
  match Ir.validate prog with
  | Ok () -> ()
  | Error m -> invalid_arg ("Interp.run: " ^ m)

let param_of param_values p =
  match List.assoc_opt p param_values with
  | Some v -> v
  | None -> invalid_arg ("Interp: missing parameter " ^ p)

let slot_in scope v =
  match List.assoc_opt v scope with
  | Some s -> s
  | None -> invalid_arg ("Interp: unbound variable " ^ v)

(* --- scanning mode: the callbacks, decoded from the chunks ----------- *)

let decode (t : Trace.tables) cb =
  let cur = ref { Trace.s_name = ""; s_flops = 0; s_arrays = [||]; s_bytes = [||] } in
  let pos = ref 0 in
  fun buf len ->
    for e = 0 to len - 1 do
      let code = buf.(e) in
      let kind = code land 7 and p = code asr 3 in
      if kind <= Trace.ev_write then begin
        (* an access's array and size follow from its position in its
           statement instance, so out-of-layout addresses decode too *)
        let s = !cur and j = !pos in
        pos := j + 1;
        cb.on_access ~stmt:s.Trace.s_name ~array:s.Trace.s_arrays.(j) ~addr:p
          ~bytes:s.Trace.s_bytes.(j)
          ~is_write:(kind = Trace.ev_write)
      end
      else if kind = Trace.ev_stmt then begin
        let s = t.Trace.stmts.(p) in
        cur := s;
        pos := 0;
        cb.on_stmt ~stmt:s.Trace.s_name ~flops:s.Trace.s_flops
      end
      else begin
        let l = t.Trace.loops.(p) in
        if kind = Trace.ev_enter then
          cb.on_loop_enter ~var:l.Trace.l_var ~depth:l.Trace.l_depth ~parallel:l.Trace.l_parallel
        else cb.on_loop_exit ~var:l.Trace.l_var ~depth:l.Trace.l_depth
      end
    done

(* --- execution mode ----------------------------------------------------- *)

(* compile an affine expression into a closure over the loop-variable
   stack; variable name -> stack slot resolved at compile time *)
let compile_aff (a : Ir.aff) ~slot_of ~param =
  let vterms = List.map (fun (v, c) -> (slot_of v, c)) a.Ir.var_coefs in
  let pconst =
    List.fold_left (fun acc (p, c) -> acc + (c * param p)) a.Ir.const a.Ir.param_coefs
  in
  match vterms with
  | [] -> fun _stack -> pconst
  | [ (s, c) ] -> fun stack -> (c * stack.(s)) + pconst
  | terms ->
    fun stack -> List.fold_left (fun acc (s, c) -> acc + (c * stack.(s))) pconst terms

let execute ~init prog ~param_values cb =
  validated prog;
  let layout = Layout.of_program prog ~param_values in
  let param = param_of param_values in
  let storages =
    List.map
      (fun (name, (al : Layout.array_layout)) ->
        let elems = al.Layout.size_bytes / al.Layout.decl.Ir.elem_size in
        (name, Array.init elems (init name)))
      layout.Layout.arrays
  in
  let storage name =
    match List.assoc_opt name storages with
    | Some a -> a
    | None -> invalid_arg ("Interp: no storage for " ^ name)
  in
  let instances = ref 0 and flops = ref 0 and accesses = ref 0 in
  let max_depth =
    let rec d = function
      | Ir.Stmt _ -> 0
      | Ir.Loop l -> 1 + List.fold_left (fun a i -> max a (d i)) 0 l.Ir.body
      | Ir.If b ->
        max
          (List.fold_left (fun a i -> max a (d i)) 0 b.Ir.then_)
          (List.fold_left (fun a i -> max a (d i)) 0 b.Ir.else_)
    in
    List.fold_left (fun a i -> max a (d i)) 0 prog.Ir.body
  in
  let stack = Array.make (max 1 max_depth) 0 in
  (* compile the program into closures over [stack] *)
  let rec compile_items scope depth items =
    let compiled = List.map (compile_item scope depth) items in
    fun () -> List.iter (fun f -> f ()) compiled
  and compile_item scope depth = function
    | Ir.If b ->
      let slot_of = slot_in scope in
      let conds =
        List.map
          (fun (c : Ir.cond) -> (compile_aff c.Ir.cond_aff ~slot_of ~param, c.Ir.cond_eq))
          b.Ir.conds
      in
      let then_ = compile_items scope depth b.Ir.then_ in
      let else_ = compile_items scope depth b.Ir.else_ in
      fun () ->
        let taken =
          List.for_all
            (fun (f, eq) ->
              let v = f stack in
              if eq then v = 0 else v >= 0)
            conds
        in
        if taken then then_ () else else_ ()
    | Ir.Loop l ->
      let slot_of = slot_in scope in
      let los = List.map (compile_aff ~slot_of ~param) l.Ir.lo in
      let his = List.map (compile_aff ~slot_of ~param) l.Ir.hi in
      let slot = depth in
      let body = compile_items ((l.Ir.var, slot) :: scope) (depth + 1) l.Ir.body in
      let step = l.Ir.step in
      let var = l.Ir.var and parallel = l.Ir.parallel in
      fun () ->
        let lo = List.fold_left (fun acc f -> max acc (f stack)) min_int los in
        let hi = List.fold_left (fun acc f -> min acc (f stack)) max_int his in
        cb.on_loop_enter ~var ~depth ~parallel;
        let i = ref lo in
        while !i < hi do
          stack.(slot) <- !i;
          body ();
          i := !i + step
        done;
        cb.on_loop_exit ~var ~depth
    | Ir.Stmt s ->
      let slot_of = slot_in scope in
      let name = s.Ir.stmt_name in
      let stmt_flops = Ir.flops_of_expr s.Ir.rhs in
      (* compile an access into (element-offset closure, layout) *)
      let compile_access (a : Ir.access) =
        let al = Layout.find layout a.Ir.array in
        let idxs = Array.of_list (List.map (compile_aff ~slot_of ~param) a.Ir.indices) in
        let strides = al.Layout.strides in
        let offset stack =
          let acc = ref 0 in
          for i = 0 to Array.length idxs - 1 do
            acc := !acc + (idxs.(i) stack * strides.(i))
          done;
          !acc
        in
        (al, offset)
      in
      let emit (al : Layout.array_layout) off is_write =
        incr accesses;
        cb.on_access ~stmt:name ~array:al.Layout.decl.Ir.array_name
          ~addr:(al.Layout.base + (off * al.Layout.decl.Ir.elem_size))
          ~bytes:al.Layout.decl.Ir.elem_size ~is_write
      in
      let rec compile_expr = function
        | Ir.Const f -> fun _ -> f
        | Ir.Load a ->
          let al, offset = compile_access a in
          let arr = storage a.Ir.array in
          fun stack ->
            let off = offset stack in
            emit al off false;
            arr.(off)
        | Ir.Bin (op, x, y) ->
          let fx = compile_expr x and fy = compile_expr y in
          let g =
            match op with
            | Ir.Add -> ( +. )
            | Ir.Sub -> ( -. )
            | Ir.Mul -> ( *. )
            | Ir.Div -> ( /. )
            | Ir.Max -> Float.max
            | Ir.Min -> Float.min
          in
          (* force left-to-right evaluation so the access stream matches
             scanning mode (OCaml applications evaluate right-to-left) *)
          fun stack ->
            let a = fx stack in
            let b = fy stack in
            g a b
        | Ir.Neg e ->
          let fe = compile_expr e in
          fun stack -> -.fe stack
        | Ir.Sqrt e ->
          let fe = compile_expr e in
          fun stack -> Float.sqrt (fe stack)
        | Ir.Exp e ->
          let fe = compile_expr e in
          fun stack -> Float.exp (fe stack)
      in
      let frhs = compile_expr s.Ir.rhs in
      let tal, toffset = compile_access s.Ir.target in
      let tarr = storage s.Ir.target.Ir.array in
      fun () ->
        incr instances;
        flops := !flops + stmt_flops;
        cb.on_stmt ~stmt:name ~flops:stmt_flops;
        let v = frhs stack in
        let off = toffset stack in
        emit tal off true;
        tarr.(off) <- v
  in
  let main = compile_items [] 0 prog.Ir.body in
  main ();
  { layout; values = storages; instances = !instances; flops = !flops; accesses = !accesses }

let run ?(compute = true) ?(init = default_init) prog ~param_values cb =
  if compute then execute ~init prog ~param_values cb
  else
    let s = Trace.scan prog ~param_values ~on_chunk:(decode (Trace.tables prog) cb) in
    {
      layout = s.Trace.layout;
      values = [];
      instances = s.Trace.instances;
      flops = s.Trace.flops;
      accesses = s.Trace.accesses;
    }

let array_value r name idx =
  let al = Layout.find r.layout name in
  match List.assoc_opt name r.values with
  | None -> invalid_arg "Interp.array_value: no values (compute:false run?)"
  | Some arr -> arr.(Layout.linear_index al idx)
