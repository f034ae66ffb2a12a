(* Test-only oracle for {!Poly_ir.Interp}'s scanning mode: the
   closure-per-access interpreter that {!Trace.scan} replaced — every
   access re-evaluates its compiled affine index closures and fires
   [on_access] directly — kept verbatim, so the strength-reduced,
   chunked producer and its decoder can be diffed against it event for
   event. *)

open Poly_ir

type callbacks = Interp.callbacks = {
  on_access :
    stmt:string -> array:string -> addr:int -> bytes:int -> is_write:bool -> unit;
  on_stmt : stmt:string -> flops:int -> unit;
  on_loop_enter : var:string -> depth:int -> parallel:bool -> unit;
  on_loop_exit : var:string -> depth:int -> unit;
}

type result = Interp.result = {
  layout : Layout.t;
  values : (string * float array) list;
  instances : int;
  flops : int;
  accesses : int;
}

let default_init _name idx =
  (* deterministic, size-independent pattern in (0, 2] *)
  float_of_int ((idx * 16807 mod 97) + 1) /. 48.5

(* compile an affine expression into a closure over the loop-variable
   stack; variable name -> stack slot resolved at compile time *)
let compile_aff (a : Ir.aff) ~slot_of ~param =
  let vterms =
    List.map (fun (v, c) -> (slot_of v, c)) a.Ir.var_coefs
  in
  let pconst =
    List.fold_left (fun acc (p, c) -> acc + (c * param p)) a.Ir.const a.Ir.param_coefs
  in
  match vterms with
  | [] -> fun _stack -> pconst
  | [ (s, c) ] -> fun stack -> (c * stack.(s)) + pconst
  | terms ->
    fun stack ->
      List.fold_left (fun acc (s, c) -> acc + (c * stack.(s))) pconst terms

let run ?(compute = true) ?(init = default_init) prog ~param_values cb =
  (match Ir.validate prog with
  | Ok () -> ()
  | Error m -> invalid_arg ("Interp.run: " ^ m));
  let layout = Layout.of_program prog ~param_values in
  let param p =
    match List.assoc_opt p param_values with
    | Some v -> v
    | None -> invalid_arg ("Interp: missing parameter " ^ p)
  in
  let storages =
    if not compute then []
    else
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
      let slot_of v =
        match List.assoc_opt v scope with
        | Some s -> s
        | None -> invalid_arg ("Interp: unbound variable " ^ v)
      in
      let conds =
        List.map
          (fun (c : Ir.cond) ->
            (compile_aff c.Ir.cond_aff ~slot_of ~param, c.Ir.cond_eq))
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
      let slot_of v =
        match List.assoc_opt v scope with
        | Some s -> s
        | None -> invalid_arg ("Interp: unbound variable " ^ v)
      in
      let los = List.map (compile_aff ~slot_of ~param) l.Ir.lo in
      let his = List.map (compile_aff ~slot_of ~param) l.Ir.hi in
      let slot = depth in
      let body = compile_items ((l.Ir.var, slot) :: scope) (depth + 1) l.Ir.body in
      let step = l.Ir.step in
      let var = l.Ir.var and parallel = l.Ir.parallel in
      fun () ->
        let lo =
          List.fold_left (fun acc f -> max acc (f stack)) min_int los
        in
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
      let slot_of v =
        match List.assoc_opt v scope with
        | Some sl -> sl
        | None -> invalid_arg ("Interp: unbound variable " ^ v)
      in
      let name = s.Ir.stmt_name in
      let stmt_flops = Ir.flops_of_expr s.Ir.rhs in
      (* compile an access into (element-offset closure, layout) *)
      let compile_access (a : Ir.access) =
        let al = Layout.find layout a.Ir.array in
        let idxs =
          Array.of_list (List.map (compile_aff ~slot_of ~param) a.Ir.indices)
        in
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
      if compute then begin
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
      end
      else begin
        (* scanning mode: same access stream, no values *)
        let reads =
          List.filter_map
            (function
              | Ir.Load a -> Some (compile_access a)
              | _ -> None)
            (let rec loads = function
               | Ir.Load a -> [ Ir.Load a ]
               | Ir.Const _ -> []
               | Ir.Bin (_, x, y) -> loads x @ loads y
               | Ir.Neg e | Ir.Sqrt e | Ir.Exp e -> loads e
             in
             loads s.Ir.rhs)
        in
        let tal, toffset = compile_access s.Ir.target in
        fun () ->
          incr instances;
          flops := !flops + stmt_flops;
          cb.on_stmt ~stmt:name ~flops:stmt_flops;
          List.iter (fun (al, offset) -> emit al (offset stack) false) reads;
          emit tal (toffset stack) true
      end
  in
  let main = compile_items [] 0 prog.Ir.body in
  main ();
  {
    layout;
    values = storages;
    instances = !instances;
    flops = !flops;
    accesses = !accesses;
  }

