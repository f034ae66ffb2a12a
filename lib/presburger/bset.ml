type t = { space : Space.t; n_div : int; poly : Poly.t }
type aff = { coefs : (int * int) list; const : int }

let c_sets_built = Telemetry.counter "presburger.sets_built"

let n_total t = Space.n_vars t.space + t.n_div

let of_poly space ~n_div poly =
  assert (Poly.nvar poly = Space.n_vars space + n_div);
  Telemetry.tick c_sets_built;
  { space; n_div; poly }

let universe space =
  Telemetry.tick c_sets_built;
  { space; n_div = 0; poly = Poly.universe (Space.n_vars space) }

let space t = t.space
let n_div t = t.n_div
let param_pos _ i = i
let in_pos t i = Space.n_params t.space + i
let out_pos t i = Space.n_params t.space + Space.n_ins t.space + i
let div_pos t i = Space.n_vars t.space + i

let cstr_of_aff t a ~eq =
  let coef = Array.make (n_total t) 0 in
  List.iter
    (fun (c, v) ->
      assert (v >= 0 && v < n_total t);
      coef.(v) <- coef.(v) + c)
    a.coefs;
  if eq then Poly.eq coef a.const else Poly.ge coef a.const

let add_eq t a =
  { t with poly = Poly.add_constraints t.poly [ cstr_of_aff t a ~eq:true ] }

let add_ge t a =
  { t with poly = Poly.add_constraints t.poly [ cstr_of_aff t a ~eq:false ] }

let add_div t ~num ~den =
  assert (den > 0);
  let q = n_total t in
  let poly = Poly.insert_vars t.poly ~at:q ~count:1 in
  let t' = { t with n_div = t.n_div + 1; poly } in
  (* den·q <= num <= den·q + den - 1 *)
  let lower = { coefs = (-den, q) :: num.coefs; const = num.const } in
  let upper =
    {
      coefs = (den, q) :: List.map (fun (c, v) -> (-c, v)) num.coefs;
      const = den - 1 - num.const;
    }
  in
  (add_ge (add_ge t' lower) upper, q)

(* pad both arguments to a common div count, [a]'s divs first *)
let align_divs a b =
  let na = a.n_div and nb = b.n_div in
  let base = Space.n_vars a.space in
  let pa = Poly.insert_vars a.poly ~at:(base + na) ~count:nb in
  let pb = Poly.insert_vars b.poly ~at:base ~count:na in
  (pa, pb, na + nb)

let intersect a b =
  if not (Space.equal a.space b.space) then
    invalid_arg "Bset.intersect: space mismatch";
  let pa, pb, nd = align_divs a b in
  { space = a.space; n_div = nd; poly = Poly.append pa pb }

let fix_params t values =
  let np = Space.n_params t.space in
  assert (Array.length values = np);
  let poly = Poly.fix_vars t.poly (fun i -> if i < np then Some values.(i) else None) in
  let sp = t.space in
  let space =
    Space.map_space ~in_name:sp.Space.in_name ~out_name:sp.Space.out_name
      (Array.to_list sp.Space.ins) (Array.to_list sp.Space.outs)
  in
  { space; n_div = t.n_div; poly }

let inverse t =
  let np = Space.n_params t.space in
  let ni = Space.n_ins t.space and no = Space.n_outs t.space in
  let perm i =
    if i < np then i
    else if i < np + ni then i + no (* old in -> new out *)
    else if i < np + ni + no then i - ni (* old out -> new in *)
    else i
  in
  {
    space = Space.reverse t.space;
    n_div = t.n_div;
    poly = Poly.remap t.poly (n_total t) perm;
  }

(* turn the given tuple block into extra divs *)
let existentialize t ~drop_ins =
  let np = Space.n_params t.space in
  let ni = Space.n_ins t.space and no = Space.n_outs t.space in
  let dropped, kept_ofs, new_space =
    if drop_ins then
      ( (np, ni),
        np + ni,
        Space.set_space
          ~params:(Array.to_list t.space.Space.params)
          ~name:t.space.Space.out_name
          (Array.to_list t.space.Space.outs) )
    else
      ( (np + ni, no),
        np,
        Space.set_space
          ~params:(Array.to_list t.space.Space.params)
          ~name:t.space.Space.in_name
          (Array.to_list t.space.Space.ins) )
  in
  let d_start, d_count = dropped in
  let kept_count = ni + no - d_count in
  let perm i =
    if i < d_start then i
    else if i < d_start + d_count then
      (* dropped tuple dim -> first div block *)
      np + kept_count + (i - d_start)
    else if i < np + ni + no then
      (* remaining tuple dims shift down when the dropped block precedes *)
      if i >= kept_ofs && d_start < kept_ofs then i - d_count else i
    else (* old divs go after the new ones *) i
  in
  {
    space = new_space;
    n_div = t.n_div + d_count;
    poly = Poly.remap t.poly (n_total t) perm;
  }

let domain t = existentialize t ~drop_ins:false
let range t = existentialize t ~drop_ins:true

let compose a b =
  let space = Space.compose a.space b.space in
  let np = Space.n_params space in
  let nx = Space.n_ins a.space in
  let ny = Space.n_outs a.space in
  let nz = Space.n_outs b.space in
  let nd = ny + a.n_div + b.n_div in
  let total = np + nx + nz + nd in
  let perm_a i =
    if i < np + nx then i
    else if i < np + nx + ny then i + nz (* Y -> div block head *)
    else i + nz (* a's divs follow Y *)
  in
  let perm_b i =
    if i < np then i
    else if i < np + ny then np + nx + nz + (i - np) (* Y *)
    else if i < np + ny + nz then np + nx + (i - np - ny) (* Z *)
    else np + nx + nz + ny + a.n_div + (i - np - ny - nz)
  in
  let pa = Poly.remap a.poly total perm_a in
  let pb = Poly.remap b.poly total perm_b in
  { space; n_div = nd; poly = Poly.append pa pb }

let product_domain a b =
  if Space.n_ins a.space <> Space.n_ins b.space then
    invalid_arg "Bset.product_domain: domain arity mismatch";
  let np = Space.n_params a.space in
  let nx = Space.n_ins a.space in
  let ny = Space.n_outs a.space and nz = Space.n_outs b.space in
  let space =
    Space.map_space
      ~params:(Array.to_list a.space.Space.params)
      ~in_name:a.space.Space.in_name
      ~out_name:(a.space.Space.out_name ^ "_" ^ b.space.Space.out_name)
      (Array.to_list a.space.Space.ins)
      (Array.to_list a.space.Space.outs @ Array.to_list b.space.Space.outs)
  in
  let total = np + nx + ny + nz + a.n_div + b.n_div in
  let perm_a i = if i < np + nx + ny then i else i + nz in
  let perm_b i =
    if i < np + nx then i
    else if i < np + nx + nz then i + ny
    else i + ny + a.n_div
  in
  let pa = Poly.remap a.poly total perm_a in
  let pb = Poly.remap b.poly total perm_b in
  { space; n_div = a.n_div + b.n_div; poly = Poly.append pa pb }

let deltas t =
  let np = Space.n_params t.space in
  let n = Space.n_ins t.space in
  if Space.n_outs t.space <> n then
    invalid_arg "Bset.deltas: input/output arity mismatch";
  let space =
    Space.set_space
      ~params:(Array.to_list t.space.Space.params)
      ~name:"delta"
      (Array.to_list t.space.Space.ins)
  in
  (* layout: params, delta(n), divs = x(n) @ y(n) @ old divs *)
  let total = np + n + (2 * n) + t.n_div in
  let perm i =
    if i < np then i
    else if i < np + n then i + n (* x -> first div block *)
    else if i < np + (2 * n) then i + n (* y -> second div block *)
    else i + n
  in
  let poly = Poly.remap t.poly total perm in
  let base = { space; n_div = (2 * n) + t.n_div; poly } in
  (* δ_k = y_k - x_k *)
  let rec add k acc =
    if k = n then acc
    else
      add (k + 1)
        (add_eq acc
           {
             coefs =
               [ (1, np + n + n + k); (-1, np + n + k); (-1, np + k) ];
             const = 0;
           })
  in
  add 0 base

let to_set t =
  let sp = t.space in
  let dims = Array.to_list sp.Space.ins @ Array.to_list sp.Space.outs in
  let name =
    if sp.Space.in_name = "" then sp.Space.out_name
    else sp.Space.in_name ^ "_" ^ sp.Space.out_name
  in
  let space =
    Space.set_space ~params:(Array.to_list sp.Space.params) ~name dims
  in
  { space; n_div = t.n_div; poly = t.poly }

let tuple_dims t = Space.n_ins t.space + Space.n_outs t.space

let require_ground t op =
  if Space.n_params t.space > 0 then
    invalid_arg (op ^ ": parameters must be fixed first")

let is_empty t =
  match Poly.is_empty t.poly with
  | b -> b
  | exception Poly.Unbounded -> not (Poly.rational_feasible t.poly)

let sample t =
  require_ground t "Bset.sample";
  Poly.lexmin ~n_scan:(tuple_dims t) t.poly

let mem t point =
  require_ground t "Bset.mem";
  let nd = tuple_dims t in
  if Array.length point <> nd then invalid_arg "Bset.mem: arity";
  let fixed =
    Poly.fix_vars t.poly (fun i -> if i < nd then Some point.(i) else None)
  in
  not (Poly.is_empty fixed)

let lexmin t =
  require_ground t "Bset.lexmin";
  Poly.lexmin ~n_scan:(tuple_dims t) t.poly

let lexmax t =
  require_ground t "Bset.lexmax";
  Poly.lexmax ~n_scan:(tuple_dims t) t.poly

let fold_points ?(ctx = Engine.Ctx.none) t ~init ~f =
  require_ground t "Bset.fold_points";
  Poly.fold_points ?budget:(Engine.Ctx.budget ctx)
    ?cancel:(Engine.Ctx.cancel ctx) ~n_scan:(tuple_dims t) t.poly ~init ~f

(* Count memo: repeated counts of the same reuse polytope inside one
   analysis (the common case in PolyUFC-CM: the same miss polytope shows up
   per level, per parameter sample) are answered from a canonical-form
   table.  Keys are the full normalized constraint system, so a hit is
   exact by construction.  Mutex-guarded: counts may be issued from pool
   workers. *)
let c_memo_hit = Telemetry.counter "presburger.count_memo_hits"
let count_memo : (string, int) Hashtbl.t = Hashtbl.create 256
let count_memo_mutex = Mutex.create ()
let count_memo_cap = 8192

let clear_count_memo () =
  Mutex.protect count_memo_mutex (fun () -> Hashtbl.reset count_memo)

let memo_key t n_scan =
  let b = Buffer.create 128 in
  Buffer.add_string b (string_of_int (Poly.nvar t.poly));
  Buffer.add_char b '/';
  Buffer.add_string b (string_of_int n_scan);
  let lines =
    List.map
      (fun (c : Poly.cstr) ->
        let l = Buffer.create 32 in
        Buffer.add_char l (if c.Poly.eq then 'e' else 'i');
        Array.iter
          (fun a ->
            Buffer.add_char l ',';
            Buffer.add_string l (string_of_int a))
          c.Poly.coef;
        Buffer.add_char l ':';
        Buffer.add_string l (string_of_int c.Poly.const);
        Buffer.contents l)
      (Poly.constraints t.poly)
  in
  List.iter
    (fun line ->
      Buffer.add_char b ';';
      Buffer.add_string b line)
    (List.sort String.compare lines);
  Buffer.contents b

let cardinality ?(ctx = Engine.Ctx.none) t =
  require_ground t "Bset.cardinality";
  let n_scan = tuple_dims t in
  let key = memo_key t n_scan in
  match
    Mutex.protect count_memo_mutex (fun () -> Hashtbl.find_opt count_memo key)
  with
  | Some n ->
    Telemetry.tick c_memo_hit;
    n
  | None ->
    (* governance: an exhausted budget raises out of [count_points]
       before the memo-add below, so only exact counts are ever
       memoized (degraded estimates never pollute the table) *)
    let n =
      Poly.count_points ?pool:(Engine.Ctx.pool ctx)
        ?budget:(Engine.Ctx.budget ctx) ?cancel:(Engine.Ctx.cancel ctx)
        ~n_scan t.poly
    in
    Mutex.protect count_memo_mutex (fun () ->
        if Hashtbl.length count_memo >= count_memo_cap then
          Hashtbl.reset count_memo;
        if not (Hashtbl.mem count_memo key) then Hashtbl.add count_memo key n);
    n

let card = cardinality

let negate_cstr (c : Poly.cstr) : Poly.cstr list =
  (* ¬(coef·x + const >= 0)  ≡  -coef·x - const - 1 >= 0 *)
  assert (not c.Poly.eq);
  [ Poly.ge (Array.map (fun a -> -a) c.Poly.coef) (-c.Poly.const - 1) ]

let subtract a b =
  if not (Space.equal a.space b.space) then
    invalid_arg "Bset.subtract: space mismatch";
  if b.n_div > 0 then
    invalid_arg "Bset.subtract: subtrahend has division variables";
  (* expand equalities of b into pairs of inequalities *)
  let ineqs =
    List.concat_map
      (fun (c : Poly.cstr) ->
        if c.Poly.eq then
          [
            Poly.ge c.Poly.coef c.Poly.const;
            Poly.ge (Array.map (fun x -> -x) c.Poly.coef) (-c.Poly.const);
          ]
        else [ c ])
      (Poly.constraints b.poly)
  in
  (* pad b's constraints with zero columns for a's divs *)
  let pad (c : Poly.cstr) : Poly.cstr =
    let coef = Array.make (n_total a) 0 in
    Array.blit c.Poly.coef 0 coef 0 (Array.length c.Poly.coef);
    { c with Poly.coef }
  in
  let ineqs = List.map pad ineqs in
  let rec go kept acc = function
    | [] -> List.rev acc
    | c :: rest ->
      let disjunct =
        {
          a with
          poly = Poly.add_constraints a.poly (negate_cstr c @ kept);
        }
      in
      let acc = if is_empty disjunct then acc else disjunct :: acc in
      go (c :: kept) acc rest
  in
  go [] [] ineqs

let gist_trivial t = { t with poly = Poly.make (Poly.nvar t.poly) (Poly.constraints t.poly) }

let gist t ~context =
  if not (Space.equal t.space context.space) then
    invalid_arg "Bset.gist: space mismatch";
  (* common layout: [vars, t's divs, context's divs] *)
  let pt, pc, _nd = align_divs t context in
  ignore pt;
  let nvar_t = n_total t in
  let nvar_all = Poly.nvar pc in
  let widen coef =
    let w = Array.make nvar_all 0 in
    Array.blit coef 0 w 0 (min nvar_t (Array.length coef));
    w
  in
  let has_div_coef (c : Poly.cstr) =
    let rec go i =
      i < Array.length c.Poly.coef
      && (i >= Space.n_vars t.space && c.Poly.coef.(i) <> 0 || go (i + 1))
    in
    go (Space.n_vars t.space)
  in
  let keep (c : Poly.cstr) =
    (* constraints referencing division variables are kept conservatively:
       their negation would need the div-defining constraints *)
    if has_div_coef c then true
    else begin
      (* implied by the context iff context ∧ ¬c is empty *)
      let negations =
        if c.Poly.eq then
          [ Poly.ge (widen (Array.map (fun a -> -a) c.Poly.coef)) (-c.Poly.const - 1);
            Poly.ge (widen c.Poly.coef) (c.Poly.const - 1) ]
        else
          [ Poly.ge (widen (Array.map (fun a -> -a) c.Poly.coef)) (-c.Poly.const - 1) ]
      in
      not
        (List.for_all
           (fun neg ->
             let sys = Poly.add_constraints pc [ neg ] in
             match Poly.is_empty sys with
             | b -> b
             | exception Poly.Unbounded -> not (Poly.rational_feasible sys))
           negations)
    end
  in
  let cstrs = List.filter keep (Poly.constraints t.poly) in
  { t with poly = Poly.make (Poly.nvar t.poly) cstrs }

let bounding_box t =
  require_ground t "Bset.bounding_box";
  Array.init (tuple_dims t) (fun i -> Poly.var_bounds t.poly i)

let rename_tuples ?in_name ?out_name t =
  let sp = t.space in
  let in_name = Option.value in_name ~default:sp.Space.in_name in
  let out_name = Option.value out_name ~default:sp.Space.out_name in
  let space =
    if Space.is_set sp && in_name = "" then
      Space.set_space
        ~params:(Array.to_list sp.Space.params)
        ~name:out_name
        (Array.to_list sp.Space.outs)
    else
      Space.map_space
        ~params:(Array.to_list sp.Space.params)
        ~in_name ~out_name
        (Array.to_list sp.Space.ins)
        (Array.to_list sp.Space.outs)
  in
  { t with space }

let pp ppf t =
  Format.fprintf ppf "@[<v>%a (divs=%d)@,%a@]" Space.pp t.space t.n_div
    Poly.pp t.poly
