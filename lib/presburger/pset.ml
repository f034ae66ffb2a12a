type t = { space : Space.t; disjuncts : Bset.t list }

let of_bset b = { space = Bset.space b; disjuncts = [ b ] }

let of_bsets space disjuncts =
  List.iter
    (fun b ->
      if not (Space.equal (Bset.space b) space) then
        invalid_arg "Pset.of_bsets: space mismatch")
    disjuncts;
  { space; disjuncts }

let universe space = of_bset (Bset.universe space)
let empty space = { space; disjuncts = [] }
let space t = t.space
let disjuncts t = t.disjuncts
let n_disjuncts t = List.length t.disjuncts

let union a b =
  if not (Space.equal a.space b.space) then
    invalid_arg "Pset.union: space mismatch";
  { space = a.space; disjuncts = a.disjuncts @ b.disjuncts }

let drop_empty t =
  { t with disjuncts = List.filter (fun b -> not (Bset.is_empty b)) t.disjuncts }

let intersect a b =
  if not (Space.equal a.space b.space) then
    invalid_arg "Pset.intersect: space mismatch";
  drop_empty
    {
      space = a.space;
      disjuncts =
        List.concat_map
          (fun da -> List.map (fun db -> Bset.intersect da db) b.disjuncts)
          a.disjuncts;
    }

let subtract a b =
  let sub_one bs bsub = List.concat_map (fun d -> Bset.subtract d bsub) bs in
  let disjuncts = List.fold_left sub_one a.disjuncts b.disjuncts in
  drop_empty { space = a.space; disjuncts }

let lift1 fspace f t =
  { space = fspace t.space; disjuncts = List.map f t.disjuncts }

let lift2 fspace f a b =
  drop_empty
    {
      space = fspace a.space b.space;
      disjuncts =
        List.concat_map
          (fun da -> List.map (fun db -> f da db) b.disjuncts)
          a.disjuncts;
    }

let compose a b = lift2 Space.compose Bset.compose a b
let product_domain a b =
  lift2
    (fun sa sb ->
      Space.map_space
        ~params:(Array.to_list sa.Space.params)
        ~in_name:sa.Space.in_name
        ~out_name:(sa.Space.out_name ^ "_" ^ sb.Space.out_name)
        (Array.to_list sa.Space.ins)
        (Array.to_list sa.Space.outs @ Array.to_list sb.Space.outs))
    Bset.product_domain a b

let inverse t = lift1 Space.reverse Bset.inverse t
let domain t = lift1 Space.domain Bset.domain t
let range t = lift1 Space.range Bset.range t

let deltas t =
  lift1
    (fun sp ->
      Space.set_space
        ~params:(Array.to_list sp.Space.params)
        ~name:"delta"
        (Array.to_list sp.Space.ins))
    Bset.deltas t

let to_set t =
  match t.disjuncts with
  | [] ->
    let sp = t.space in
    let dims = Array.to_list sp.Space.ins @ Array.to_list sp.Space.outs in
    empty (Space.set_space ~params:(Array.to_list sp.Space.params) dims)
  | ds ->
    let ds = List.map Bset.to_set ds in
    { space = Bset.space (List.hd ds); disjuncts = ds }

let fix_params t values =
  match t.disjuncts with
  | [] ->
    let sp = t.space in
    empty
      (Space.map_space ~in_name:sp.Space.in_name ~out_name:sp.Space.out_name
         (Array.to_list sp.Space.ins)
         (Array.to_list sp.Space.outs))
  | ds ->
    let ds = List.map (fun b -> Bset.fix_params b values) ds in
    { space = Bset.space (List.hd ds); disjuncts = ds }

(* {[x] -> [y] : x ≺ y} = ⋃_k { x_0..x_{k-1} = y_0..y_{k-1}, x_k < y_k } *)
let lex_map ~strict n =
  let dims prefix = List.init n (fun i -> Printf.sprintf "%s%d" prefix i) in
  let sp = Space.map_space (dims "i") (dims "o") in
  let disjunct k =
    let b = Bset.universe sp in
    let b =
      List.fold_left
        (fun b j ->
          Bset.add_eq b
            { Bset.coefs = [ (1, Bset.out_pos b j); (-1, Bset.in_pos b j) ]; const = 0 })
        b
        (List.init k Fun.id)
    in
    Bset.add_ge b
      {
        Bset.coefs = [ (1, Bset.out_pos b k); (-1, Bset.in_pos b k) ];
        const = -1;
      }
  in
  let strict_disjuncts = List.init n disjunct in
  let all =
    if strict then strict_disjuncts
    else begin
      (* add the identity relation for ⪯ *)
      let b = Bset.universe sp in
      let ident =
        List.fold_left
          (fun b j ->
            Bset.add_eq b
              { Bset.coefs = [ (1, Bset.out_pos b j); (-1, Bset.in_pos b j) ]; const = 0 })
          b
          (List.init n Fun.id)
      in
      ident :: strict_disjuncts
    end
  in
  { space = sp; disjuncts = all }

let lex_lt n = lex_map ~strict:true n
let lex_le n = lex_map ~strict:false n

(* a ∪ b is convex iff the "common hull" (constraints of a satisfied by b
   and vice versa — approximated here by the pairwise-implied subsets)
   contains nothing outside a ∪ b *)
let try_coalesce a b =
  if Bset.n_div a > 0 || Bset.n_div b > 0 then None
  else begin
    (* does every point of [other] satisfy constraint [c]? *)
    let implied ~other (c : Poly.cstr) =
      let aff_of coef const =
        let coefs = ref [] in
        Array.iteri (fun i x -> if x <> 0 then coefs := (x, i) :: !coefs) coef;
        { Bset.coefs = !coefs; const }
      in
      let holds coef const =
        (* other ∧ ¬(coef·x + const >= 0) empty *)
        Bset.is_empty
          (Bset.add_ge other
             (aff_of (Array.map (fun x -> -x) coef) (-const - 1)))
      in
      if c.Poly.eq then
        holds c.Poly.coef c.Poly.const
        && holds (Array.map (fun x -> -x) c.Poly.coef) (-c.Poly.const)
      else holds c.Poly.coef c.Poly.const
    in
    (* candidate hull: constraints of a implied by b plus constraints of b
       implied by a *)
    let kept_of x ~other =
      List.filter (implied ~other) (Poly.constraints x.Bset.poly)
    in
    let ca = kept_of a ~other:b and cb = kept_of b ~other:a in
    let space = Bset.space a in
    let candidate =
      Bset.of_poly space ~n_div:0
        (Poly.make (Space.n_vars space) (ca @ cb))
    in
    (* valid iff candidate \ a \ b is empty *)
    let leftovers =
      List.concat_map (fun d -> Bset.subtract d b) (Bset.subtract candidate a)
    in
    if List.for_all Bset.is_empty leftovers then Some candidate else None
  end

let coalesce t =
  let rec pass acc = function
    | [] -> List.rev acc
    | d :: rest ->
      let rec merge_into d before = function
        | [] -> (d, List.rev before)
        | e :: after -> (
          match try_coalesce d e with
          | Some m -> merge_into m before after
          | None -> merge_into d (e :: before) after)
      in
      let d', rest' = merge_into d [] rest in
      pass (d' :: acc) rest'
  in
  let once = pass [] t.disjuncts in
  { t with disjuncts = once }

let is_empty t = List.for_all Bset.is_empty t.disjuncts

let sample t =
  List.find_map Bset.sample t.disjuncts

let mem t point = List.exists (fun b -> Bset.mem b point) t.disjuncts

let is_subset a b =
  is_empty (subtract a b)

let is_equal a b = is_subset a b && is_subset b a

let lex_compare a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then compare (Array.length a) (Array.length b)
    else if a.(i) <> b.(i) then compare a.(i) b.(i)
    else go (i + 1)
  in
  go 0

let lexmin_point t =
  List.fold_left
    (fun best b ->
      match (best, Bset.lexmin b) with
      | None, m -> m
      | m, None -> m
      | Some x, Some y -> if lex_compare y x < 0 then Some y else Some x)
    None t.disjuncts

let lexmax_point t =
  List.fold_left
    (fun best b ->
      match (best, Bset.lexmax b) with
      | None, m -> m
      | m, None -> m
      | Some x, Some y -> if lex_compare y x > 0 then Some y else Some x)
    None t.disjuncts

let fold_points ?ctx t ~init ~f =
  match t.disjuncts with
  | [] -> init
  | [ b ] -> Bset.fold_points ?ctx b ~init ~f
  | ds ->
    (* deduplicate points shared between overlapping disjuncts *)
    let seen = Hashtbl.create 1024 in
    List.fold_left
      (fun acc b ->
        Bset.fold_points ?ctx b ~init:acc ~f:(fun acc p ->
            let key = Array.to_list p in
            if Hashtbl.mem seen key then acc
            else begin
              Hashtbl.add seen key ();
              f acc p
            end))
      init ds

(* Counting a union without enumerating it: disjointify by inclusion-
   exclusion-free subtraction — |∪ᵢ dᵢ| = Σᵢ |dᵢ \ d₀ \ … \ dᵢ₋₁| — and
   count each disjoint piece through the closed-form path.  Only applies
   to small div-free unions (subtraction requires a div-free subtrahend
   and its piece count grows with the constraint count); everything else
   falls back to the enumerating dedup. *)
let cardinality ?(ctx = Engine.Ctx.none) t =
  match t.disjuncts with
  | [] -> 0
  | [ b ] -> Bset.cardinality ~ctx b
  | ds
    when List.length ds <= 8
         && List.for_all (fun b -> Bset.n_div b = 0) ds ->
    let rec go acc prev = function
      | [] -> acc
      | d :: rest ->
        let pieces =
          List.fold_left
            (fun pieces p ->
              List.concat_map (fun piece -> Bset.subtract piece p) pieces)
            [ d ] prev
        in
        let acc =
          List.fold_left
            (fun acc piece -> Linalg.Ints.add acc (Bset.cardinality ~ctx piece))
            acc pieces
        in
        go acc (d :: prev) rest
    in
    go 0 [] ds
  | _ ->
    (* enumerating dedup fallback: meter each deduplicated point (and,
       inside [fold_points], each existential candidate) so the budget
       bounds this path too *)
    let pending = ref 0 in
    let n =
      fold_points ~ctx t ~init:0 ~f:(fun n _ ->
          incr pending;
          if !pending >= 1024 then begin
            Engine.Ctx.spend ctx !pending;
            pending := 0
          end;
          n + 1)
    in
    Engine.Ctx.spend ctx !pending;
    n

let card = cardinality

let pp ppf t =
  Format.fprintf ppf "@[<v>union of %d disjunct(s):@,%a@]"
    (List.length t.disjuncts)
    (Format.pp_print_list Bset.pp)
    t.disjuncts
