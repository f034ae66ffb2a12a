open Presburger

type stmt_info = {
  stmt : Ir.stmt;
  iter_vars : string list;
  domain : Bset.t;
  beta : int list;
  access_maps : (Ir.access * Bset.t) list;
  parallel_flags : bool list;
}

type t = { prog : Ir.t; stmt_infos : stmt_info list }

(* convert an Ir.aff to a Bset.aff given name->column environments *)
let bset_aff b ~vars ~params (a : Ir.aff) =
  let col_of_var v =
    match List.assoc_opt v vars with
    | Some c -> c
    | None -> invalid_arg ("Scop: unbound loop variable " ^ v)
  in
  let col_of_param p =
    match List.assoc_opt p params with
    | Some c -> c
    | None -> invalid_arg ("Scop: unbound parameter " ^ p)
  in
  ignore b;
  {
    Bset.coefs =
      List.map (fun (v, c) -> (c, col_of_var v)) a.Ir.var_coefs
      @ List.map (fun (p, c) -> (c, col_of_param p)) a.Ir.param_coefs;
    const = a.Ir.const;
  }

(* iteration domain of a statement under the given loop stack
   (innermost first in [stack]); [conds] carries the affine guards of the
   enclosing branches (negated guards for else branches are restricted to
   single-condition branches, cf. [extract]) *)
let domain_of_stack prog stack conds =
  let stack = List.rev stack in
  (* outermost first *)
  let iter_vars = List.map (fun (l : Ir.loop) -> l.Ir.var) stack in
  let space =
    Space.set_space ~params:prog.Ir.params ~name:"S" iter_vars
  in
  let b = Bset.universe space in
  let params = List.mapi (fun i p -> (p, Bset.param_pos b i)) prog.Ir.params in
  let vars = List.mapi (fun i v -> (v, Bset.out_pos b i)) iter_vars in
  let add_bounds b (l : Ir.loop) =
    let vcol = List.assoc l.Ir.var vars in
    (* v >= each lower bound *)
    let b =
      List.fold_left
        (fun b lo ->
          let a = bset_aff b ~vars ~params lo in
          Bset.add_ge b
            { Bset.coefs = (1, vcol) :: List.map (fun (c, v) -> (-c, v)) a.Bset.coefs;
              const = -a.Bset.const })
        b l.Ir.lo
    in
    (* v <= each upper bound - 1 *)
    let b =
      List.fold_left
        (fun b hi ->
          let a = bset_aff b ~vars ~params hi in
          Bset.add_ge b
            { Bset.coefs = (-1, vcol) :: a.Bset.coefs;
              const = a.Bset.const - 1 })
        b l.Ir.hi
    in
    (* stride: exists k >= 0 with v = lo + step·k, i.e. (v - lo) mod step = 0 *)
    if l.Ir.step = 1 then b
    else begin
      let lo = List.hd l.Ir.lo in
      let alo = bset_aff b ~vars ~params lo in
      let diff =
        { Bset.coefs = (1, vcol) :: List.map (fun (c, v) -> (-c, v)) alo.Bset.coefs;
          const = -alo.Bset.const }
      in
      let b, q = Bset.add_div b ~num:diff ~den:l.Ir.step in
      (* v - lo = step·q exactly *)
      Bset.add_eq b
        { Bset.coefs = (-l.Ir.step, q) :: diff.Bset.coefs; const = diff.Bset.const }
    end
  in
  let b = List.fold_left add_bounds b stack in
  (* enclosing branch guards *)
  let b =
    List.fold_left
      (fun b (c : Ir.cond) ->
        let a = bset_aff b ~vars ~params c.Ir.cond_aff in
        if c.Ir.cond_eq then Bset.add_eq b a else Bset.add_ge b a)
      b conds
  in
  (iter_vars, b)

let access_map prog iter_vars (a : Ir.access) =
  let out_dims = List.mapi (fun i _ -> Printf.sprintf "a%d" i) a.Ir.indices in
  let space =
    Space.map_space ~params:prog.Ir.params ~in_name:"S" ~out_name:a.Ir.array
      iter_vars out_dims
  in
  let b = Bset.universe space in
  let params = List.mapi (fun i p -> (p, Bset.param_pos b i)) prog.Ir.params in
  let vars = List.mapi (fun i v -> (v, Bset.in_pos b i)) iter_vars in
  List.fold_left
    (fun (b, k) idx ->
      let av = bset_aff b ~vars ~params idx in
      let b =
        Bset.add_eq b
          { Bset.coefs = (1, Bset.out_pos b k) :: List.map (fun (c, v) -> (-c, v)) av.Bset.coefs;
            const = -av.Bset.const }
      in
      (b, k + 1))
    (b, 0) a.Ir.indices
  |> fst

let extract prog =
  (match Ir.validate prog with
  | Ok () -> ()
  | Error msg -> invalid_arg ("Scop.extract: " ^ msg));
  let infos = ref [] in
  (* branches are transparent to the 2d+1 beta numbering: their children
     take consecutive positions at the enclosing depth (a branch adds no
     iteration dimension), while contributing their guards to the domain *)
  let rec walk stack beta_rev pflags conds counter items =
    List.iter
      (fun item ->
        match item with
        | Ir.Stmt s ->
          let pos = !counter in
          incr counter;
          let iter_vars, domain = domain_of_stack prog stack conds in
          let access_maps =
            List.map
              (fun a -> (a, access_map prog iter_vars a))
              (Ir.accesses_of_stmt s)
          in
          infos :=
            {
              stmt = s;
              iter_vars;
              domain;
              beta = List.rev (pos :: beta_rev);
              access_maps;
              parallel_flags = List.rev pflags;
            }
            :: !infos
        | Ir.Loop l ->
          let pos = !counter in
          incr counter;
          walk (l :: stack) (pos :: beta_rev) (l.Ir.parallel :: pflags) conds
            (ref 0) l.Ir.body
        | Ir.If b ->
          walk stack beta_rev pflags (conds @ b.Ir.conds) counter b.Ir.then_;
          (* the else branch needs the negated guard; exact negation of a
             conjunction is a disjunction, so we support the common
             single-condition case and over-approximate otherwise *)
          (match (b.Ir.conds, b.Ir.else_) with
          | _, [] -> ()
          | [ c ], _ when not c.Ir.cond_eq ->
            let neg =
              {
                Ir.cond_aff =
                  Ir.aff_sub (Ir.aff_const (-1)) c.Ir.cond_aff;
                cond_eq = false;
              }
            in
            walk stack beta_rev pflags (conds @ [ neg ]) counter b.Ir.else_
          | _, _ ->
            (* over-approximate: else statements keep the outer domain *)
            walk stack beta_rev pflags conds counter b.Ir.else_))
      items
  in
  walk [] [] [] [] (ref 0) prog.Ir.body;
  { prog; stmt_infos = List.rev !infos }

let find_stmt t name =
  match
    List.find_opt (fun i -> i.stmt.Ir.stmt_name = name) t.stmt_infos
  with
  | Some i -> i
  | None -> raise Not_found

let common_depth a b =
  let rec go ba bb k =
    match (ba, bb) with
    | ca :: ra, cb :: rb when ca = cb && ra <> [] && rb <> [] ->
      go ra rb (k + 1)
    | _ -> k
  in
  go a.beta b.beta 0

let max_depth t =
  List.fold_left
    (fun acc i -> max acc (List.length i.iter_vars))
    0 t.stmt_infos

let schedule_map t info =
  let d = List.length info.iter_vars in
  let dmax = max_depth t in
  let time_dims = (2 * dmax) + 1 in
  let out_dims = List.init time_dims (Printf.sprintf "t%d") in
  let space =
    Space.map_space ~params:t.prog.Ir.params ~in_name:"S" ~out_name:"T"
      info.iter_vars out_dims
  in
  let b = Bset.universe space in
  let beta = Array.of_list info.beta in
  let rec constrain b k =
    if k >= time_dims then b
    else begin
      let tcol = Bset.out_pos b k in
      let b =
        if k mod 2 = 0 then begin
          (* constant position; past the statement depth pad with 0 *)
          let level = k / 2 in
          let c = if level <= d then beta.(level) else 0 in
          Bset.add_eq b { Bset.coefs = [ (1, tcol) ]; const = -c }
        end
        else begin
          let level = (k - 1) / 2 in
          if level < d then
            Bset.add_eq b
              { Bset.coefs = [ (1, tcol); (-1, Bset.in_pos b level) ]; const = 0 }
          else Bset.add_eq b { Bset.coefs = [ (1, tcol) ]; const = 0 }
        end
      in
      constrain b (k + 1)
    end
  in
  constrain b 0

let param_values_array info ~param_values =
  let prog_params = Space.((Bset.space info.domain).params) in
  Array.map
    (fun p ->
      match List.assoc_opt p param_values with
      | Some v -> v
      | None -> invalid_arg ("Scop: missing value for parameter " ^ p))
    prog_params

let domain_cardinality ?(ctx = Engine.Ctx.none) _t info ~param_values =
  (* chamber-decomposed counting: O(1) quasi-polynomial evaluation when
     the parametric domain admits chambers, exact ground scan otherwise *)
  Count.card_at ~ctx info.domain (param_values_array info ~param_values)

let flop_count ?(ctx = Engine.Ctx.none) t ~param_values =
  List.fold_left
    (fun acc info ->
      let card = domain_cardinality ~ctx t info ~param_values in
      acc + (Ir.flops_of_expr info.stmt.Ir.rhs * card))
    0 t.stmt_infos

let pp_isl ppf t =
  Format.fprintf ppf "@[<v># SCoP of %s@," t.prog.Ir.prog_name;
  if t.prog.Ir.params <> [] then
    Format.fprintf ppf "# parameters: %s@," (String.concat ", " t.prog.Ir.params);
  List.iter
    (fun info ->
      Format.fprintf ppf "@,statement %s:@," info.stmt.Ir.stmt_name;
      Format.fprintf ppf "  domain   : %s@,"
        (Presburger.Syntax.bset_to_string info.domain);
      List.iter
        (fun ((a : Ir.access), m) ->
          Format.fprintf ppf "  access %s: %s@,"
            (match a.Ir.kind with Ir.Read -> "R" | Ir.Write -> "W")
            (Presburger.Syntax.bset_to_string m))
        info.access_maps;
      Format.fprintf ppf "  schedule : %s@,"
        (Presburger.Syntax.bset_to_string (schedule_map t info)))
    t.stmt_infos;
  Format.fprintf ppf "@]"

let export_isl t = Format.asprintf "%a" pp_isl t

let flop_count_sym ?(ctx = Engine.Ctx.none) t =
  match t.prog.Ir.params with
  | [ p ] ->
    Count.interpolate ~ctx
      ~count:(fun n -> flop_count ~ctx t ~param_values:[ (p, n) ])
      ()
  | _ -> None
