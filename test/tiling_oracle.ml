(* Test-only oracle for tiling: [Poly_ir.Tiling.tile] as it was before
   it split into [plan] and [apply] — dependence analysis and rewrite in
   one pass over the nests — kept verbatim, so the split can be diffed
   against it program for program. *)

open Poly_ir

(* the maximal perfect band from the root of a nest: consecutive loops each
   containing exactly one item which is again a loop *)
let rec perfect_band (l : Ir.loop) =
  match l.Ir.body with
  | [ Ir.Loop inner ] -> l :: perfect_band inner
  | _ -> [ l ]

(* statements (by name) contained in an item *)
let rec stmt_names = function
  | Ir.Stmt s -> [ s.Ir.stmt_name ]
  | Ir.Loop l -> List.concat_map stmt_names l.Ir.body
  | Ir.If b ->
    List.concat_map stmt_names b.Ir.then_
    @ List.concat_map stmt_names b.Ir.else_

(* dependences whose endpoints are both inside the given nest *)
let deps_of_nest all_deps names =
  List.filter
    (fun (d : Dependence.t) ->
      List.mem d.Dependence.src.Scop.stmt.Ir.stmt_name names
      && List.mem d.Dependence.dst.Scop.stmt.Ir.stmt_name names)
    all_deps

(* rewrite band loops l1..lb into tile loops (step T from 0) wrapping point
   loops with max/min bounds *)
let tile_band tile_size band innermost_body =
  let fresh_tile_var (l : Ir.loop) = l.Ir.var ^ "t" in
  (* point loops, innermost outwards *)
  let point_loops =
    List.fold_right
      (fun (l : Ir.loop) body ->
        let vt = fresh_tile_var l in
        [
          Ir.loop_minmax l.Ir.var
            ~lo:(Ir.aff_var vt :: l.Ir.lo)
            ~hi:(Ir.aff_add (Ir.aff_var vt) (Ir.aff_const tile_size) :: l.Ir.hi)
            ~step:l.Ir.step body;
        ])
      band innermost_body
  in
  (* tile loops, innermost outwards; lower bound 0 (cf. module doc) *)
  List.fold_right
    (fun (l : Ir.loop) body ->
      let vt = fresh_tile_var l in
      [
        Ir.loop_minmax vt ~lo:[ Ir.aff_const 0 ] ~hi:l.Ir.hi ~step:tile_size
          body;
      ])
    band point_loops
  |> List.hd

let mark_parallel item =
  match item with
  | Ir.Loop l -> Ir.Loop { l with Ir.parallel = true }
  | i -> i

let tile ?(tile_size = 32) ?(legality_sizes = [ 6; 9 ]) prog =
  let scop = Scop.extract prog in
  let dep_samples =
    List.map
      (fun n ->
        let pv = List.map (fun p -> (p, n)) prog.Ir.params in
        Dependence.analyze scop ~param_values:pv)
      (if prog.Ir.params = [] then [ 0 ] else legality_sizes)
  in
  let dep_samples =
    match dep_samples with [] -> [ [] ] | l -> l
  in
  let reports = ref [] in
  let transform_top = function
    | Ir.Stmt s -> Ir.Stmt s
    | Ir.If b -> Ir.If b (* top-level branches are left untiled *)
    | Ir.Loop root ->
      let band = perfect_band root in
      let names = stmt_names (Ir.Loop root) in
      let nest_deps = List.map (fun deps -> deps_of_nest deps names) dep_samples in
      (* hoisting tile loops above the band requires the band's bounds to
         be free of loop variables (rectangular band); triangular bands are
         left to the point loops *)
      let rect_prefix =
        let rec go = function
          | [] -> 0
          | (l : Ir.loop) :: rest ->
            let no_vars a = a.Ir.var_coefs = [] in
            if List.for_all no_vars l.Ir.lo && List.for_all no_vars l.Ir.hi
            then 1 + go rest
            else 0
        in
        go band
      in
      let b =
        List.fold_left
          (fun acc deps -> min acc (Dependence.permutable_prefix deps))
          (min (List.length band) rect_prefix)
          nest_deps
      in
      let parallel0 =
        List.for_all (fun deps -> Dependence.loop_parallel deps 0) nest_deps
      in
      let n_deps = List.length (List.hd nest_deps) in
      if b < 2 then begin
        (* untiled; still mark the outer loop parallel when legal *)
        reports :=
          { Tiling.nest_root = root.Ir.var; band = 0; parallel = parallel0; n_deps }
          :: !reports;
        if parallel0 then mark_parallel (Ir.Loop root) else Ir.Loop root
      end
      else begin
        let tiled_band = List.filteri (fun i _ -> i < b) band in
        let inner_body =
          (List.nth band (b - 1)).Ir.body
        in
        let tiled = tile_band tile_size tiled_band inner_body in
        reports :=
          { Tiling.nest_root = root.Ir.var; band = b; parallel = parallel0; n_deps }
          :: !reports;
        if parallel0 then mark_parallel tiled else tiled
      end
  in
  let body = List.map transform_top prog.Ir.body in
  let tiled = { prog with Ir.body } in
  (match Ir.validate tiled with
  | Ok () -> ()
  | Error m -> invalid_arg ("Tiling produced an invalid program: " ^ m));
  { Tiling.tiled; nests = List.rev !reports }
