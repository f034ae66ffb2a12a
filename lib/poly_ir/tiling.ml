type nest_report = {
  nest_root : string;
  band : int;
  parallel : bool;
  n_deps : int;
}

type report = { tiled : Ir.t; nests : nest_report list }

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

let version = 2
let default_legality_sizes = [ 6; 9 ]

let plan ?(legality_sizes = default_legality_sizes) prog =
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
  List.filter_map
    (function
      | Ir.Stmt _ | Ir.If _ -> None (* top-level branches are left untiled *)
      | Ir.Loop root ->
        let band = perfect_band root in
        let names = stmt_names (Ir.Loop root) in
        let nest_deps =
          List.map (fun deps -> deps_of_nest deps names) dep_samples
        in
        (* hoisting tile loops above the band requires the band's bounds
           to be free of loop variables (rectangular band); triangular
           bands are left to the point loops.  A strided loop ends the
           band too: its point loop would need [max(tile, lo)] as a lower
           bound, which a strided loop cannot take *)
        let rect_prefix =
          let rec go = function
            | [] -> 0
            | (l : Ir.loop) :: rest ->
              let no_vars a = a.Ir.var_coefs = [] in
              if
                l.Ir.step = 1
                && List.for_all no_vars l.Ir.lo
                && List.for_all no_vars l.Ir.hi
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
        let parallel =
          List.for_all (fun deps -> Dependence.loop_parallel deps 0) nest_deps
        in
        (* a band shorter than 2 is left untiled *)
        Some
          {
            nest_root = root.Ir.var;
            band = (if b < 2 then 0 else b);
            parallel;
            n_deps = List.length (List.hd nest_deps);
          })
    prog.Ir.body

let apply ~tile_size prog nests =
  let mismatch fmt =
    Printf.ksprintf (fun m -> invalid_arg ("Tiling.apply: " ^ m)) fmt
  in
  let rec go nests = function
    | [] ->
      if nests <> [] then mismatch "%d nests left over" (List.length nests);
      []
    | (Ir.Stmt _ | Ir.If _) as item :: rest -> item :: go nests rest
    | Ir.Loop root :: rest -> (
      match nests with
      | [] -> mismatch "no plan for nest %s" root.Ir.var
      | n :: nests ->
        if n.nest_root <> root.Ir.var then
          mismatch "nest %s planned as %s" root.Ir.var n.nest_root;
        let band = perfect_band root in
        let item =
          if n.band = 0 then Ir.Loop root
          else if n.band < 2 || n.band > List.length band then
            mismatch "band %d of nest %s" n.band root.Ir.var
          else
            tile_band tile_size
              (List.filteri (fun i _ -> i < n.band) band)
              (List.nth band (n.band - 1)).Ir.body
        in
        (if n.parallel then mark_parallel item else item) :: go nests rest)
  in
  let tiled = { prog with Ir.body = go nests prog.Ir.body } in
  (match Ir.validate tiled with
  | Ok () -> ()
  | Error m -> invalid_arg ("Tiling produced an invalid program: " ^ m));
  tiled

let tile ?(tile_size = 32) ?legality_sizes prog =
  let nests = plan ?legality_sizes prog in
  { tiled = apply ~tile_size prog nests; nests }

let tile_program ?tile_size prog = (tile ?tile_size prog).tiled

let pp_report ppf r =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun n ->
      Format.fprintf ppf "nest %s: band=%d%s deps=%d@," n.nest_root n.band
        (if n.parallel then " parallel" else "")
        n.n_deps)
    r.nests;
  Format.fprintf ppf "@]"
