type point = {
  core_ghz : float;
  rooflines : Roofline.constants;
  compiled : Flow.compiled;
  est_edp : float;
  est_time_s : float;
  est_energy_j : float;
}

type t = { best : point; points : point list }

let objective_value obj (p : point) =
  match obj with
  | Search.Edp -> p.est_edp
  | Search.Energy -> p.est_energy_j
  | Search.Performance -> p.est_time_s

let search ?(objective = Search.Edp) ?epsilon ?core_freqs ~machine prog
    ~param_values =
  let base = machine.Hwsim.Machine.core_ghz in
  let freqs =
    match core_freqs with
    | Some fs -> List.sort compare fs
    | None ->
      List.map (fun r -> Float.round (base *. r *. 10.) /. 10.)
        [ 2. /. 3.; 5. /. 6.; 1.0; 7. /. 6. ]
  in
  let points =
    List.map
      (fun f ->
        let m = Hwsim.Machine.with_core_ghz machine f in
        let rooflines = Roofline.for_machine ~ctx:Engine.Ctx.none m in
        let compiled =
          Flow.compile ~objective ?epsilon ~tile:false ~machine:m ~rooflines
            prog ~param_values
        in
        (* model estimate of the whole program at the per-region caps:
           sum the chosen estimates over the regions *)
        let time, energy =
          List.fold_left
            (fun (t, e) (d : Flow.region_decision) ->
              let est = d.Flow.search.Search.chosen in
              (t +. est.Perfmodel.time_s, e +. est.Perfmodel.energy_j))
            (0.0, 0.0) compiled.Flow.decisions
        in
        {
          core_ghz = f;
          rooflines;
          compiled;
          est_edp = energy *. time;
          est_time_s = time;
          est_energy_j = energy;
        })
      freqs
  in
  let best =
    match points with
    | [] -> invalid_arg "Core_scaling.search: empty frequency list"
    | p :: rest ->
      List.fold_left
        (fun acc q ->
          if objective_value objective q < objective_value objective acc then q
          else acc)
        p rest
  in
  { best; points }

let evaluate_best t ~param_values =
  Flow.evaluate
    ~machine:t.best.rooflines.Roofline.machine t.best.compiled ~param_values

let pp ppf t =
  Format.fprintf ppf "@[<v>joint core+uncore search:@,";
  List.iter
    (fun p ->
      let caps =
        String.concat " "
          (List.map (fun (_, f) -> Printf.sprintf "%.1f" f) p.compiled.Flow.caps)
      in
      Format.fprintf ppf "  core %.1f GHz: caps [%s] est T=%.4g s E=%.4g J EDP=%.4g%s@,"
        p.core_ghz caps p.est_time_s p.est_energy_j p.est_edp
        (if p == t.best then "  <- best" else ""))
    t.points;
  Format.fprintf ppf "@]"
