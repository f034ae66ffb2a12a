type outcome =
  | Analysis of Cache_model.Model.result
  | Compiled of Flow.compiled
  | Ran of Flow.compiled * Flow.evaluation
  | Fleet of Fleet.result

let load { Request.program; sizes } =
  Engine.Guard.phase "parse" @@ fun () ->
  match program with
  | Request.Workload name -> (
    match Workloads.find_opt name with
    | None -> failwith (Printf.sprintf "unknown workload %S" name)
    | Some w ->
      let sizes = if sizes = [] then Workloads.param_values w else sizes in
      (Workloads.program w, sizes))
  | Request.Source src -> (Polylang.parse src, sizes)

let source_file path =
  Engine.Guard.phase "parse" @@ fun () ->
  Request.Source (In_channel.with_open_bin path In_channel.input_all)

let execute ~ctx (r : Request.t) =
  let { Request.machine; tile_size; epsilon; objective; _ } = r in
  let compile job =
    let prog, sizes = load job in
    let rooflines = Roofline.for_machine ~ctx machine in
    ( Flow.compile ~ctx ~objective ~epsilon ~tile_size ~machine ~rooflines prog
        ~param_values:sizes,
      sizes )
  in
  match r.op with
  | Request.Analyze job ->
    let prog, sizes = load job in
    let tiled =
      Telemetry.with_span Flow.phase_pluto (fun () ->
          Analysis_cache.tile ~ctx ~tile_size prog)
    in
    Analysis
      (Telemetry.with_span Flow.phase_cm (fun () ->
           Analysis_cache.analyze_tiled ~ctx
             ~mode:Cache_model.Model.Set_associative ~apply_thread_heuristic:false
             ~machine tiled ~param_values:sizes))
  | Request.Search job -> Compiled (fst (compile job))
  | Request.Run job ->
    let c, sizes = compile job in
    Ran (c, Flow.evaluate ~ctx ~machine c ~param_values:sizes)
  | Request.Analyze_multi { tenants; solo } ->
    let specs =
      List.map
        (fun (t : Request.tenant) ->
          let prog, sizes = load t.job in
          Fleet.spec ~sizes ~weight:t.weight ~cores:t.cores ~name:t.name prog)
        tenants
    in
    let rooflines = Roofline.for_machine ~ctx machine in
    Fleet
      (Fleet.analyze ~ctx ~objective ~epsilon ~tile_size ~solo ~machine
         ~rooflines specs)

let to_json = function
  | Analysis cm -> Report.json_of_cm cm
  | Compiled c -> Report.json_of_compiled c
  | Ran (c, e) -> Report.json_of_run c e
  | Fleet r -> Fleet.json_of_result r

let pp ppf = function
  | Analysis cm -> Cache_model.Model.pp_result ppf cm
  | Compiled c -> Flow.pp_compiled ppf c
  | Ran (c, e) ->
    Format.fprintf ppf "%a@.%a" Flow.pp_compiled c Flow.pp_evaluation e
  | Fleet r -> Fleet.pp_result ppf r
