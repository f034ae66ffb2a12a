(* One pipeline, one request type: a request served by the daemon's
   handler must answer exactly what Pipeline.execute answers inline,
   Request's JSON must round-trip, and malformed params must come back
   as bad_request with their documented messages. *)

open Polyufc_core
module P = Serve.Protocol
module H = Serve.Handler
module J = Telemetry.Json

(* a document minus every wall-clock "timing" member *)
let rec drop_timing = function
  | J.Obj kvs ->
    J.Obj
      (List.filter_map
         (fun (k, v) -> if k = "timing" then None else Some (k, drop_timing v))
         kvs)
  | J.Arr xs -> J.Arr (List.map drop_timing xs)
  | j -> j

let stable j = J.to_string (drop_timing j)

let served ?(shared = H.create ()) req =
  let op =
    match P.op_of_name (Request.op_name req.Request.op) with
    | Some op -> op
    | None -> Alcotest.fail "request op has no wire op"
  in
  H.execute shared
    {
      P.id = J.Int 1;
      version = P.op_min_version op;
      op;
      params = Request.to_json req;
      qos = P.default_qos;
    }

let check_served_inline req =
  let label =
    Printf.sprintf "%s %s" (Request.op_name req.Request.op)
      (J.to_string (Request.to_json req))
  in
  match (served req).P.result with
  | Error e -> Alcotest.failf "%s: served request failed: %s" label e.P.message
  | Ok payload ->
    Alcotest.(check string) label
      (stable (Pipeline.to_json (Pipeline.execute ~ctx:Engine.Ctx.none req)))
      (stable payload)

(* reduced sizes: the point is the identity, not the workload *)
let small_jobs =
  [
    ("mvt", [ ("n", 64) ]);
    ("gemm", [ ("n", 16) ]);
    ("jacobi-1d", [ ("n", 200); ("tsteps", 4) ]);
    ("deriche", [ ("w", 24); ("h", 24) ]);
  ]

let test_served_equals_inline () =
  List.iter
    (fun machine ->
      List.iter
        (fun (name, sizes) ->
          let job = { Request.program = Workload name; sizes } in
          List.iter
            (fun op -> check_served_inline (Request.make ~machine op))
            [ Request.Analyze job; Search job; Run job ])
        small_jobs)
    [ Hwsim.Machine.bdw; Hwsim.Machine.rpl ]

let mvt_source =
  match (Workloads.find "mvt").Workloads.source with
  | Workloads.Lang src -> src
  | Workloads.Torch _ -> assert false

let test_served_source () =
  let job = { Request.program = Source mvt_source; sizes = [ ("n", 48) ] } in
  check_served_inline (Request.make ~tile_size:16 (Run job))

let two_tenants =
  [
    {
      Request.name = "gemm";
      job = { program = Workload "gemm"; sizes = [ ("n", 24) ] };
      weight = 1.0;
      cores = 0;
    };
    {
      Request.name = "vec";
      job = { program = Source mvt_source; sizes = [ ("n", 96) ] };
      weight = 2.0;
      cores = 2;
    };
  ]

let test_served_multi () =
  check_served_inline
    (Request.make (Analyze_multi { tenants = two_tenants; solo = false }))

(* ---------- tiling once per program: four paths, one answer ---------- *)

(* a bundled workload at reduced sizes; a lowered torch graph has no
   size parameters, so its reduced form travels as source *)
let reduced_job (w : Workloads.t) =
  match w.Workloads.source with
  | Workloads.Lang _ ->
    {
      Request.program = Workload w.Workloads.name;
      sizes = snd (Test_cm_oracle.reduced ~tile:false w);
    }
  | Workloads.Torch _ ->
    let prog, sizes = Test_cm_oracle.reduced ~tile:false w in
    { Request.program = Source (Polylang.to_string prog); sizes }

(* Pipeline.execute as it ran before the tiling memo: [Tiling.tile] on
   every request, no memo, no store *)
let oracle (r : Request.t) =
  let { Request.machine; tile_size; epsilon; objective; _ } = r in
  let tiled job =
    let prog, sizes = Pipeline.load job in
    ((Poly_ir.Tiling.tile ~tile_size prog).Poly_ir.Tiling.tiled, sizes)
  in
  let compile job =
    let prog, sizes = tiled job in
    ( Flow.compile ~objective ~epsilon ~tile:false ~machine
        ~rooflines:(Roofline.for_machine ~ctx:Engine.Ctx.none machine)
        prog ~param_values:sizes,
      sizes )
  in
  match r.op with
  | Request.Analyze job ->
    let prog, sizes = tiled job in
    Pipeline.Analysis
      (Analysis_cache.analyze_gov ~mode:Cache_model.Model.Set_associative
         ~apply_thread_heuristic:false ~machine prog ~param_values:sizes)
  | Request.Search job -> Pipeline.Compiled (fst (compile job))
  | Request.Run job ->
    let c, sizes = compile job in
    Pipeline.Ran (c, Flow.evaluate ~machine c ~param_values:sizes)
  | Request.Analyze_multi _ -> Alcotest.fail "no oracle for analyze_multi"

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let test_tiling_paths () =
  List.iter
    (fun machine ->
      List.iter
        (fun (w : Workloads.t) ->
          let job = reduced_job w in
          let reqs =
            List.map (Request.make ~machine)
              [ Request.Analyze job; Search job; Run job ]
          in
          let dir = Filename.temp_dir "polyufc_pipeline_test" "" in
          Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
          let store () = Engine.Ctx.create ~cache:(Engine.Rcache.create ~dir ()) () in
          let answer ~ctx r = stable (Pipeline.to_json (Pipeline.execute ~ctx r)) in
          let cold_ctx = store () in
          let cold =
            List.map
              (fun r ->
                Analysis_cache.clear_tile_memo ();
                answer ~ctx:cold_ctx r)
              reqs
          in
          let memo = List.map (answer ~ctx:cold_ctx) reqs in
          let stored =
            List.map
              (fun r ->
                Analysis_cache.clear_tile_memo ();
                answer ~ctx:(store ()) r)
              reqs
          in
          let oracle = List.map (fun r -> stable (Pipeline.to_json (oracle r))) reqs in
          List.iteri
            (fun i r ->
              let label path =
                Printf.sprintf "%s %s on %s: %s = oracle" (Request.op_name r.Request.op)
                  w.Workloads.name machine.Hwsim.Machine.name path
              in
              let want = List.nth oracle i in
              Alcotest.(check string) (label "cold") want (List.nth cold i);
              Alcotest.(check string) (label "memo hit") want (List.nth memo i);
              Alcotest.(check string) (label "tiling/v1 hit") want
                (List.nth stored i))
            reqs)
        Workloads.all)
    [ Hwsim.Machine.bdw; Hwsim.Machine.rpl ]

let test_request_roundtrip () =
  let gemm = { Request.program = Workload "gemm"; sizes = [] } in
  let src = { Request.program = Source mvt_source; sizes = [ ("n", 7) ] } in
  List.iter
    (fun r ->
      match
        Request.of_json ~op:(Request.op_name r.Request.op) (Request.to_json r)
      with
      | Ok r' ->
        Alcotest.(check bool)
          (J.to_string (Request.to_json r))
          true (r = r')
      | Error m -> Alcotest.failf "round-trip refused: %s" m)
    [
      Request.make (Analyze gemm);
      Request.make ~machine:Hwsim.Machine.rpl ~tile_size:8 (Analyze src);
      Request.make (Search gemm);
      Request.make ~epsilon:0.25 ~objective:Search.Energy (Search src);
      Request.make (Run gemm);
      Request.make ~machine:Hwsim.Machine.rpl ~objective:Search.Performance
        (Run src);
      Request.make (Analyze_multi { tenants = two_tenants; solo = true });
      Request.make ~tile_size:64
        (Analyze_multi { tenants = two_tenants; solo = false });
    ];
  (* an empty params object decodes to the stated defaults *)
  match
    Request.of_json ~op:"search" (J.Obj [ ("workload", J.Str "gemm") ])
  with
  | Ok r ->
    Alcotest.(check bool) "defaults" true (r = Request.make (Search gemm));
    Alcotest.(check int) "tile 32" 32 r.tile_size;
    Alcotest.(check (float 0.)) "epsilon 1e-3" 1e-3 r.epsilon;
    Alcotest.(check bool) "edp on bdw" true
      (r.objective = Search.Edp && r.machine = Hwsim.Machine.bdw)
  | Error m -> Alcotest.failf "defaults refused: %s" m

let bad_request op params expected =
  let shared = H.create () in
  let op = Option.get (P.op_of_name op) in
  let r =
    { P.id = J.Int 1; version = 2; op; params; qos = P.default_qos }
  in
  match (H.execute shared r).P.result with
  | Error e ->
    Alcotest.(check string) expected expected e.P.message;
    Alcotest.(check bool) (expected ^ ": bad_request") true
      (e.P.kind = P.Bad_request)
  | Ok _ -> Alcotest.failf "%s: params must be refused" expected

let test_malformed_params () =
  let gemm = ("workload", J.Str "gemm") in
  let tenant kvs = J.Obj (gemm :: kvs) in
  bad_request "analyze"
    (J.Obj [ gemm; ("sizes", J.Arr []) ])
    "params.sizes must be an object of integers";
  bad_request "search"
    (J.Obj [ gemm; ("sizes", J.Obj [ ("n", J.Str "big") ]) ])
    "params.sizes.n must be an integer";
  bad_request "run"
    (J.Obj [ gemm; ("source", J.Str mvt_source) ])
    "give either params.workload or params.source, not both";
  bad_request "analyze" (J.Obj []) "missing params.workload or params.source";
  bad_request "analyze_multi"
    (J.Obj [ ("tenants", J.Arr []) ])
    "params.tenants must not be empty";
  bad_request "analyze_multi"
    (J.Obj [ ("tenants", J.Obj []) ])
    "params.tenants must be an array of objects";
  bad_request "analyze_multi"
    (J.Obj [ ("tenants", J.Arr [ J.Str "gemm" ]) ])
    "params.tenants[0] must be an object";
  bad_request "analyze_multi"
    (J.Obj
       [ ("tenants", J.Arr [ tenant []; tenant [ ("weight", J.Float 0.0) ] ]) ])
    "params.tenants[1].weight must be positive";
  bad_request "analyze_multi"
    (J.Obj [ ("tenants", J.Arr [ tenant [ ("cores", J.Int (-1)) ] ]) ])
    "params.tenants[0].cores must be non-negative";
  (* a request is decoded whole before anything runs: a shape error
     beats an unknown workload *)
  bad_request "analyze_multi"
    (J.Obj
       [
         ( "tenants",
           J.Arr
             [
               J.Obj [ ("workload", J.Str "nosuch") ];
               tenant [ ("weight", J.Int (-2)) ];
             ] );
       ])
    "params.tenants[1].weight must be positive"

let test_tile_size_positive () =
  let gemm = ("workload", J.Str "gemm") in
  List.iter
    (fun t ->
      bad_request "analyze"
        (J.Obj [ gemm; ("tile_size", J.Int t) ])
        "params.tile_size must be a positive integer";
      bad_request "analyze_multi"
        (J.Obj [ ("tenants", J.Arr [ J.Obj [ gemm ] ]); ("tile_size", J.Int t) ])
        "params.tile_size must be a positive integer")
    [ 0; -3 ]

let test_unknown_workload () =
  (* an unknown workload is the program's fault, not the request's *)
  let req =
    Request.make (Analyze { program = Workload "nosuch"; sizes = [] })
  in
  (match (served req).P.result with
  | Error e ->
    Alcotest.(check bool) "invalid_input" true (e.P.kind = P.Invalid_input);
    Alcotest.(check string) "message" "unknown workload \"nosuch\" (in parse)"
      e.P.message
  | Ok _ -> Alcotest.fail "unknown workload must be refused");
  match
    Engine.Guard.protect (fun () -> Pipeline.execute ~ctx:Engine.Ctx.none req)
  with
  | Error d ->
    Alcotest.(check int) "inline exit 3" Engine.Guard.exit_invalid_input
      d.Engine.Guard.code
  | Ok _ -> Alcotest.fail "unknown workload must fail inline"

let tests =
  [
    Alcotest.test_case "served = inline: analyze/search/run x 4 x BDW/RPL"
      `Quick test_served_equals_inline;
    Alcotest.test_case "served = inline: source program" `Quick
      test_served_source;
    Alcotest.test_case "served = inline: analyze_multi" `Quick
      test_served_multi;
    Alcotest.test_case
      "cold = memo hit = tiling/v1 hit = Tiling.tile: 29 x 3 ops x BDW/RPL"
      `Quick test_tiling_paths;
    Alcotest.test_case "request JSON round-trips, defaults stated once"
      `Quick test_request_roundtrip;
    Alcotest.test_case "malformed params are bad_request" `Quick
      test_malformed_params;
    Alcotest.test_case "a non-positive tile size is bad_request" `Quick
      test_tile_size_positive;
    Alcotest.test_case "unknown workload is invalid input" `Quick
      test_unknown_workload;
  ]
