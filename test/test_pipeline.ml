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
    Alcotest.test_case "request JSON round-trips, defaults stated once"
      `Quick test_request_roundtrip;
    Alcotest.test_case "malformed params are bad_request" `Quick
      test_malformed_params;
    Alcotest.test_case "unknown workload is invalid input" `Quick
      test_unknown_workload;
  ]
