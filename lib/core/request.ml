module J = Telemetry.Json

type program = Workload of string | Source of string

type job = { program : program; sizes : (string * int) list }

type tenant = { name : string; job : job; weight : float; cores : int }

type op =
  | Analyze of job
  | Search of job
  | Run of job
  | Analyze_multi of { tenants : tenant list; solo : bool }

type t = {
  op : op;
  machine : Hwsim.Machine.t;
  tile_size : int;
  epsilon : float;
  objective : Search.objective;
}

let default_machine = Hwsim.Machine.bdw
let default_tile_size = 32
let default_epsilon = 1e-3
let default_objective = Search.Edp

let make ?(machine = default_machine) ?(tile_size = default_tile_size)
    ?(epsilon = default_epsilon) ?(objective = default_objective) op =
  { op; machine; tile_size; epsilon; objective }

let machine_of_string = function
  | "bdw" | "BDW" -> Ok Hwsim.Machine.bdw
  | "rpl" | "RPL" -> Ok Hwsim.Machine.rpl
  | s -> Error (Printf.sprintf "unknown machine %S (use bdw or rpl)" s)

let objectives =
  [ ("edp", Search.Edp); ("energy", Search.Energy);
    ("performance", Search.Performance) ]

let op_name = function
  | Analyze _ -> "analyze"
  | Search _ -> "search"
  | Run _ -> "run"
  | Analyze_multi _ -> "analyze_multi"

(* --- decoding: a malformed params object raises [Bad_params] -------- *)

exception Bad_params of string

let bad fmt = Printf.ksprintf (fun m -> raise (Bad_params m)) fmt

(* [None] when [key] is absent; a present value [decode] rejects is a
   request-shape error *)
let field params key decode what =
  Option.map
    (fun v ->
      match decode v with
      | Some x -> x
      | None -> bad "params.%s must be %s" key what)
    (J.member key params)

let as_string = function J.Str s -> Some s | _ -> None
let as_bool = function J.Bool b -> Some b | _ -> None

let as_int = function
  | J.Int n -> Some n
  | J.Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let get_string params key = field params key as_string "a string"

let get_int ~default params key =
  Option.value (field params key as_int "an integer") ~default

let get_float ~default params key =
  Option.value (field params key J.number "a number") ~default

let machine_of params =
  match get_string params "machine" with
  | None -> default_machine
  | Some s -> (
    match machine_of_string s with Ok m -> m | Error m -> raise (Bad_params m))

let objective_of params =
  match get_string params "objective" with
  | None -> default_objective
  | Some s -> (
    match List.assoc_opt s objectives with
    | Some o -> o
    | None -> bad "unknown objective %S (use edp, energy or performance)" s)

let sizes_of params =
  match J.member "sizes" params with
  | None -> []
  | Some (J.Obj kvs) ->
    List.map
      (fun (p, v) ->
        match as_int v with
        | Some n -> (p, n)
        | None -> bad "params.sizes.%s must be an integer" p)
      kvs
  | Some _ -> bad "params.sizes must be an object of integers"

(* a bundled workload by name, or inline Polylang source text (the
   daemon cannot assume it shares a filesystem view with the client, so
   clients ship source, not paths) *)
let job_of params =
  let sizes = sizes_of params in
  match (get_string params "workload", get_string params "source") with
  | Some _, Some _ ->
    bad "give either params.workload or params.source, not both"
  | Some name, None -> { program = Workload name; sizes }
  | None, Some src -> { program = Source src; sizes }
  | None, None -> bad "missing params.workload or params.source"

(* params.tenants: an array of per-tenant objects, each shaped like an
   analyze request (workload|source, sizes) plus name/weight/cores *)
let tenants_of params =
  match J.member "tenants" params with
  | Some (J.Arr (_ :: _ as items)) ->
    List.mapi
      (fun i t ->
        match t with
        | J.Obj _ ->
          let job = job_of t in
          let name =
            match (get_string t "name", get_string t "workload") with
            | Some n, _ -> n
            | None, Some w -> w
            | None, None -> Printf.sprintf "tenant%d" i
          in
          let weight = get_float ~default:1.0 t "weight" in
          if weight <= 0.0 then
            bad "params.tenants[%d].weight must be positive" i;
          let cores = get_int ~default:0 t "cores" in
          if cores < 0 then
            bad "params.tenants[%d].cores must be non-negative" i;
          { name; job; weight; cores }
        | _ -> bad "params.tenants[%d] must be an object" i)
      items
  | Some (J.Arr []) -> bad "params.tenants must not be empty"
  | Some _ -> bad "params.tenants must be an array of objects"
  | None -> bad "missing params.tenants"

(* each op reads its fields in the order the daemon always has, so the
   first of several problems is the one reported *)
let decode ~op params =
  let tile_size () =
    let t = get_int ~default:default_tile_size params "tile_size" in
    if t <= 0 then bad "params.tile_size must be a positive integer";
    t
  in
  let epsilon () = get_float ~default:default_epsilon params "epsilon" in
  let single ~search op =
    let job = job_of params in
    let tile_size = tile_size () in
    let epsilon = if search then epsilon () else default_epsilon in
    let machine = machine_of params in
    let objective =
      if search then objective_of params else default_objective
    in
    { op = op job; machine; tile_size; epsilon; objective }
  in
  match op with
  | "analyze" -> single ~search:false (fun job -> Analyze job)
  | "search" -> single ~search:true (fun job -> Search job)
  | "run" -> single ~search:true (fun job -> Run job)
  | "analyze_multi" ->
    let tile_size = tile_size () in
    let epsilon = epsilon () in
    let solo =
      Option.value (field params "solo" as_bool "a boolean") ~default:true
    in
    let machine = machine_of params in
    let objective = objective_of params in
    let tenants = tenants_of params in
    { op = Analyze_multi { tenants; solo }; machine; tile_size; epsilon;
      objective }
  | _ -> bad "op %s carries no analysis request" op

let of_json ~op params =
  match decode ~op params with r -> Ok r | exception Bad_params m -> Error m

(* --- encoding ------------------------------------------------------ *)

let json_of_job { program; sizes } =
  (match program with
  | Workload name -> ("workload", J.Str name)
  | Source src -> ("source", J.Str src))
  :: (if sizes = [] then []
      else [ ("sizes", J.Obj (List.map (fun (p, v) -> (p, J.Int v)) sizes)) ])

let json_of_tenant t =
  J.Obj
    (json_of_job t.job
    @ [ ("name", J.Str t.name); ("weight", J.Float t.weight);
        ("cores", J.Int t.cores) ])

let to_json r =
  let knobs =
    [ ("machine", J.Str r.machine.Hwsim.Machine.name);
      ("tile_size", J.Int r.tile_size) ]
  in
  let objective = fst (List.find (fun (_, o) -> o = r.objective) objectives) in
  let search_knobs =
    knobs @ [ ("epsilon", J.Float r.epsilon); ("objective", J.Str objective) ]
  in
  J.Obj
    (match r.op with
    | Analyze job -> json_of_job job @ knobs
    | Search job | Run job -> json_of_job job @ search_knobs
    | Analyze_multi { tenants; solo } ->
      (("tenants", J.Arr (List.map json_of_tenant tenants)) :: search_knobs)
      @ [ ("solo", J.Bool solo) ])
