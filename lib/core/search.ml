type objective = Edp | Energy | Performance

type outcome = {
  cap_ghz : float;
  chosen : Perfmodel.estimate;
  baseline : Perfmodel.estimate;
  sweep : Perfmodel.estimate list;
  steps : int;
  boundedness : Roofline.boundedness;
  fidelity : Engine.Fidelity.t;
}

let objective_value obj (e : Perfmodel.estimate) =
  match obj with
  | Edp -> e.Perfmodel.edp
  | Energy -> e.Perfmodel.energy_j
  | Performance -> e.Perfmodel.time_s

(* ε-admissibility of a cap relative to the max-frequency baseline *)
let admissible ~epsilon k bd ~(baseline : Perfmodel.estimate)
    ~(bottom : Perfmodel.estimate) (e : Perfmodel.estimate) =
  let bw_cap f = Roofline.dram_bw_at k ~f_u:f in
  match bd with
  | Roofline.CB ->
    (* performance loss vs the capability loss of the same frequency drop *)
    let perf_loss =
      1.0 -. (e.Perfmodel.perf_gflops /. baseline.Perfmodel.perf_gflops)
    in
    let bw_loss = 1.0 -. (bw_cap e.Perfmodel.f_c /. bw_cap baseline.Perfmodel.f_c) in
    perf_loss <= bw_loss +. epsilon
  | Roofline.BB ->
    (* rising from the bottom of the range: performance gains must track
       bandwidth-capability gains *)
    let perf_gain =
      (e.Perfmodel.perf_gflops /. bottom.Perfmodel.perf_gflops) -. 1.0
    in
    let bw_gain = (bw_cap e.Perfmodel.f_c /. bw_cap bottom.Perfmodel.f_c) -. 1.0 in
    perf_gain >= (bw_gain *. 0.5) -. epsilon

let run ?(ctx = Engine.Ctx.none) ?(fidelity = Engine.Fidelity.Exact)
    ?(objective = Edp)
    ?(epsilon = 1e-3) (k : Roofline.constants) profile =
  Engine.Ctx.checkpoint ctx;
  (* the sweep points are independent closed-form evaluations; with a pool
     they fan out across workers (order is preserved by Pool.map, so the
     search below sees the same frequency grid either way) *)
  let sweep =
    match Engine.Ctx.pool ctx with
    | None -> Perfmodel.sweep k profile
    | Some pool ->
      Engine.Pool.map ?cancel:(Engine.Ctx.cancel ctx) pool
        (fun f -> Perfmodel.estimate k profile ~f_c:f)
        (Hwsim.Machine.uncore_freqs k.Roofline.machine)
  in
  let arr = Array.of_list sweep in
  let n = Array.length arr in
  assert (n > 0);
  let baseline = arr.(n - 1) in
  let bottom = arr.(0) in
  let bd = Roofline.characterize k ~oi:profile.Perfmodel.oi in
  let steps = ref 0 in
  let value i =
    incr steps;
    objective_value objective arr.(i)
  in
  let ok i = admissible ~epsilon k bd ~baseline ~bottom arr.(i) in
  (* binary search for the minimum of the (near-unimodal) objective on the
     admissible range; the bottleneck characterization seeds the bracket *)
  let lo0, hi0 =
    match bd with
    | Roofline.CB -> (0, n - 1) (* favour the low end *)
    | Roofline.BB ->
      (* BB kernels never cap below the first admissible frequency *)
      let rec first i = if i >= n - 1 || ok i then i else first (i + 1) in
      (first 0, n - 1)
  in
  let rec bisect lo hi =
    if hi - lo <= 0 then lo
    else begin
      let mid = (lo + hi) / 2 in
      if value mid <= value (mid + 1) then bisect lo mid else bisect (mid + 1) hi
    end
  in
  let best = bisect lo0 hi0 in
  (* enforce ε-admissibility: walk towards the safe end if violated *)
  let rec enforce i =
    if ok i then i
    else
      match bd with
      | Roofline.CB -> if i + 1 < n then enforce (i + 1) else n - 1
      | Roofline.BB -> if i + 1 < n then enforce (i + 1) else n - 1
  in
  let chosen_i = enforce best in
  Telemetry.count "search.runs";
  Telemetry.count ~by:!steps "search.objective_evals";
  {
    cap_ghz = arr.(chosen_i).Perfmodel.f_c;
    chosen = arr.(chosen_i);
    baseline;
    sweep;
    steps = !steps;
    boundedness = bd;
    fidelity;
  }

let pp_outcome ppf o =
  Format.fprintf ppf
    "[%a] cap=%.1f GHz (%d steps): %a@ vs max-freq %a"
    Roofline.pp_boundedness o.boundedness o.cap_ghz o.steps
    Perfmodel.pp_estimate o.chosen Perfmodel.pp_estimate o.baseline;
  if o.fidelity <> Engine.Fidelity.Exact then
    Format.fprintf ppf "@ (fidelity: %a)" Engine.Fidelity.pp o.fidelity
