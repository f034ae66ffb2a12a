open Linalg

type quasi_poly = { period : int; polys : Q.t array array }

let degree qp =
  Array.fold_left
    (fun d poly ->
      let rec top i = if i < 0 then -1 else if Q.is_zero poly.(i) then top (i - 1) else i in
      max d (top (Array.length poly - 1)))
    0 qp.polys

exception Overflow of string

let eval qp n =
  let r = Ints.fmod n qp.period in
  match Fit.eval_exact_poly qp.polys.(r) (Q.of_int n) with
  | v ->
    if not (Q.is_integer v) then
      invalid_arg "Count.eval: non-integer value (inconsistent fit)";
    Q.to_int_exn v
  | exception Ints.Overflow ->
    (* surface the overflow instead of a bare exception (the old native-int
       path would have wrapped silently): the value does not fit an int *)
    raise
      (Overflow
         (Printf.sprintf
            "Count.eval: integer overflow evaluating degree-%d Ehrhart \
             quasi-polynomial at n=%d"
            (degree qp) n))

let pp ppf qp =
  let pp_poly ppf poly =
    let printed = ref false in
    Array.iteri
      (fun i c ->
        if not (Q.is_zero c) then begin
          if !printed then Format.fprintf ppf " + ";
          (match i with
          | 0 -> Format.fprintf ppf "%a" Q.pp c
          | 1 -> Format.fprintf ppf "%a·n" Q.pp c
          | _ -> Format.fprintf ppf "%a·n^%d" Q.pp c i);
          printed := true
        end)
      poly;
    if not !printed then Format.fprintf ppf "0"
  in
  if qp.period = 1 then pp_poly ppf qp.polys.(0)
  else begin
    Format.fprintf ppf "@[<v>";
    Array.iteri
      (fun r poly ->
        Format.fprintf ppf "[n ≡ %d mod %d] %a@," r qp.period pp_poly poly)
      qp.polys;
    Format.fprintf ppf "@]"
  end

let c_ehrhart_fit = Telemetry.counter "presburger.ehrhart_fit"
let c_ehrhart_ok = Telemetry.counter "presburger.ehrhart_fit_ok"

let interpolate ?(ctx = Engine.Ctx.none) ?(max_degree = 6) ?(max_period = 8)
    ?(base = 4) ~count () =
  Telemetry.tick c_ehrhart_fit;
  let pool = Engine.Ctx.pool ctx in
  (* memoize the (possibly expensive) counts *)
  let raw_count = count in
  let cache = Hashtbl.create 32 in
  let count n =
    match Hashtbl.find_opt cache n with
    | Some c -> c
    | None ->
      let c = count n in
      Hashtbl.add cache n c;
      c
  in
  (* sample positions a (degree, period) candidate will need: degree+1
     fitting points plus validation points per residue class *)
  let ks_of degree =
    List.init (degree + 3) Fun.id @ [ 2 * (degree + 3); (4 * (degree + 3)) + 1 ]
  in
  let first_of r period = base + Ints.fmod (r - base) period in
  (* fan the not-yet-cached sample counts over the pool; the cache itself
     is only touched from this (the submitting) thread, so the memo state
     after prefetching is identical to the sequential run's *)
  let prefetch degree period =
    match pool with
    | None -> ()
    | Some pool ->
      let needed =
        List.concat_map
          (fun r ->
            let first = first_of r period in
            List.map (fun k -> first + (k * period)) (ks_of degree))
          (List.init period Fun.id)
      in
      let missing =
        List.filter
          (fun n -> not (Hashtbl.mem cache n))
          (List.sort_uniq Stdlib.compare needed)
      in
      if List.compare_length_with missing 2 >= 0 then
        List.iter2
          (fun n c -> Hashtbl.add cache n c)
          missing
          (Engine.Pool.map ?cancel:(Engine.Ctx.cancel ctx) pool raw_count
             missing)
  in
  let try_fit degree period =
    (* governance: a (degree, period) candidate needs a bounded batch of
       sample counts, so candidates are natural cancellation points *)
    Engine.Ctx.check ctx;
    prefetch degree period;
    let fit_class r =
      (* parameter values >= base congruent to r mod period; fit on
         degree+1 consecutive class members, then validate on two adjacent
         and two far-out samples — far samples reject low-degree /
         low-period fits that merely match a locally flat region *)
      let first = first_of r period in
      let pts =
        List.map
          (fun k ->
            let n = first + (k * period) in
            (Q.of_int n, Q.of_int (count n)))
          (ks_of degree)
      in
      Fit.exact_polynomial ~degree pts
    in
    let classes = List.init period fit_class in
    if List.for_all Option.is_some classes then
      Some
        {
          period;
          polys = Array.of_list (List.map Option.get classes);
        }
    else None
  in
  let rec search degree period =
    if degree > max_degree then None
    else if period > max_period then search (degree + 1) 1
    else
      match try_fit degree period with
      | Some qp -> Some qp
      | None -> search degree (period + 1)
  in
  let result = search 0 1 in
  (* how many distinct parameter points the fit had to evaluate *)
  Telemetry.observe "ehrhart.fit_points" (float_of_int (Hashtbl.length cache));
  if result <> None then Telemetry.tick c_ehrhart_ok;
  result

let card_poly ?(ctx = Engine.Ctx.none) ?max_degree ?max_period ?base instance =
  interpolate ~ctx ?max_degree ?max_period ?base
    ~count:(fun n -> Bset.cardinality ~ctx (instance n))
    ()

(* --- Degraded cardinality: dilation extrapolation ---

   When the exact count of a ground polytope P = {x : a·x + c >= 0}
   exceeds its budget, we estimate |P| from cheap shrunken copies.  The
   r-fold shrink (1/r)·P is, after clearing denominators, the integer
   polytope {x : r·(a·x) + c >= 0}; by Ehrhart theory |t·P| is (quasi-)
   polynomial of degree d in the dilation t, so with samples at t = 1/r
   and t = 1/(2r) we fit the two leading terms A·t^d + B·t^(d-1) and
   extrapolate to t = 1.  The surface term B absorbs the O(t^(d-1))
   boundary contribution, leaving a relative error of O(1/r) from the
   dropped lower orders and the quasi-periodic wobble — the tolerance
   documented in DESIGN.md.  Divisions and equalities do not survive
   constant scaling (their lattice structure changes), so those fall
   back to the bounding-box product, an upper estimate. *)

let c_estimate = Telemetry.counter "presburger.card_estimates"

(* per-sample point cap for the shrunken counts, and the fuel of the
   fresh post-deadline budget each sample runs under (the caller's
   deadline is deliberately NOT consulted here: the whole point of the
   estimator is to produce a number with a bounded amount of
   post-deadline work) *)
let sample_cap = 50_000
let sample_fuel = 16 * sample_cap

let fresh_sample_ctx ctx =
  {
    ctx with
    Engine.Ctx.budget =
      Some (Engine.Budget.create ~fuel:sample_fuel ~degrade:Engine.Budget.Off ());
  }

let card_estimate ?(ctx = Engine.Ctx.none) b =
  Telemetry.tick c_estimate;
  let box = Bset.bounding_box b in
  let d = Array.length box in
  let box_lengths =
    Array.map
      (function
        | Some lo, Some hi -> Some (float_of_int (max 0 (hi - lo + 1)))
        | _ -> None)
      box
  in
  let box_volume =
    Array.fold_left
      (fun acc l ->
        match (acc, l) with Some a, Some l -> Some (a *. l) | _ -> None)
      (Some 1.) box_lengths
  in
  let saturate f =
    if f >= float_of_int max_int then max_int else max 0 (int_of_float (f +. 0.5))
  in
  let cstrs = Poly.constraints b.Bset.poly in
  let box_product () =
    match box_volume with
    | Some v -> saturate v
    | None -> raise Poly.Unbounded
  in
  if d = 0 then if Bset.is_empty b then 0 else 1
  else if b.Bset.n_div > 0 || List.exists (fun c -> c.Poly.eq) cstrs then
    box_product ()
  else
    match box_volume with
    | None -> raise Poly.Unbounded
    | Some vol ->
      (* smallest power-of-two shrink whose sample fits the cap *)
      let r = ref 1 in
      while vol /. (float_of_int !r ** float_of_int d) > float_of_int sample_cap
      do
        r := !r * 2
      done;
      let r = !r in
      let shrink_count r =
        let scaled =
          List.map
            (fun (c : Poly.cstr) ->
              { c with Poly.coef = Array.map (fun a -> r * a) c.Poly.coef })
            cstrs
        in
        let sctx = fresh_sample_ctx ctx in
        Poly.count_points
          ?pool:(Engine.Ctx.pool sctx)
          ?budget:(Engine.Ctx.budget sctx)
          ?cancel:(Engine.Ctx.cancel sctx)
          ~n_scan:d
          (Poly.make (Poly.nvar b.Bset.poly) scaled)
      in
      if r = 1 then
        (* the whole polytope fits the sample cap: count it outright
           (the caller still records the result as degraded — the
           budget it was given did run out) *)
        match shrink_count 1 with
        | n -> n
        | exception Engine.Budget.Exhausted _ -> box_product ()
      else begin
        match (shrink_count r, shrink_count (2 * r)) with
        | exception Engine.Budget.Exhausted _ -> box_product ()
        | n1, n2 ->
          (* |t·P| ~ A·t^d + B·t^(d-1); samples at t=1/r, t=1/(2r) *)
          let t1 = 1. /. float_of_int r and t2 = 1. /. float_of_int (2 * r) in
          let df = float_of_int d in
          let f1 = float_of_int n1 /. (t1 ** (df -. 1.)) in
          let f2 = float_of_int n2 /. (t2 ** (df -. 1.)) in
          let a = (f1 -. f2) /. (t1 -. t2) in
          let bterm = f1 -. (a *. t1) in
          let extrapolated = a +. bterm in
          if Float.is_finite extrapolated && extrapolated >= 0. then
            saturate extrapolated
          else
            (* degenerate fit (e.g. empty samples): pure volume scaling *)
            saturate (float_of_int n1 /. (t1 ** df))
      end

let retry_fuel = 1_000_000

let card_gov ?(ctx = Engine.Ctx.none) b =
  match Bset.cardinality ~ctx b with
  | n -> (n, Engine.Fidelity.Exact)
  | exception Engine.Budget.Exhausted _
    when Engine.Ctx.degrade_allowed ctx -> (
    (* bounded post-deadline retry under a fresh fuel-only budget: small
       domains still count exactly even after the request deadline *)
    let retry_ctx =
      {
        ctx with
        Engine.Ctx.budget =
          Some
            (Engine.Budget.create ~fuel:retry_fuel ~degrade:Engine.Budget.Off
               ());
      }
    in
    match Bset.cardinality ~ctx:retry_ctx b with
    | n -> (n, Engine.Fidelity.Exact)
    | exception Engine.Budget.Exhausted _ ->
      Engine.Fidelity.note_degraded ();
      (card_estimate ~ctx b, Engine.Fidelity.Degraded))

(* ---- chamber-decomposed parametric counting ---- *)

let card_param ?(ctx = Engine.Ctx.none) b = Chamber.decompose ~ctx b

let card_at ?(ctx = Engine.Ctx.none) b values =
  let np = Space.n_params (Bset.space b) in
  if Array.length values <> np then invalid_arg "Count.card_at: arity";
  if np = 0 then Bset.cardinality ~ctx b
  else begin
    (* a decomposition cut short by the budget is not an error: fall
       back to the exact ground scan, whose own metering re-raises
       promptly if the budget really is spent (callers with a
       degradation policy then substitute an estimate, cf. card_gov) *)
    let chambers =
      try Chamber.decompose ~ctx b with Engine.Budget.Exhausted _ -> None
    in
    match chambers with
    | Some ch -> (
      try Chamber.eval ch values
      with Linalg.Ints.Overflow ->
        raise (Overflow "Count.card_at: chamber evaluation overflowed"))
    | None -> Bset.cardinality ~ctx (Bset.fix_params b values)
  end

let card_pset_at ?(ctx = Engine.Ctx.none) ps values =
  match Pset.disjuncts ps with
  | [ b ] -> card_at ~ctx b values
  | _ -> Pset.cardinality ~ctx (Pset.fix_params ps values)
