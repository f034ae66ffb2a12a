(* Chamber decomposition: split the parameter space into polyhedra on
   which the count is one quasi-polynomial, fit each by exact
   interpolation, validate against the exact enumerator.

   The wall heuristic follows the classical parametric-programming
   observation: the closed form changes where the *binding* bound of
   some counting level changes, i.e. across resultants of same-side
   bound pairs.  We only keep walls that are parameter-only after
   Fourier-Motzkin projection; shapes whose walls involve inner
   counting variables either still validate on each chamber (the count
   happens to stay quasi-polynomial) or fail validation and bail to the
   exact-scan path.  Validation, not the heuristic, carries soundness, as
   far as a finite check of sample and corner points reaches (see
   [boundary_ok]). *)

module Q = Linalg.Q
module Ints = Linalg.Ints
module Ctx = Engine.Ctx

type chamber = { guard : Poly.t; count : Qpoly.t }
type t = { np : int; chambers : chamber list }

let c_built = Telemetry.counter "presburger.chambers_built"
let c_hits = Telemetry.counter "presburger.chamber_cache_hits"

let n_chambers t = List.length t.chambers

let eval t values =
  if Array.length values <> t.np then invalid_arg "Chamber.eval: arity";
  match
    List.find_opt (fun c -> Poly.mem c.guard values) t.chambers
  with
  | Some c -> Qpoly.eval c.count values
  | None -> 0

(* ---- canonical key (cf. Bset's counting memo) ---- *)

let canonical_key ~np ~m p =
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "%d/%d/%d" (Poly.nvar p) np m);
  let lines =
    List.map
      (fun (c : Poly.cstr) ->
        let b = Buffer.create 32 in
        Buffer.add_char b (if c.eq then 'e' else 'i');
        Array.iter (fun x -> Buffer.add_string b ("," ^ string_of_int x)) c.coef;
        Buffer.add_string b (":" ^ string_of_int c.const);
        Buffer.contents b)
      (Poly.constraints p)
  in
  List.iter
    (fun l ->
      Buffer.add_char buf ';';
      Buffer.add_string buf l)
    (List.sort compare lines);
  Buffer.contents buf

(* ---- process-wide memo (shared across daemon requests) ---- *)

let memo : (string, t option) Hashtbl.t = Hashtbl.create 64
let memo_mu = Mutex.create ()
let memo_cap = 1024

let memo_find key =
  Mutex.lock memo_mu;
  let r = Hashtbl.find_opt memo key in
  Mutex.unlock memo_mu;
  r

let memo_add key v =
  Mutex.lock memo_mu;
  if Hashtbl.length memo >= memo_cap then Hashtbl.reset memo;
  Hashtbl.replace memo key v;
  Mutex.unlock memo_mu

let clear_memo () =
  Mutex.lock memo_mu;
  Hashtbl.reset memo;
  Mutex.unlock memo_mu

(* ---- decomposition ---- *)

(* candidate chamber walls: for each counting level, resultants of
   same-side bound pairs (where the binding bound changes, the closed
   form changes).  A resultant that still mentions inner counting
   variables is projected onto the parameters by substituting, one
   column at a time, the bounds of the outermost counting variable it
   mentions — the wall crosses the domain where the inner wall meets an
   extreme of that variable's range. *)
let split_forms ~np ~nvar tw dpoly =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  let consider coefs const =
    if Array.exists (fun x -> x <> 0) coefs then begin
      let g =
        Array.fold_left (fun g c -> Ints.gcd g (abs c)) (abs const) coefs
      in
      let g = if g = 0 then 1 else g in
      let coefs = Array.map (fun x -> x / g) coefs in
      let const = const / g in
      (* canonical sign: first non-zero coefficient positive *)
      let flip =
        let rec first i =
          if i >= np then 1 else if coefs.(i) <> 0 then coefs.(i) else first (i + 1)
        in
        first 0 < 0
      in
      let coefs = if flip then Array.map (fun x -> -x) coefs else coefs in
      let const = if flip then -const else const in
      let key = (Array.to_list coefs, const) in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        (* drop walls whose sign is fixed on D: no split there *)
        let pos = Poly.add_constraints dpoly [ Poly.ge coefs const ] in
        let neg =
          Poly.add_constraints dpoly
            [ Poly.ge (Array.map (fun x -> -x) coefs) (-const - 1) ]
        in
        if Poly.rational_feasible pos && Poly.rational_feasible neg then
          out := (coefs, const) :: !out
      end
    end
  in
  (* raw same-side resultants over the full column space *)
  let raw = ref [] in
  for j = np to nvar - 1 do
    let cstrs =
      List.filter
        (fun (c : Poly.cstr) -> c.coef.(j) <> 0)
        (Poly.constraints tw.(j + 1))
    in
    (* orient every constraint usable as a lower (coef_j > 0) and as an
       upper (coef_j < 0) bound; equalities serve both roles *)
    let oriented want_pos (c : Poly.cstr) =
      let a = c.coef.(j) in
      if (a > 0) = want_pos then Some (c.coef, c.const)
      else if c.eq then Some (Array.map (fun x -> -x) c.coef, -c.const)
      else None
    in
    let resultants want_pos =
      let side = List.filter_map (oriented want_pos) cstrs in
      let rec pairs = function
        | [] -> ()
        | (co1, k1) :: rest ->
            List.iter
              (fun (co2, k2) ->
                let a1 = co1.(j) and a2 = co2.(j) in
                let h = Array.make nvar 0 in
                for i = 0 to nvar - 1 do
                  if i <> j then h.(i) <- (a1 * co2.(i)) - (a2 * co1.(i))
                done;
                raw := (h, (a1 * k2) - (a2 * k1)) :: !raw)
              rest;
            pairs rest
      in
      pairs side
    in
    resultants true;
    resultants false
  done;
  (* project each wall onto the parameters: substitute the bounds of the
     outermost counting column it mentions, bounded work *)
  let budget = ref 192 in
  let rec project (h, k) =
    if !budget > 0 then begin
      decr budget;
      let c = ref (-1) in
      for i = np to nvar - 1 do
        if h.(i) <> 0 then c := i
      done;
      if !c < 0 then consider (Array.sub h 0 np) k
      else begin
        let c = !c in
        List.iter
          (fun (b : Poly.cstr) ->
            if b.coef.(c) <> 0 then begin
              let h' = Array.make nvar 0 in
              for i = 0 to nvar - 1 do
                if i <> c then
                  h'.(i) <- (b.coef.(c) * h.(i)) - (h.(c) * b.coef.(i))
              done;
              project (h', (b.coef.(c) * k) - (h.(c) * b.const))
            end)
          (Poly.constraints tw.(c + 1))
      end
    end
  in
  List.iter project (List.rev !raw);
  (* deterministic order, bounded count: at most 6 walls = 64 chambers *)
  let forms = List.rev !out in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: r -> x :: take (n - 1) r
  in
  take 6 forms

let enumerate_chambers ~ctx dpoly forms =
  let rec enum guard = function
    | [] -> [ Poly.remove_redundant guard ]
    | (coefs, const) :: rest ->
        Ctx.check ctx;
        let pos = Poly.add_constraints guard [ Poly.ge coefs const ] in
        let neg =
          Poly.add_constraints guard
            [ Poly.ge (Array.map (fun x -> -x) coefs) (-const - 1) ]
        in
        (if Poly.rational_feasible pos then enum pos rest else [])
        @ (if Poly.rational_feasible neg then enum neg rest else [])
  in
  enum dpoly forms

(* shrink a guard so a sample box of side [ext] starting at any of its
   points stays inside; None when the guard carries a non-trivial
   equality (no full-dimensional box fits) *)
let tighten guard ext =
  let ok = ref true in
  let cstrs =
    List.map
      (fun (c : Poly.cstr) ->
        if c.eq then begin
          if Array.exists (fun x -> x <> 0) c.coef then ok := false;
          c
        end
        else begin
          let slack =
            Array.fold_left
              (fun acc a -> acc + (Stdlib.min 0 a * ext))
              0 c.coef
          in
          Poly.ge c.coef (c.const + slack)
        end)
      (Poly.constraints guard)
  in
  if not !ok then None else Some (Poly.make (Poly.nvar guard) cstrs)

(* lexicographically-small integer point of a possibly unbounded
   polyhedron: parameter domains are usually unbounded above, where
   {!Poly.lexmin}'s scan raises [Unbounded], so clamp every axis to a
   window above its rational lower bound first and widen on demand *)
let small_point p =
  let np = Poly.nvar p in
  let rec with_window k =
    if k > 256 then None
    else begin
      let cstrs = ref [] and ok = ref true in
      for i = 0 to np - 1 do
        match Poly.var_bounds p i with
        | Some lo, _ ->
            let coef = Array.make np 0 in
            coef.(i) <- -1;
            cstrs := Poly.ge coef (lo + k) :: !cstrs
        | None, _ -> ok := false
      done;
      if not !ok then None
      else
        let boxed = Poly.add_constraints p !cstrs in
        match (try Poly.lexmin boxed with Poly.Unbounded -> None) with
        | Some pt -> Some pt
        | None -> with_window (k * 4)
    end
  in
  with_window 16

let anchor_of tight =
  match small_point tight with
  | Some p when Array.for_all (fun x -> abs x <= 100_000) p -> Some p
  | _ -> None

(* validate the fitted form on the chamber's corner: the fit samples
   live in a box interior to the guard, but evaluation happens on the
   whole (closed) chamber, and a wall the heuristic missed splits it.
   Such walls come from constraints that stop binding as the parameters
   grow, so they cut the chamber near its small corner: every integer
   point of the guard within [radius] of its small point is checked
   (17, 49 and 27 points at most for one, two and three parameters).
   A finite check, not a proof: a missed wall far from the corner still
   escapes it. *)
let boundary_ok ~f guard q =
  let np = Poly.nvar guard in
  let radius = match np with 1 -> 8 | 2 -> 3 | _ -> 1 in
  let check w =
    match Qpoly.eval q w with
    | v -> v = f w
    | exception Invalid_argument _ -> false
    | exception Ints.Overflow -> false
  in
  match small_point guard with
  | None -> true
  | Some w ->
    let box =
      List.concat
        (List.init np (fun i ->
             let lo = Array.make np 0 and hi = Array.make np 0 in
             lo.(i) <- 1;
             hi.(i) <- -1;
             [ Poly.ge lo (radius - w.(i)); Poly.ge hi (w.(i) + radius) ]))
    in
    Poly.fold_points (Poly.add_constraints guard box) ~init:true ~f:(fun ok v ->
        ok && check (Array.copy v))

(* A bound on the period of every chamber's count: the vertices of the
   parametric polytope solve m of its constraints for the counting
   columns, so their coordinates are affine in the parameters with
   denominators dividing that m×m minor's determinant, and the count's
   period on a chamber divides the lcm of those denominators.  [None]
   when the lcm overflows. *)
let period_bound ~np ~m p =
  let rows =
    Array.of_list
      (List.map
         (fun (c : Poly.cstr) -> Array.sub c.coef np m)
         (Poly.constraints p))
  in
  (* fraction-free (Bareiss) elimination; checked arithmetic *)
  let det sel =
    let a = Array.map (fun r -> Array.copy rows.(r)) sel in
    let sign = ref 1 and prev = ref 1 and singular = ref false in
    for k = 0 to m - 1 do
      if not !singular then begin
        (match
           List.find_opt (fun i -> a.(i).(k) <> 0) (List.init (m - k) (( + ) k))
         with
        | None -> singular := true
        | Some i when i <> k ->
          let t = a.(i) in
          a.(i) <- a.(k);
          a.(k) <- t;
          sign := - !sign
        | Some _ -> ());
        if not !singular then begin
          for i = k + 1 to m - 1 do
            for j = k + 1 to m - 1 do
              a.(i).(j) <-
                Ints.sub (Ints.mul a.(i).(j) a.(k).(k)) (Ints.mul a.(i).(k) a.(k).(j))
                / !prev
            done
          done;
          prev := a.(k).(k)
        end
      end
    done;
    if !singular then 0 else !sign * a.(m - 1).(m - 1)
  in
  let n = Array.length rows in
  let sel = Array.make m 0 in
  let rec choose k from acc =
    if k = m then (match abs (det sel) with 0 -> acc | d -> Ints.lcm acc d)
    else begin
      let acc = ref acc in
      for r = from to n - 1 do
        sel.(k) <- r;
        acc := choose (k + 1) (r + 1) !acc
      done;
      !acc
    end
  in
  match choose 0 0 1 with d -> Some d | exception Ints.Overflow -> None

let fit_chamber ~ctx ~np ~m ~period_bound b guard =
  let degree = m in
  let f v = Bset.cardinality ~ctx (Bset.fix_params b v) in
  (* only periods the bound divides can be the count's; past the
     per-arity cap the fit is declined rather than guessed *)
  let candidates =
    let base, cap =
      match np with
      | 1 -> ([ 1; 2; 3; 4; 6 ], 12)
      | 2 -> ([ 1; 2; 3; 4 ], 4)
      | _ -> ([ 1; 2 ], 2)
    in
    match period_bound with
    | None -> []
    | Some d ->
      List.sort_uniq compare
        (List.filter (fun p -> p mod d = 0 && p <= cap) (d :: base))
  in
  let rec try_periods = function
    | [] -> None
    | period :: rest -> (
        Ctx.spend ctx 32;
        let ext = Qpoly.extent ~degree ~period in
        match tighten guard ext with
        | None -> None (* equality guard: no box fits, go thin *)
        | Some tight ->
            if not (Poly.rational_feasible tight) then try_periods rest
            else (
              match anchor_of tight with
              | None -> try_periods rest
              | Some anchor -> (
                  match
                    Qpoly.fit ~degree ~periods:(Array.make np period) ~anchor
                      ~f ()
                  with
                  | Some q when boundary_ok ~f guard q -> Some q
                  | _ -> try_periods rest)))
  in
  try_periods candidates

(* last resort for thin / low-dimensional chambers: enumerate their few
   parameter points as degree-0 single-point chambers *)
let thin_chambers ~ctx ~np b guard =
  let f v = Bset.cardinality ~ctx (Bset.fix_params b v) in
  let bounded = ref true in
  let total = ref 1 in
  for i = 0 to np - 1 do
    match Poly.var_bounds guard i with
    | Some lo, Some hi ->
        total := !total * Stdlib.max 0 (hi - lo + 1)
    | _ -> bounded := false
  done;
  if (not !bounded) || !total > 64 then None
  else
    Some
      (Poly.fold_points guard ~init:[] ~f:(fun acc v ->
           Ctx.spend ctx 4;
           let v = Array.copy v in
           let pins =
             List.init np (fun i ->
                 let coef = Array.make np 0 in
                 coef.(i) <- 1;
                 Poly.eq coef (-v.(i)))
           in
           { guard = Poly.make np pins; count = Qpoly.const ~np (f v) }
           :: acc))

let build ~ctx ~np ~m b p =
  let nvar = Poly.nvar p in
  Ctx.spend ctx 16;
  (* Fourier-Motzkin tower over the counting columns: tw.(k) has every
     column >= k eliminated (defined for k in np..nvar) *)
  let tw = Array.make (nvar + 1) p in
  for k = nvar - 1 downto np do
    tw.(k) <- Poly.eliminate_var tw.(k + 1) k
  done;
  (* static boundedness gate: every counting level needs a lower and an
     upper bound once deeper levels are eliminated *)
  let bounded = ref true in
  for j = np to nvar - 1 do
    let lower = ref false and upper = ref false in
    List.iter
      (fun (c : Poly.cstr) ->
        let a = c.coef.(j) in
        if a <> 0 then
          if c.eq then begin
            lower := true;
            upper := true
          end
          else if a > 0 then lower := true
          else upper := true)
      (Poly.constraints tw.(j + 1));
    if not (!lower && !upper) then bounded := false
  done;
  if not !bounded then None
  else begin
    let dpoly =
      Poly.remove_redundant
        (Poly.fix_vars tw.(np) (fun i -> if i >= np then Some 0 else None))
    in
    if not (Poly.rational_feasible dpoly) then Some { np; chambers = [] }
    else begin
      let forms = split_forms ~np ~nvar tw dpoly in
      let period_bound = period_bound ~np ~m p in
      let guards = enumerate_chambers ~ctx dpoly forms in
      let chambers =
        List.fold_left
          (fun acc guard ->
            match acc with
            | None -> None
            | Some acc -> (
                Ctx.check ctx;
                match fit_chamber ~ctx ~np ~m ~period_bound b guard with
                | Some q -> Some ({ guard; count = q } :: acc)
                | None -> (
                    match thin_chambers ~ctx ~np b guard with
                    | Some cs -> Some (cs @ acc)
                    | None -> None)))
          (Some []) guards
      in
      match chambers with
      | None -> None
      | Some cs -> Some { np; chambers = List.rev cs }
    end
  end

let decompose ?ctx b =
  let ctx = match ctx with Some c -> c | None -> Ctx.none in
  let sp = Bset.space b in
  let np = Space.n_params sp in
  let m = Space.n_ins sp + Space.n_outs sp in
  if np < 1 || np > 3 || m < 1 || m > 6 || Bset.n_div b > 0 then None
  else begin
    let p = Poly.remove_redundant b.Bset.poly in
    let key = canonical_key ~np ~m p in
    match memo_find key with
    | Some res ->
        if Option.is_some res then Telemetry.tick c_hits;
        res
    | None ->
        (* Budget exhaustion / cancellation raises out of [build] before
           the memo is touched: degraded state is never memoized *)
        let res = build ~ctx ~np ~m b p in
        Option.iter
          (fun ch -> Telemetry.add c_built (List.length ch.chambers))
          res;
        memo_add key res;
        res
  end

let pp fmt t =
  Format.fprintf fmt "@[<v>%d chamber(s) over %d parameter(s)" (n_chambers t)
    t.np;
  List.iter
    (fun c ->
      Format.fprintf fmt "@,  guard %a -> %a" Poly.pp c.guard Qpoly.pp c.count)
    t.chambers;
  Format.fprintf fmt "@]"
