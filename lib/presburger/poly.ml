open Linalg

type cstr = { coef : int array; const : int; eq : bool }
type t = { nvar : int; cstrs : cstr list }

(* operation-level telemetry: exact-arithmetic blowup in the Presburger
   layer shows up here first (cf. PPL experience) *)
let c_fm_project = Telemetry.counter "presburger.fm_project"
let c_is_empty = Telemetry.counter "presburger.is_empty"
let c_lexmin = Telemetry.counter "presburger.lexmin"
let c_points = Telemetry.counter "presburger.points_scanned"
let c_slices = Telemetry.counter "presburger.slices_closed_form"
let c_redundant = Telemetry.counter "presburger.redundant_dropped"

exception Infeasible
exception Unbounded

let ge coef const = { coef = Array.copy coef; const; eq = false }
let eq coef const = { coef = Array.copy coef; const; eq = true }
let false_cstr nvar = { coef = Array.make nvar 0; const = -1; eq = false }
let coef_gcd c = Array.fold_left (fun g a -> Ints.gcd g a) 0 c.coef

let is_trivial c =
  Array.for_all (fun a -> a = 0) c.coef
  && if c.eq then c.const = 0 else c.const >= 0

(* gcd reduction; inequalities get integer tightening of the constant.
   Raises [Infeasible] on a constantly-false constraint, returns [None] for
   a constantly-true one. *)
let normalize c =
  let g = coef_gcd c in
  if g = 0 then
    if (c.eq && c.const <> 0) || ((not c.eq) && c.const < 0) then
      raise Infeasible
    else None
  else if c.eq then
    if c.const mod g <> 0 then raise Infeasible
    else begin
      (* canonical sign: first non-zero coefficient positive *)
      let coef = Array.map (fun a -> a / g) c.coef in
      let const = c.const / g in
      let flip =
        match Array.find_opt (fun a -> a <> 0) coef with
        | Some a -> a < 0
        | None -> false
      in
      let coef = if flip then Array.map (fun a -> -a) coef else coef in
      let const = if flip then -const else const in
      Some { coef; const; eq = true }
    end
  else
    Some { coef = Array.map (fun a -> a / g) c.coef; const = Ints.fdiv c.const g; eq = false }

(* deduplicate: same coefficient vector keeps the strongest form *)
let dedup cstrs =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let key = (Array.to_list c.coef, c.eq) in
      match Hashtbl.find_opt tbl key with
      | None -> Hashtbl.add tbl key c
      | Some c' ->
        if c.eq then begin
          if c.const <> c'.const then raise Infeasible
        end
        else if c.const < c'.const then Hashtbl.replace tbl key c)
    cstrs;
  Hashtbl.fold (fun _ c acc -> c :: acc) tbl []

let normalize_all cstrs = dedup (List.filter_map normalize cstrs)

let make nvar cstrs =
  List.iter
    (fun c ->
      if Array.length c.coef <> nvar then
        invalid_arg "Poly.make: constraint arity mismatch")
    cstrs;
  match normalize_all cstrs with
  | cstrs -> { nvar; cstrs }
  | exception Infeasible -> { nvar; cstrs = [ false_cstr nvar ] }

let universe nvar = { nvar; cstrs = [] }
let nvar t = t.nvar
let constraints t = t.cstrs
let add_constraints t cs = make t.nvar (cs @ t.cstrs)

let append a b =
  if a.nvar <> b.nvar then invalid_arg "Poly.append: arity mismatch";
  make a.nvar (a.cstrs @ b.cstrs)

let eval c point =
  let acc = ref c.const in
  for i = 0 to Array.length c.coef - 1 do
    acc := Ints.add !acc (Ints.mul c.coef.(i) point.(i))
  done;
  !acc

let sat c point =
  let v = eval c point in
  if c.eq then v = 0 else v >= 0

let mem t point =
  Array.length point = t.nvar && List.for_all (fun c -> sat c point) t.cstrs

let insert_vars t ~at ~count =
  let shift c =
    let coef = Array.make (t.nvar + count) 0 in
    Array.iteri
      (fun i a -> coef.(if i < at then i else i + count) <- a)
      c.coef;
    { c with coef }
  in
  { nvar = t.nvar + count; cstrs = List.map shift t.cstrs }

let remap t nvar' perm =
  let move c =
    let coef = Array.make nvar' 0 in
    Array.iteri (fun i a -> if a <> 0 then coef.(perm i) <- a) c.coef;
    { c with coef }
  in
  make nvar' (List.map move t.cstrs)

let fix_vars t value =
  let kept = ref [] in
  for i = t.nvar - 1 downto 0 do
    if value i = None then kept := i :: !kept
  done;
  let kept = Array.of_list !kept in
  let nvar' = Array.length kept in
  let convert c =
    let coef = Array.make nvar' 0 in
    Array.iteri (fun j i -> coef.(j) <- c.coef.(i)) kept;
    let const = ref c.const in
    Array.iteri
      (fun i a ->
        match value i with
        | Some v when a <> 0 -> const := Ints.add !const (Ints.mul a v)
        | _ -> ())
      c.coef;
    { coef; const = !const; eq = c.eq }
  in
  make nvar' (List.map convert t.cstrs)

(* --- Fourier–Motzkin --- *)

(* [combine a ca b cb] is [ca·a + cb·b] (both inequalities, [ca, cb > 0]) *)
let combine a ca b cb =
  {
    coef =
      Array.init (Array.length a.coef) (fun i ->
          Ints.add (Ints.mul ca a.coef.(i)) (Ints.mul cb b.coef.(i)));
    const = Ints.add (Ints.mul ca a.const) (Ints.mul cb b.const);
    eq = false;
  }

(* substitute using equality [e] (with [e.coef.(v) <> 0]) into [c] *)
let substitute_eq v e c =
  let a = e.coef.(v) in
  let b = c.coef.(v) in
  if b = 0 then c
  else begin
    let s = if a > 0 then 1 else -1 in
    let coef =
      Array.init (Array.length c.coef) (fun i ->
          Ints.sub (Ints.mul (abs a) c.coef.(i)) (Ints.mul (Ints.mul b s) e.coef.(i)))
    in
    let const =
      Ints.sub (Ints.mul (abs a) c.const) (Ints.mul (Ints.mul b s) e.const)
    in
    { coef; const; eq = c.eq }
  end

let eliminate_var_exn t v =
  Telemetry.tick c_fm_project;
  let has c = c.coef.(v) <> 0 in
  let eqs = List.filter (fun c -> c.eq && has c) t.cstrs in
  let cstrs =
    match eqs with
    | e :: _ ->
      (* pivot on an equality: exact substitution *)
      List.filter_map
        (fun c -> if c == e then None else Some (substitute_eq v e c))
        t.cstrs
    | [] ->
      let lowers, uppers, rest =
        List.fold_left
          (fun (lo, up, rest) c ->
            if not (has c) then (lo, up, c :: rest)
            else if c.coef.(v) > 0 then (c :: lo, up, rest)
            else (lo, c :: up, rest))
          ([], [], []) t.cstrs
      in
      let pairs =
        List.concat_map
          (fun l ->
            List.map (fun u -> combine l (-u.coef.(v)) u l.coef.(v)) uppers)
          lowers
      in
      pairs @ rest
  in
  { nvar = t.nvar; cstrs = normalize_all cstrs }

let eliminate_var t v =
  match eliminate_var_exn t v with
  | t' -> t'
  | exception Infeasible -> { nvar = t.nvar; cstrs = [ false_cstr t.nvar ] }

let eliminate_from t k =
  let r = ref t in
  for v = t.nvar - 1 downto k do
    r := eliminate_var !r v
  done;
  !r

let rational_feasible t =
  match
    let r = ref t in
    for v = t.nvar - 1 downto 0 do
      r := eliminate_var_exn !r v
    done;
    !r
  with
  | r -> List.for_all is_trivial r.cstrs
  | exception Infeasible -> false

let definitely_false t =
  List.exists
    (fun c ->
      Array.for_all (fun a -> a = 0) c.coef
      && if c.eq then c.const <> 0 else c.const < 0)
    t.cstrs

(* --- Constraint-system minimization ---

   Smaller descriptions are the prerequisite for every fast polyhedral
   operation (cf. the PPL experience): the elimination towers below grow
   with the number of constraints, and the closed-form counting path
   benefits directly from tight, irredundant bounds. *)

(* Merge opposite parallel inequalities [v·x >= l] and [v·x <= h] into the
   equality [v·x = l] when [l = h], and detect [l > h] as infeasibility.
   The result describes the same rational (hence integer) set; equalities
   make elimination cheaper because they pivot exactly instead of
   multiplying lower×upper constraint pairs. *)
let merge_parallel t =
  let eqs, ineqs = List.partition (fun c -> c.eq) t.cstrs in
  (* canonical coefficient vector (first non-zero positive) -> tightest
     lower/upper bound on [v·x] seen so far *)
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun c ->
      let flip =
        match Array.find_opt (fun a -> a <> 0) c.coef with
        | Some a -> a < 0
        | None -> false
      in
      let key =
        Array.to_list (if flip then Array.map (fun a -> Ints.sub 0 a) c.coef else c.coef)
      in
      let lo, hi =
        match Hashtbl.find_opt tbl key with Some b -> b | None -> (None, None)
      in
      let b =
        if flip then
          (* -v·x + const >= 0, i.e. v·x <= const *)
          let h = c.const in
          (lo, match hi with Some h' when h' <= h -> hi | _ -> Some h)
        else
          (* v·x + const >= 0, i.e. v·x >= -const *)
          let l = Ints.sub 0 c.const in
          ((match lo with Some l' when l' >= l -> lo | _ -> Some l), hi)
      in
      Hashtbl.replace tbl key b)
    ineqs;
  let infeasible = ref false in
  let merged =
    Hashtbl.fold
      (fun key b acc ->
        let v = Array.of_list key in
        match b with
        | Some l, Some h when l > h ->
          infeasible := true;
          acc
        | Some l, Some h when l = h ->
          { coef = v; const = Ints.sub 0 l; eq = true } :: acc
        | lo, hi ->
          let acc =
            match lo with
            | Some l -> { coef = v; const = Ints.sub 0 l; eq = false } :: acc
            | None -> acc
          in
          (match hi with
          | Some h ->
            { coef = Array.map (fun a -> Ints.sub 0 a) v; const = h; eq = false } :: acc
          | None -> acc))
      tbl []
  in
  if !infeasible then { nvar = t.nvar; cstrs = [ false_cstr t.nvar ] }
  else { nvar = t.nvar; cstrs = eqs @ merged }

(* Integer-set-preserving redundancy elimination.  An inequality [c] can be
   dropped when [rest ∧ ¬c] is rationally infeasible, where over the
   integers [¬(coef·x + const >= 0)] is [-coef·x - const - 1 >= 0]: no
   integer point of [rest] then violates [c], so the integer set — and
   every count derived from it — is unchanged.  On rationally nonempty
   systems the recession cone is preserved as well (a recession direction
   escaping a dropped constraint would eventually violate it by >= 1), so
   scanning raises [Unbounded] exactly as before; rationally empty systems
   are returned untouched. *)
let remove_redundant t =
  if definitely_false t then t
  else if not (rational_feasible t) then t
  else begin
    let t = merge_parallel t in
    let negate c =
      {
        coef = Array.map (fun a -> Ints.sub 0 a) c.coef;
        const = Ints.sub (-1) c.const;
        eq = false;
      }
    in
    let rec drop kept = function
      | [] -> List.rev kept
      | c :: rest ->
        if c.eq then drop (c :: kept) rest
        else begin
          let others = List.rev_append kept rest in
          if rational_feasible { nvar = t.nvar; cstrs = negate c :: others } then
            drop (c :: kept) rest
          else begin
            Telemetry.tick c_redundant;
            drop kept rest
          end
        end
    in
    { t with cstrs = drop [] t.cstrs }
  end

(* --- Lexicographic scanning --- *)

(* elim.(k): system with variables [k .. nvar-1] eliminated, so that the
   constraints mentioning variable [k] in elim.(k+1) give its bounds as a
   function of variables [< k]. *)
let elimination_tower t =
  let n = t.nvar in
  let tower = Array.make (n + 1) t in
  for k = n - 1 downto 0 do
    tower.(k) <- eliminate_var tower.(k + 1) k
  done;
  tower

(* bounds on variable [k] given the partial assignment [x] of vars [< k] *)
let level_bounds tower k x =
  let lo = ref None and hi = ref None in
  let tighten_lo v = match !lo with None -> lo := Some v | Some w -> if v > w then lo := Some v in
  let tighten_hi v = match !hi with None -> hi := Some v | Some w -> if v < w then hi := Some v in
  let feasible = ref true in
  List.iter
    (fun c ->
      let a = c.coef.(k) in
      if a <> 0 then begin
        (* value of the constraint restricted to assigned variables *)
        let v = ref c.const in
        for j = 0 to k - 1 do
          if c.coef.(j) <> 0 then v := Ints.add !v (Ints.mul c.coef.(j) x.(j))
        done;
        (* a·x_k + v {>=,=} 0 *)
        if c.eq then
          if !v mod a <> 0 then feasible := false
          else begin
            let e = - !v / a in
            tighten_lo e;
            tighten_hi e
          end
        else if a > 0 then tighten_lo (Ints.cdiv (- !v) a)
        else tighten_hi (Ints.fdiv !v (-a))
      end
      else if c.eq || k = 0 then begin
        (* ground-level constraints with no scanned variable must hold *)
        let relevant = ref true in
        for j = k to Array.length c.coef - 1 do
          if c.coef.(j) <> 0 then relevant := false
        done;
        if !relevant then begin
          let v = ref c.const in
          for j = 0 to k - 1 do
            if c.coef.(j) <> 0 then v := Ints.add !v (Ints.mul c.coef.(j) x.(j))
          done;
          if (c.eq && !v <> 0) || ((not c.eq) && !v < 0) then feasible := false
        end
      end)
    tower.(k + 1).cstrs;
  if !feasible then Some (!lo, !hi) else None

(* Bounds on variable [j] from its bounding constraints only — the
   ground-constraint checks of [level_bounds] are skipped.  Used by the
   closed-form counting path, where those checks are provably redundant:
   every surviving ground equality of a deeper tower level reappears as a
   bound constraint at the level of its own deepest variable, where it is
   enforced (see the decoupling argument at [count_points]). *)
let bound_only tower j x =
  let lo = ref None and hi = ref None in
  let tighten_lo v = match !lo with None -> lo := Some v | Some w -> if v > w then lo := Some v in
  let tighten_hi v = match !hi with None -> hi := Some v | Some w -> if v < w then hi := Some v in
  let feasible = ref true in
  List.iter
    (fun c ->
      let a = c.coef.(j) in
      if a <> 0 then begin
        let v = ref c.const in
        for i = 0 to j - 1 do
          if c.coef.(i) <> 0 then v := Ints.add !v (Ints.mul c.coef.(i) x.(i))
        done;
        if c.eq then
          if !v mod a <> 0 then feasible := false
          else begin
            let e = - !v / a in
            tighten_lo e;
            tighten_hi e
          end
        else if a > 0 then tighten_lo (Ints.cdiv (- !v) a)
        else tighten_hi (Ints.fdiv !v (-a))
      end)
    tower.(j + 1).cstrs;
  if !feasible then Some (!lo, !hi) else None

(* Resource governance for the scans below: [tick] is one work unit,
   polled against [budget]/[cancel] in batches of [meter_batch] so the hot
   path pays an increment per unit; [flush] settles the remainder.  Both
   are no-ops when the scan is ungoverned. *)
let meter_batch = 1024

let meter ?budget ?cancel () =
  match (budget, cancel) with
  | None, None -> ((fun () -> ()), fun () -> ())
  | _ ->
    let pending = ref 0 in
    let flush () =
      if !pending > 0 then begin
        Option.iter Engine.Cancel.check cancel;
        Option.iter (fun b -> Engine.Budget.spend b !pending) budget;
        pending := 0
      end
    in
    let tick () =
      incr pending;
      if !pending >= meter_batch then flush ()
    in
    (tick, flush)

(* existence of a completion of [x] over variables [k .. nvar-1]: a
   backtracking search (exponential in the existential columns at worst),
   so every candidate value is one [tick] *)
let rec exists_from ~tick tower x nvar k =
  if k = nvar then true
  else
    match level_bounds tower k x with
    | None -> false
    | Some (Some lo, Some hi) ->
      let rec try_val v =
        if v > hi then false
        else begin
          tick ();
          x.(k) <- v;
          exists_from ~tick tower x nvar (k + 1) || try_val (v + 1)
        end
      in
      try_val lo
    | Some _ -> raise Unbounded

let fold_points ?budget ?cancel ?n_scan t ~init ~f =
  let s = match n_scan with None -> t.nvar | Some s -> s in
  assert (s >= 0 && s <= t.nvar);
  if definitely_false t then init
  else begin
    let tick, flush = meter ?budget ?cancel () in
    (* count enumerated points locally, bulk-report on exit: the scan is a
       hot path and must pay neither a registry lookup per point nor, when
       telemetry is off, the wrapper closure and [visited] allocations *)
    let visited = if Telemetry.is_enabled () then Some (ref 0) else None in
    let f =
      match visited with
      | None -> f
      | Some v ->
        fun acc p ->
          incr v;
          f acc p
    in
    let tower = elimination_tower t in
    let x = Array.make t.nvar 0 in
    let prefix = Array.sub x 0 s in
    let rec scan k acc =
      if k = s then
        if s = t.nvar || exists_from ~tick tower x t.nvar s then begin
          Array.blit x 0 prefix 0 s;
          f acc prefix
        end
        else acc
      else
        match level_bounds tower k x with
        | None -> acc
        | Some (lo, hi) ->
          (match (lo, hi) with
          | Some lo, Some hi ->
            let acc = ref acc in
            for v = lo to hi do
              x.(k) <- v;
              acc := scan (k + 1) !acc
            done;
            !acc
          | _ -> raise Unbounded)
    in
    (* an empty scan prefix degenerates to a single existence test *)
    let result =
      if s = 0 then
        if exists_from ~tick tower x t.nvar 0 then f init prefix else init
      else scan 0 init
    in
    flush ();
    (match visited with None -> () | Some v -> Telemetry.add c_points !v);
    result
  end

let iter_points ?n_scan t ~f = fold_points ?n_scan t ~init:() ~f:(fun () p -> f p)

let count_points_naive ?n_scan t =
  fold_points ?n_scan t ~init:0 ~f:(fun n _ -> n + 1)

(* --- Closed-form slice counting ---

   Counting should cost polynomially in the description, not the volume
   (the reason barvinok exists).  We stay within the elimination-tower
   machinery but detect, statically, the deepest scan level [k] from which
   the rest of the nest is *decoupled*: every bound of every deeper level
   only mentions variables [< k].  Below such a level the slice lengths
   are independent of each other's values, so the subtree count is the
   product of closed-form interval lengths [hi - lo + 1] — no iteration.

   [collapse.(k)] is true when, for every level j in (k, s) — and for the
   existential suffix when s < nvar — the constraints of [tower.(j + 1)]
   that bound variable j (and, for the suffix, all its constraints) only
   mention variables < k.  The property is monotone in [k]: once true it
   stays true deeper, so a box collapses at level 0 and a triangular
   domain at level 1 — exactly the kernel classes the paper evaluates. *)
let collapse_levels tower s nvar =
  let max_dep = Array.make (s + 1) (-1) in
  for j = 0 to s - 1 do
    List.iter
      (fun c ->
        if c.coef.(j) <> 0 then
          for i = 0 to j - 1 do
            if c.coef.(i) <> 0 && i > max_dep.(j) then max_dep.(j) <- i
          done)
      tower.(j + 1).cstrs
  done;
  let suffix_dep = ref (-1) in
  for k = s to nvar - 1 do
    List.iter
      (fun c ->
        for i = 0 to s - 1 do
          if c.coef.(i) <> 0 && i > !suffix_dep then suffix_dep := i
        done)
      tower.(k + 1).cstrs
  done;
  let collapse = Array.make (s + 1) true in
  (* deepest-first sweep: [m] is the max dependency of all levels > k *)
  let m = ref (if s < nvar then !suffix_dep else -1) in
  for k = s - 1 downto 0 do
    collapse.(k) <- !m < k;
    if max_dep.(k) > !m then m := max_dep.(k)
  done;
  collapse

let count_points ?pool ?budget ?cancel ?n_scan t =
  let s = match n_scan with None -> t.nvar | Some s -> s in
  assert (s >= 0 && s <= t.nvar);
  (* resource governance: the enumeration below is the pipeline's one
     potentially-unbounded loop, so this is where deadlines, fuel and
     cancellation are polled — one work unit per scanned point, counted
     slice and existential candidate, see [meter] *)
  let governed = budget <> None || cancel <> None in
  let guard () =
    Option.iter Engine.Cancel.check cancel;
    Option.iter Engine.Budget.check budget
  in
  if definitely_false t then 0
  else begin
    if governed then guard ();
    (* minimize first: smaller towers, tighter bounds, same integer set *)
    let t = remove_redundant t in
    let tower = elimination_tower t in
    if governed then guard ();
    let collapse = collapse_levels tower s t.nvar in
    (* one counting job over levels [k0 .. s), with x.(0 .. k0-1) assigned;
       telemetry is accumulated locally and bulk-reported on exit *)
    let count_from x k0 =
      let scanned = ref 0 and slices = ref 0 in
      let tick, flush = meter ?budget ?cancel () in
      let rec count k =
        if k = s then begin
          incr scanned;
          tick ();
          if s = t.nvar || exists_from ~tick tower x t.nvar s then 1 else 0
        end
        else if collapse.(k) then begin
          incr slices;
          tick ();
          (* product of decoupled slice lengths, shallowest first, stopping
             at the first empty level — exactly the set of levels the naive
             scan would have reached, so [Unbounded] behavior matches.
             Level [k] keeps the full [level_bounds] (its ground checks may
             genuinely cut); deeper levels use bound constraints only. *)
          let rec product j acc =
            if j = s then
              if s = t.nvar || exists_from ~tick tower x t.nvar s then acc
              else 0
            else begin
              match
                if j = k then level_bounds tower j x else bound_only tower j x
              with
              | None -> 0
              | Some (Some lo, Some hi) ->
                if hi < lo then 0
                else product (j + 1) (Ints.mul acc (Ints.range_count lo hi))
              | Some _ -> raise Unbounded
            end
          in
          product k 1
        end
        else
          match level_bounds tower k x with
          | None -> 0
          | Some (Some lo, Some hi) ->
            let acc = ref 0 in
            for v = lo to hi do
              x.(k) <- v;
              acc := Ints.add !acc (count (k + 1))
            done;
            !acc
          | Some _ -> raise Unbounded
      in
      let r =
        Fun.protect
          ~finally:(fun () ->
            Telemetry.add c_points !scanned;
            Telemetry.add c_slices !slices)
          (fun () -> count k0)
      in
      flush ();
      r
    in
    let seq () = count_from (Array.make (max t.nvar 1) 0) 0 in
    (* parallel path: chunk the outermost scanned dimension over the pool.
       Workers share the (immutable) tower and sum independent subtree
       counts, so the total is identical to the sequential result. *)
    match pool with
    | Some pool when Engine.Pool.jobs pool > 1 && s > 0 && not collapse.(0) -> begin
      match level_bounds tower 0 (Array.make (max t.nvar 1) 0) with
      | None -> 0
      | Some (Some lo, Some hi) ->
        if hi < lo then 0
        else begin
          let n = Ints.range_count lo hi in
          let nchunks = min n (Engine.Pool.jobs pool * 4) in
          if nchunks < 2 then seq ()
          else begin
            let base = n / nchunks and extra = n mod nchunks in
            let ranges =
              List.init nchunks (fun i ->
                  let a = lo + (base * i) + min i extra in
                  let b = a + base - 1 + (if i < extra then 1 else 0) in
                  (a, b))
            in
            Engine.Pool.map ?cancel pool
              (fun (a, b) ->
                let x = Array.make (max t.nvar 1) 0 in
                let acc = ref 0 in
                for v = a to b do
                  x.(0) <- v;
                  acc := Ints.add !acc (count_from x 1)
                done;
                !acc)
              ranges
            |> List.fold_left Ints.add 0
          end
        end
      | Some _ -> raise Unbounded
    end
    | _ -> seq ()
  end

exception Found of int array

let first_point ?n_scan t =
  match
    fold_points ?n_scan t ~init:() ~f:(fun () p -> raise (Found (Array.copy p)))
  with
  | () -> None
  | exception Found p -> Some p

let sample t = first_point t

let is_empty t =
  Telemetry.tick c_is_empty;
  if definitely_false t then true
  else if not (rational_feasible t) then true
  else sample t = None

let lexmin ?n_scan t =
  Telemetry.tick c_lexmin;
  first_point ?n_scan t

(* lexmax: scan with all variables negated *)
let negate_vars t =
  { nvar = t.nvar; cstrs = List.map (fun c -> { c with coef = Array.map (fun a -> -a) c.coef }) t.cstrs }

let lexmax ?n_scan t =
  Telemetry.tick c_lexmin;
  match first_point ?n_scan (negate_vars t) with
  | None -> None
  | Some p -> Some (Array.map (fun v -> -v) p)

let var_bounds t v =
  (* eliminate every variable except [v], then read the bounds *)
  let r = ref t in
  for j = t.nvar - 1 downto 0 do
    if j <> v then r := eliminate_var !r j
  done;
  let lo = ref None and hi = ref None in
  List.iter
    (fun c ->
      let a = c.coef.(v) in
      if a <> 0 then begin
        if c.eq || a > 0 then begin
          let b = Ints.cdiv (-c.const) a in
          match !lo with None -> lo := Some b | Some w -> if b > w then lo := Some b
        end;
        if c.eq || a < 0 then begin
          let b = if c.eq then Ints.fdiv (-c.const) a else Ints.fdiv c.const (-a) in
          match !hi with None -> hi := Some b | Some w -> if b < w then hi := Some b
        end
      end)
    !r.cstrs;
  (!lo, !hi)

let pp_cstr ppf c =
  let first = ref true in
  Array.iteri
    (fun i a ->
      if a <> 0 then begin
        if !first then begin
          if a = 1 then Format.fprintf ppf "x%d" i
          else if a = -1 then Format.fprintf ppf "-x%d" i
          else Format.fprintf ppf "%dx%d" a i;
          first := false
        end
        else if a > 0 then
          if a = 1 then Format.fprintf ppf " + x%d" i
          else Format.fprintf ppf " + %dx%d" a i
        else if a = -1 then Format.fprintf ppf " - x%d" i
        else Format.fprintf ppf " - %dx%d" (-a) i
      end)
    c.coef;
  if !first then Format.fprintf ppf "%d" c.const
  else if c.const > 0 then Format.fprintf ppf " + %d" c.const
  else if c.const < 0 then Format.fprintf ppf " - %d" (-c.const);
  Format.fprintf ppf (if c.eq then " = 0" else " >= 0")

let pp ppf t =
  Format.fprintf ppf "@[<v>{nvar=%d;@ %a}@]" t.nvar
    (Format.pp_print_list ~pp_sep:(fun f () -> Format.fprintf f " and@ ") pp_cstr)
    t.cstrs

(* Convex hull of two systems over the same variables, via the lifted
   system of Benoy-King ("Computing Convex Hulls with a Linear Solver"):
   x lies in the hull iff x = y + z with y in s.A, z in (1-s).B for some
   s in [0,1], where s.A is A's homogenization {y : a.y + c.s >= 0}.
   Eliminating the y and s columns with Fourier-Motzkin leaves exactly
   the (closed, rational) hull constraints over x - a sound superset of
   the integer union, used by the footprint estimator and the chamber
   engine.  Exact over the rationals; gcd tightening by [make] keeps
   every integer point of either argument. *)
let convex_hull a b =
  if a.nvar <> b.nvar then invalid_arg "Poly.convex_hull: arity mismatch";
  if definitely_false a || not (rational_feasible a) then remove_redundant b
  else if definitely_false b || not (rational_feasible b) then
    remove_redundant a
  else if
    (* identical descriptions: the hull is the set itself.  This also
       makes [convex_hull h h] return [h] exactly instead of a
       re-projected (possibly boxed) superset. *)
    let canon p =
      List.sort compare
        (List.map (fun c -> (c.eq, Array.to_list c.coef, c.const)) p.cstrs)
    in
    canon a = canon b
  then remove_redundant a
  else begin
    let n = a.nvar in
    let total = (2 * n) + 1 in
    (* columns: x (0..n-1) | y (n..2n-1) | s (2n) *)
    let scol = 2 * n in
    let lift_a (c : cstr) =
      let co = Array.make total 0 in
      Array.iteri (fun i v -> co.(n + i) <- v) c.coef;
      co.(scol) <- c.const;
      { coef = co; const = 0; eq = c.eq }
    in
    let lift_b (c : cstr) =
      let co = Array.make total 0 in
      Array.iteri
        (fun i v ->
          co.(i) <- v;
          co.(n + i) <- -v)
        c.coef;
      co.(scol) <- -c.const;
      { coef = co; const = c.const; eq = c.eq }
    in
    let s_lo = Array.make total 0 and s_hi = Array.make total 0 in
    s_lo.(scol) <- 1;
    s_hi.(scol) <- -1;
    let lifted =
      make total
        ({ coef = s_lo; const = 0; eq = false }
        :: { coef = s_hi; const = 1; eq = false }
        :: (List.map lift_a a.cstrs @ List.map lift_b b.cstrs))
    in
    (* sound fallback: the bounding box of the union, a (looser) convex
       superset — used when the lifted projection explodes (each FM step
       can square the constraint count) or its arithmetic overflows *)
    let box_hull () =
      let cs = ref [] in
      for v = 0 to n - 1 do
        let lo_a, hi_a = var_bounds a v and lo_b, hi_b = var_bounds b v in
        (match (lo_a, lo_b) with
        | Some x, Some y ->
          let co = Array.make n 0 in
          co.(v) <- 1;
          cs := { coef = co; const = -min x y; eq = false } :: !cs
        | _ -> ());
        match (hi_a, hi_b) with
        | Some x, Some y ->
          let co = Array.make n 0 in
          co.(v) <- -1;
          cs := { coef = co; const = max x y; eq = false } :: !cs
        | _ -> ()
      done;
      remove_redundant (make n !cs)
    in
    (* growth caps: FM can square the constraint count per eliminated
       column, and the LP-based [remove_redundant] is itself built on an
       unbounded elimination tower — so between steps we only apply the
       cheap syntactic [merge_parallel] prune and give up (soundly, to
       the box) past the cap *)
    let step_cap = 192 and final_cap = (2 * n) + 12 in
    match
      let r = ref lifted in
      let ok = ref true in
      for v = total - 1 downto n do
        if !ok then begin
          r := merge_parallel (eliminate_var !r v);
          if List.length (!r).cstrs > step_cap then ok := false
        end
      done;
      if not !ok then None
      else begin
        let hull = fix_vars !r (fun i -> if i >= n then Some 0 else None) in
        if List.length hull.cstrs > final_cap then None
        else Some (remove_redundant hull)
      end
    with
    | Some hull -> hull
    | None -> box_hull ()
    | exception Ints.Overflow -> box_hull ()
  end
