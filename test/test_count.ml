(* Differential tests for the closed-form counting engine: every count the
   fast path produces must be bit-identical to the naive enumeration —
   including [Unbounded] behavior and under a worker pool — on random
   polytopes mixing equalities, inequalities, empty systems, open sides,
   and modular/div constraints. *)

open Presburger
module Ints = Linalg.Ints
module Q = Linalg.Q

let parse1 = Syntax.bset_of_string
let parse = Syntax.pset_of_string

(* ---------- random polytope generator ---------- *)

type case = { poly : Poly.t; n_scan : int; label : string }

let gen_case : case QCheck.Gen.t =
  QCheck.Gen.(
    let* nvar = int_range 1 4 in
    let* n_cstr = int_range 0 5 in
    let gen_cstr =
      let* coef = array_size (return nvar) (int_range (-3) 3) in
      let* const = int_range (-9) 9 in
      let* is_eq = frequency [ (4, return false); (1, return true) ] in
      return (if is_eq then Poly.eq coef const else Poly.ge coef const)
    in
    let* random = list_size (return n_cstr) gen_cstr in
    (* window each variable so scans stay finite, occasionally leaving one
       side open to exercise Unbounded parity *)
    let gen_window i =
      let* mode = frequency [ (12, return `Both); (1, return `Lo); (1, return `Hi) ] in
      let* lo = int_range (-6) 0 in
      let* hi = int_range 0 6 in
      let lo_c =
        let coef = Array.make nvar 0 in
        coef.(i) <- 1;
        Poly.ge coef (-lo)
      in
      let hi_c =
        let coef = Array.make nvar 0 in
        coef.(i) <- -1;
        Poly.ge coef hi
      in
      return (match mode with `Both -> [ lo_c; hi_c ] | `Lo -> [ lo_c ] | `Hi -> [ hi_c ])
    in
    let* windows = flatten_l (List.init nvar gen_window) in
    let* scan_all = frequency [ (2, return true); (1, return false) ] in
    let n_scan = if scan_all then nvar else nvar - 1 in
    let poly = Poly.make nvar (List.concat windows @ random) in
    return { poly; n_scan; label = "" })

let arb_case =
  QCheck.make
    ~print:(fun c ->
      Format.asprintf "n_scan=%d %a" c.n_scan Poly.pp c.poly)
    gen_case

type outcome = Count of int | Unbounded_scan

let outcome f =
  match f () with n -> Count n | exception Poly.Unbounded -> Unbounded_scan

let pp_outcome = function
  | Count n -> Printf.sprintf "Count %d" n
  | Unbounded_scan -> "Unbounded"

let check_case ?pool c =
  let naive = outcome (fun () -> Poly.count_points_naive ~n_scan:c.n_scan c.poly) in
  let fast = outcome (fun () -> Poly.count_points ?pool ~n_scan:c.n_scan c.poly) in
  if naive <> fast then
    QCheck.Test.fail_reportf "fast %s <> naive %s on %s" (pp_outcome fast)
      (pp_outcome naive)
      (Format.asprintf "n_scan=%d %a" c.n_scan Poly.pp c.poly);
  true

let qcheck_diff =
  [
    QCheck.Test.make ~name:"count_points == naive fold count (300 random polytopes)"
      ~count:300 arb_case (fun c -> check_case c);
    QCheck.Test.make ~name:"remove_redundant preserves the integer set" ~count:150
      arb_case
      (fun c ->
        let r = Poly.remove_redundant c.poly in
        let o = outcome (fun () -> Poly.count_points_naive ~n_scan:c.n_scan c.poly) in
        let o' = outcome (fun () -> Poly.count_points_naive ~n_scan:c.n_scan r) in
        o = o');
  ]

(* pool parity gets its own sequential loop so one pool serves all cases *)
let test_pool_parity () =
  Engine.Pool.with_pool ~jobs:3 (fun pool ->
      let rand = Random.State.make [| 0xC0FFEE |] in
      let cases = QCheck.Gen.generate ~n:80 ~rand gen_case in
      List.iter (fun c -> ignore (check_case ~pool c)) cases;
      (* a scan big enough to actually chunk across workers: a triangular
         domain (collapses at level 1, iterates level 0) *)
      let tri = parse1 "{ [i, j] : 0 <= i < 200 and 0 <= j <= i }" in
      Bset.clear_count_memo ();
      Alcotest.(check int) "triangle 200 via pool" (200 * 201 / 2)
        (Bset.cardinality ~ctx:(Engine.Ctx.create ~pool ()) tri))

(* ---------- modular / div and union cases through the syntax layer ---------- *)

let bset_naive_count b = Bset.fold_points b ~init:0 ~f:(fun n _ -> n + 1)

let test_div_cases () =
  let cases =
    [
      "{ [i] : 0 <= i < 30 and i mod 2 = 0 }";
      "{ [i] : 0 <= i < 30 and i mod 7 = 3 }";
      "{ [i, j] : 0 <= i < 12 and 0 <= j < 12 and (i + j) mod 2 = 0 }";
      "{ [i, j] : 0 <= i < 12 and 0 <= j <= i and (2*i + j) mod 3 = 1 }";
      "{ [i] : 0 <= i < 40 and floor(i / 4) = 3 }";
      "{ [i, j] : 0 <= i < 9 and floor(i / 3) <= j and j < 5 }";
      "{ [i] : 0 <= i < 10 and i != 4 }";
      "{ [i] : i = 5 }";
      "{ [i] : 0 <= i and i < 0 }";
    ]
  in
  List.iter
    (fun s ->
      let p = parse s in
      List.iter
        (fun b ->
          Bset.clear_count_memo ();
          Alcotest.(check int) ("diff " ^ s) (bset_naive_count b) (Bset.cardinality b))
        (Pset.disjuncts p))
    cases

let test_pset_union_counts () =
  (* the disjointified union path must agree with dedup enumeration *)
  let pset_naive_count p = Pset.fold_points p ~init:0 ~f:(fun n _ -> n + 1) in
  let cases =
    [
      "{ [i] : 0 <= i < 6 ; [i] : 4 <= i < 8 }";
      "{ [i, j] : 0 <= i < 5 and 0 <= j < 5 ; [i, j] : 3 <= i < 9 and 2 <= j < 4 }";
      "{ [i] : (0 <= i < 3) or (10 <= i < 13) }";
      "{ [i] : 0 <= i < 10 and i != 4 }";
      "{ [i, j] : 0 <= i < 4 and 0 <= j < 4 ; [i, j] : 0 <= i < 4 and 0 <= j < 4 }";
    ]
  in
  List.iter
    (fun s ->
      let p = parse s in
      Alcotest.(check int) ("union " ^ s) (pset_naive_count p) (Pset.cardinality p))
    cases;
  (* random overlapping box pairs *)
  let rand = Random.State.make [| 0xBEEF |] in
  for _ = 1 to 40 do
    let r lo hi = lo + Random.State.int rand (hi - lo + 1) in
    let box () =
      let a = r (-6) 4 in
      let b = r a 6 in
      let c = r (-6) 4 in
      let d = r c 6 in
      Printf.sprintf "[i, j] : %d <= i <= %d and %d <= j <= %d" a b c d
    in
    let s = Printf.sprintf "{ %s ; %s ; %s }" (box ()) (box ()) (box ()) in
    let p = parse s in
    Alcotest.(check int) ("union " ^ s) (pset_naive_count p) (Pset.cardinality p)
  done

(* ---------- acceptance: the box scan is no longer O(N^3) ---------- *)

let test_box_points_scanned () =
  let n = 20 in
  let b =
    parse1
      (Printf.sprintf "{ [i, j, k] : 0 <= i < %d and 0 <= j < %d and 0 <= k < %d }" n n n)
  in
  Bset.clear_count_memo ();
  Telemetry.reset ();
  Telemetry.enable ();
  let scanned0 = Telemetry.counter_value "presburger.points_scanned" in
  let card = Bset.cardinality b in
  let scanned = Telemetry.counter_value "presburger.points_scanned" - scanned0 in
  let slices = Telemetry.counter_value "presburger.slices_closed_form" in
  Telemetry.disable ();
  Telemetry.reset ();
  Alcotest.(check int) "card N^3" (n * n * n) card;
  if scanned > n * n then
    Alcotest.failf "box N=%d scanned %d points, want <= N^2 = %d" n scanned (n * n);
  Alcotest.(check bool) "closed-form slices used" true (slices > 0)

let test_triangle_collapses () =
  (* the innermost dimension of a triangular nest must not be enumerated *)
  let n = 50 in
  let b = parse1 (Printf.sprintf "{ [i, j] : 0 <= i < %d and 0 <= j <= i }" n) in
  Bset.clear_count_memo ();
  Telemetry.reset ();
  Telemetry.enable ();
  let card = Bset.cardinality b in
  let scanned = Telemetry.counter_value "presburger.points_scanned" in
  Telemetry.disable ();
  Telemetry.reset ();
  Alcotest.(check int) "card n(n+1)/2" (n * (n + 1) / 2) card;
  if scanned > n then
    Alcotest.failf "triangle N=%d scanned %d points, want <= N" n scanned

(* ---------- constraint minimization ---------- *)

let test_remove_redundant_drops () =
  (* i <= 100 is implied by i <= 19 *)
  let p =
    Poly.make 1
      [ Poly.ge [| 1 |] 0; Poly.ge [| -1 |] 19; Poly.ge [| -1 |] 100 ]
  in
  let r = Poly.remove_redundant p in
  Alcotest.(check int) "constraint dropped" 2 (List.length (Poly.constraints r));
  Alcotest.(check int) "same count" 20 (Poly.count_points_naive r);
  (* opposite parallel pair collapses to an equality *)
  let pinned = Poly.make 1 [ Poly.ge [| 1 |] (-7); Poly.ge [| -1 |] 7 ] in
  let r = Poly.remove_redundant pinned in
  (match Poly.constraints r with
  | [ c ] -> Alcotest.(check bool) "merged to equality" true c.Poly.eq
  | cs -> Alcotest.failf "expected 1 merged constraint, got %d" (List.length cs));
  Alcotest.(check int) "pinned count" 1 (Poly.count_points_naive r)

(* ---------- count memo ---------- *)

let test_count_memo () =
  let b = parse1 "{ [i, j] : 0 <= i < 7 and 0 <= j < 11 }" in
  Bset.clear_count_memo ();
  Telemetry.reset ();
  Telemetry.enable ();
  let a = Bset.cardinality b in
  let hits0 = Telemetry.counter_value "presburger.count_memo_hits" in
  let b' = Bset.cardinality b in
  let hits1 = Telemetry.counter_value "presburger.count_memo_hits" in
  Telemetry.disable ();
  Telemetry.reset ();
  Alcotest.(check int) "same count" a b';
  Alcotest.(check int) "77" 77 a;
  Alcotest.(check int) "second count was a memo hit" (hits0 + 1) hits1

(* ---------- overflow detection (satellite) ---------- *)

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_q_to_int_exn_message () =
  (match Q.to_int_exn (Q.make 7 2) with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument m ->
    Alcotest.(check bool) ("message names the value: " ^ m) true (contains m "7/2"));
  (* min_int negation must not wrap silently *)
  (match Q.neg (Q.of_int min_int) with
  | _ -> Alcotest.fail "expected Overflow"
  | exception Ints.Overflow -> ());
  match Q.abs (Q.of_int min_int) with
  | _ -> Alcotest.fail "expected Overflow"
  | exception Ints.Overflow -> ()

let test_count_eval_overflow () =
  (* fit n^3 exactly, then evaluate far outside the int range *)
  match Count.interpolate ~count:(fun n -> n * n * n) () with
  | None -> Alcotest.fail "cubic fit failed"
  | Some qp ->
    Alcotest.(check int) "sane eval" 1_000_000 (Count.eval qp 100);
    (match Count.eval qp 3_000_000 with
    | v -> Alcotest.failf "expected overflow, got %d" v
    | exception Count.Overflow m ->
      Alcotest.(check bool)
        ("overflow message carries n: " ^ m)
        true
        (contains m "n=3000000"))

(* ---------- chamber-decomposed parametric counting ---------- *)

(* Random parametric domain: [np] parameter columns followed by [m]
   counting columns.  Every counting variable gets [0 <= x] and an upper
   bound coupling it to a parameter (so instances are finite at every
   sampled parameter point), plus random extra cuts — including
   equalities and inter-variable coupling — that only shrink the set. *)
type pcase = { np : int; bset : Bset.t; label : string }

let param_space np m =
  let params = List.init np (Printf.sprintf "p%d") in
  let vars = List.init m (Printf.sprintf "x%d") in
  Space.set_space ~params ~name:"S" vars

let gen_pcase : pcase QCheck.Gen.t =
  QCheck.Gen.(
    let* np = int_range 1 2 in
    let* m = int_range 1 3 in
    let nvar = np + m in
    let bound_var j =
      (* 0 <= x_j, and x_j <= a·p + c with a >= 1 on one parameter *)
      let lo = Array.make nvar 0 in
      lo.(np + j) <- 1;
      let* p = int_range 0 (np - 1) in
      let* a = int_range 1 2 in
      let* c = int_range (-2) 4 in
      let hi = Array.make nvar 0 in
      hi.(np + j) <- -1;
      hi.(p) <- a;
      return [ Poly.ge lo 0; Poly.ge hi c ]
    in
    let gen_cut =
      let* coef = array_size (return nvar) (int_range (-2) 2) in
      let* const = int_range (-4) 8 in
      let* is_eq = frequency [ (6, return false); (1, return true) ] in
      return (if is_eq then Poly.eq coef const else Poly.ge coef const)
    in
    let* bounds = flatten_l (List.init m bound_var) in
    let* n_cut = int_range 0 3 in
    let* cuts = list_size (return n_cut) gen_cut in
    let poly = Poly.make nvar (List.concat bounds @ cuts) in
    let bset = Bset.of_poly (param_space np m) ~n_div:0 poly in
    return
      { np; bset; label = Format.asprintf "np=%d %a" np Poly.pp poly })

let arb_pcase = QCheck.make ~print:(fun c -> c.label) gen_pcase

let param_samples np =
  if np = 1 then List.map (fun n -> [| n |]) [ 0; 1; 2; 3; 5; 8; 13 ]
  else
    List.concat_map
      (fun n -> List.map (fun m -> [| n; m |]) [ 0; 1; 3; 7 ])
      [ 0; 2; 5; 9 ]

let check_pcase c =
  let exact v = Bset.cardinality (Bset.fix_params c.bset v) in
  (match Count.card_param c.bset with
  | None -> ()
  | Some ch ->
    List.iter
      (fun v ->
        let e = exact v and got = Chamber.eval ch v in
        if e <> got then
          QCheck.Test.fail_reportf
            "chamber eval %d <> exact %d at %s on %s" got e
            (String.concat "," (List.map string_of_int (Array.to_list v)))
            c.label)
      (param_samples c.np));
  (* the public fallback entry point must agree whether or not the
     decomposition succeeded *)
  List.iter
    (fun v ->
      let e = exact v and got = Count.card_at c.bset v in
      if e <> got then
        QCheck.Test.fail_reportf "card_at %d <> exact %d at %s on %s" got e
          (String.concat "," (List.map string_of_int (Array.to_list v)))
          c.label)
    (param_samples c.np);
  true

(* ---------- convex hull properties ---------- *)

(* bounded random polytope: both windows on every variable plus cuts *)
let gen_bounded : Poly.t QCheck.Gen.t =
  QCheck.Gen.(
    let* nvar = int_range 1 3 in
    let window i =
      let* lo = int_range (-5) 0 in
      let* hi = int_range 0 5 in
      let lo_c = Array.make nvar 0 and hi_c = Array.make nvar 0 in
      lo_c.(i) <- 1;
      hi_c.(i) <- -1;
      return [ Poly.ge lo_c (-lo); Poly.ge hi_c hi ]
    in
    let gen_cut =
      let* coef = array_size (return nvar) (int_range (-2) 2) in
      let* const = int_range (-4) 6 in
      return (Poly.ge coef const)
    in
    let* windows = flatten_l (List.init nvar window) in
    let* n_cut = int_range 0 2 in
    let* cuts = list_size (return n_cut) gen_cut in
    return (Poly.make nvar (List.concat windows @ cuts)))

let gen_poly_pair =
  QCheck.Gen.(
    let* a = gen_bounded in
    (* second polytope in the same dimension *)
    let rec same_dim () =
      let* b = gen_bounded in
      if Poly.nvar b = Poly.nvar a then return (a, b) else same_dim ()
    in
    same_dim ())

let arb_poly_pair =
  QCheck.make
    ~print:(fun (a, b) -> Format.asprintf "A=%a@ B=%a" Poly.pp a Poly.pp b)
    gen_poly_pair

let hull_props =
  [
    QCheck.Test.make ~name:"convex_hull contains both generators" ~count:150
      arb_poly_pair
      (fun (a, b) ->
        let h = Poly.convex_hull a b in
        let sub p =
          Poly.fold_points p ~init:true ~f:(fun ok pt ->
              ok && Poly.mem h pt)
        in
        sub a && sub b);
    QCheck.Test.make ~name:"convex_hull idempotent (hull h h == h)" ~count:100
      arb_poly_pair
      (fun (a, b) ->
        let h = Poly.convex_hull a b in
        let h2 = Poly.convex_hull h h in
        Poly.count_points_naive h = Poly.count_points_naive h2
        && Poly.fold_points h ~init:true ~f:(fun ok pt -> ok && Poly.mem h2 pt)
        && Poly.fold_points h2 ~init:true ~f:(fun ok pt -> ok && Poly.mem h pt));
    QCheck.Test.make ~name:"convex_hull output is redundancy-free" ~count:100
      arb_poly_pair
      (fun (a, b) ->
        let h = Poly.convex_hull a b in
        List.length (Poly.constraints (Poly.remove_redundant h))
        = List.length (Poly.constraints h));
  ]

(* A constraint that stops binding once x0 + 2x1 >= 4 (the x's are
   non-negative) puts a wall through the chamber's corner that the wall
   heuristic misses; a fit from the interior box used to count 150 for
   147 at (0, 1).  The decomposition must now count the whole grid
   exactly, or be declined (the exact scan then counts). *)
let test_chamber_corner_wall () =
  let ge l c = Poly.ge (Array.of_list l) c in
  let poly =
    Poly.make 5
      [
        ge [ 2; 0; 0; 0; -1 ] 4; ge [ 2; 0; -1; 0; 0 ] 4; ge [ 0; 2; 0; -1; 0 ] 3;
        ge [ 1; 0; 1; 1; 1 ] 4; ge [ 0; 0; 0; 0; 1 ] 0; ge [ 0; 0; 0; 1; 0 ] 0;
        ge [ 0; 0; 1; 0; 0 ] 0; ge [ 1; 2; 2; 1; 1 ] (-4);
      ]
  in
  let b = Bset.of_poly (param_space 2 3) ~n_div:0 poly in
  Chamber.clear_memo ();
  let ch = Count.card_param b in
  for p0 = -2 to 7 do
    for p1 = -2 to 7 do
      let v = [| p0; p1 |] in
      let exact = Bset.cardinality (Bset.fix_params b v) in
      Option.iter
        (fun ch ->
          Alcotest.(check int) (Printf.sprintf "chamber eval at %d,%d" p0 p1) exact
            (Chamber.eval ch v))
        ch;
      Alcotest.(check int) (Printf.sprintf "card_at %d,%d" p0 p1) exact (Count.card_at b v)
    done
  done

let qcheck_param =
  [
    QCheck.Test.make
      ~name:"chamber counts == exact scan (200 random parametric domains)"
      ~count:200 arb_pcase check_pcase;
  ]
  @ hull_props

(* ---------- chamber memo ---------- *)

let tetra_b () =
  parse1
    "[n] -> { [i,j,k] : 0 <= i < n and 0 <= j < n - i and 0 <= k < n - i - \
     j }"

let test_degraded_never_memoized () =
  let budget = Engine.Budget.create ~fuel:1 ~degrade:Engine.Budget.Interp () in
  let ctx = Engine.Ctx.create ~budget () in
  let b = tetra_b () in
  Chamber.clear_memo ();
  (match Count.card_param ~ctx b with
  | exception Engine.Budget.Exhausted _ -> ()
  | Some _ -> Alcotest.fail "1 fuel unit cannot build a decomposition"
  | None -> Alcotest.fail "exhaustion must raise, not decline");
  (* the memo was not poisoned: a generous retry builds fresh *)
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
  @@ fun () ->
  let built0 = Telemetry.counter_value "presburger.chambers_built" in
  (match Count.card_param b with
  | Some _ -> ()
  | None -> Alcotest.fail "ungoverned retry should decompose");
  let built1 = Telemetry.counter_value "presburger.chambers_built" in
  Alcotest.(check bool) "retry built chambers fresh" true (built1 > built0)

(* ---------- governed existential search ---------- *)

(* [x = lo] (one tuple point) with four division columns that have no
   integer completion: [d1 + d2] must be both even ([2·d3]) and odd
   ([2·d4 - 1]) for [d1, d2] in [0, 199].  Only the backtracking search
   over the 200 × 200 [(d1, d2)] candidates finds that out *)
let no_completion lo =
  let c l = Array.of_list l in
  let poly =
    Poly.make 5
      [
        Poly.ge (c [ 1; 0; 0; 0; 0 ]) (-lo);
        Poly.ge (c [ -1; 0; 0; 0; 0 ]) lo;
        Poly.ge (c [ 0; 1; 0; 0; 0 ]) 0;
        Poly.ge (c [ 0; -1; 0; 0; 0 ]) 199;
        Poly.ge (c [ 0; 0; 1; 0; 0 ]) 0;
        Poly.ge (c [ 0; 0; -1; 0; 0 ]) 199;
        Poly.eq (c [ 0; 1; 1; -2; 0 ]) 0;
        Poly.eq (c [ 0; 1; 1; 0; -2 ]) 1;
      ]
  in
  Bset.of_poly (Space.set_space ~name:"S" [ "x" ]) ~n_div:4 poly

let test_existential_search_metered () =
  let small () =
    Engine.Ctx.create ~budget:(Engine.Budget.create ~fuel:1000 ()) ()
  in
  let a = no_completion 0 and b = no_completion 1 in
  (match Bset.cardinality ~ctx:(small ()) a with
  | exception Engine.Budget.Exhausted _ -> ()
  | n -> Alcotest.failf "Bset count of %d finished under 1000 fuel" n);
  (* two division disjuncts take the enumerating union fallback *)
  let u = Pset.of_bsets (Bset.space a) [ a; b ] in
  (match Pset.cardinality ~ctx:(small ()) u with
  | exception Engine.Budget.Exhausted _ -> ()
  | n -> Alcotest.failf "Pset count of %d finished under 1000 fuel" n);
  Alcotest.(check int) "ungoverned count" 0 (Bset.cardinality a);
  Alcotest.(check int) "ungoverned union count" 0 (Pset.cardinality u)

let test_chamber_counters () =
  Chamber.clear_memo ();
  let b = parse1 "[n] -> { [i,j] : 0 <= i < n and 0 <= j <= i }" in
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
  @@ fun () ->
  let built0 = Telemetry.counter_value "presburger.chambers_built" in
  let evals0 = Telemetry.counter_value "presburger.qpoly_evals" in
  let hits0 = Telemetry.counter_value "presburger.chamber_cache_hits" in
  let n17 = Count.card_at b [| 17 |] in
  Alcotest.(check int) "triangle count at 17" (17 * 18 / 2) n17;
  let built1 = Telemetry.counter_value "presburger.chambers_built" in
  Alcotest.(check bool) "chambers_built ticked" true (built1 > built0);
  ignore (Count.card_at b [| 23 |]);
  let evals1 = Telemetry.counter_value "presburger.qpoly_evals" in
  let hits1 = Telemetry.counter_value "presburger.chamber_cache_hits" in
  Alcotest.(check bool) "qpoly_evals ticked" true (evals1 > evals0);
  Alcotest.(check bool) "second query was a memo hit" true (hits1 > hits0)

(* The count over this domain is a period-5 quasi-polynomial in n for
   n >= 7 (x3's lower bound 5·x1 - 4n + 8 crosses 0 inside x1's range),
   and a period-1 cubic once fitted through n = 7..12 and passed its
   held-out probes while over-counting from n = 13 (324 vs 323). *)
let test_chamber_period_bound () =
  let ge l k = Poly.ge (Array.of_list l) k in
  let poly =
    Poly.make 4
      [
        Poly.eq [| 2; -2; -1; 0 |] (-5);
        ge [ 0; -1; 2; 1 ] 2;
        ge [ 2; 0; -1; 0 ] (-1);
        ge [ 0; 1; 0; 0 ] 0;
        ge [ 0; 0; 1; 0 ] 0;
        ge [ 0; 0; 0; 1 ] 0;
        ge [ 1; -1; 0; 0 ] 0;
        ge [ 2; 0; 0; -1 ] 3;
      ]
  in
  let b = Bset.of_poly (param_space 1 3) ~n_div:0 poly in
  Chamber.clear_memo ();
  let ch = Count.card_param b in
  for n = 0 to 40 do
    let exact = Bset.cardinality (Bset.fix_params b [| n |]) in
    (match ch with
    | Some ch ->
      Alcotest.(check int) (Printf.sprintf "chamber eval at n=%d" n) exact
        (Chamber.eval ch [| n |])
    | None -> ());
    Alcotest.(check int) (Printf.sprintf "card_at at n=%d" n) exact
      (Count.card_at b [| n |])
  done;
  Alcotest.(check int) "exact count at n=13" 323
    (Bset.cardinality (Bset.fix_params b [| 13 |]))

let tests =
  [
    Alcotest.test_case "pool parity (80 random + chunked scan)" `Slow test_pool_parity;
    Alcotest.test_case "div and modular cases match naive" `Quick test_div_cases;
    Alcotest.test_case "union counting matches dedup enumeration" `Quick
      test_pset_union_counts;
    Alcotest.test_case "N^3 box scans <= N^2 points" `Quick test_box_points_scanned;
    Alcotest.test_case "triangle inner dimension collapses" `Quick
      test_triangle_collapses;
    Alcotest.test_case "remove_redundant drops and merges" `Quick
      test_remove_redundant_drops;
    Alcotest.test_case "bset count memo hits" `Quick test_count_memo;
    Alcotest.test_case "Q.to_int_exn / neg / abs overflow" `Quick
      test_q_to_int_exn_message;
    Alcotest.test_case "Count.eval overflow detection" `Quick
      test_count_eval_overflow;
    Alcotest.test_case "degraded decompositions are never cached" `Quick
      test_degraded_never_memoized;
    Alcotest.test_case "existential search is metered" `Quick
      test_existential_search_metered;
    Alcotest.test_case "chamber telemetry counters tick" `Quick
      test_chamber_counters;
    Alcotest.test_case "chamber period divides the vertex denominators" `Quick
      test_chamber_period_bound;
    Alcotest.test_case "chamber fit exact on its corner (or declined)" `Quick
      test_chamber_corner_wall;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~verbose:false)
      (qcheck_diff @ qcheck_param)
