(* Tiling once per program: [Tiling.apply] along [Tiling.plan] against the
   pre-split tiler ([Tiling_oracle]) on every bundled workload and on
   random nests (strided ones included), strided bands, the salt that guards persisted plans, and the memo and
   tiling/v1 store tiers of [Analysis_cache.tile]. *)

open Poly_ir
module AC = Polyufc_core.Analysis_cache
module J = Telemetry.Json

let attempt f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* every statement instance with its access events, order aside: tiling
   may reorder instances but must keep each one and its addresses *)
let instances prog ~n =
  let out = ref [] and cur = ref [] in
  let flush () = if !cur <> [] then out := List.rev !cur :: !out in
  let cb =
    {
      Interp.null_callbacks with
      Interp.on_stmt =
        (fun ~stmt ~flops:_ ->
          flush ();
          cur := [ stmt ]);
      on_access =
        (fun ~stmt:_ ~array ~addr ~bytes:_ ~is_write ->
          cur := Printf.sprintf "%s%c%d" array (if is_write then '=' else '@') addr :: !cur);
    }
  in
  ignore (Interp.run ~compute:false prog ~param_values:[ ("n", n) ] cb);
  flush ();
  List.sort compare !out

(* The pre-split tiler rejects its own output when a band holds a strided
   loop (its point loop cannot take [max(tile, lo)]); the tiler now ends
   the band above that loop, so there it must return a valid program with
   the same statement instances instead. *)
let check_against_oracle ~label ~tile_size prog plan =
  let applied = attempt (fun () -> Tiling.apply ~tile_size prog plan) in
  let oracle = attempt (fun () -> Tiling_oracle.tile ~tile_size prog) in
  let whole = attempt (fun () -> (Tiling.tile ~tile_size prog).Tiling.tiled) in
  let show = function Ok p -> Polylang.to_string p | Error m -> "raises " ^ m in
  (match oracle with
  | Ok o when plan <> o.Tiling.nests ->
    Alcotest.failf "%s: plan differs from the oracle's nest reports" label
  | _ -> ());
  let oracle = Result.map (fun o -> o.Tiling.tiled) oracle in
  (match (applied, oracle) with
  | Ok p, Error m when Test_count.contains m "strided loop" ->
    List.iter
      (fun n ->
        if instances p ~n <> instances prog ~n then
          Alcotest.failf "%s, tile %d, n=%d: the tiled program\n%s\nruns other instances"
            label tile_size n (show applied))
      [ 1; 7; 13 ]
  | _ ->
    if applied <> oracle then
      Alcotest.failf "%s, tile %d: apply gives\n%s\nthe oracle\n%s" label
        tile_size (show applied) (show oracle));
  if applied <> whole then
    Alcotest.failf "%s, tile %d: apply differs from Tiling.tile" label
      tile_size

(* a strided loop above a triangular one: the band ends above it *)
let strided_src =
  {|
program strided(n) {
  arrays { A[n] : f64; B[2 * n] : f32; C[n][n] : f64; }
  for (i = 0; i < n; i += 3) {
    for (j = 0; j < n; j++) {
      for (k = j; k < n; k++) {
        C[j - 7][2 * j - 4] = B[i + 11];
      }
    }
  }
}
|}

let test_strided_band () =
  let prog = Polylang.parse strided_src in
  (match Tiling_oracle.tile ~tile_size:32 prog with
  | _ -> Alcotest.fail "the pre-split tiler accepted the strided band"
  | exception Invalid_argument _ -> ());
  let r = Tiling.tile ~tile_size:32 prog in
  Alcotest.(check (list int)) "no band above the strided loop" [ 0 ]
    (List.map (fun (n : Tiling.nest_report) -> n.Tiling.band) r.Tiling.nests);
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (Printf.sprintf "same instances at n=%d" n)
        true
        (instances r.Tiling.tiled ~n = instances prog ~n))
    [ 4; 16 ];
  (* a strided loop below a rectangular pair: the band is the pair *)
  let inner =
    Polylang.parse
      {|
program inner(n) {
  arrays { C[n][n] : f64; }
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) {
      for (k = 0; k < n; k += 2) {
        C[i][j] = C[i][j] + C[k][j];
      }
    }
  }
}
|}
  in
  let r = Tiling.tile ~tile_size:4 inner in
  Alcotest.(check (list int)) "band ends above the strided loop" [ 2 ]
    (List.map (fun (n : Tiling.nest_report) -> n.Tiling.band) r.Tiling.nests);
  Alcotest.(check bool) "same instances" true
    (instances r.Tiling.tiled ~n:9 = instances inner ~n:9)

let test_workloads () =
  List.iter
    (fun (w : Workloads.t) ->
      let prog = Workloads.program w in
      let plan = Tiling.plan prog in
      List.iter
        (fun tile_size ->
          check_against_oracle ~label:w.Workloads.name ~tile_size prog plan)
        [ 4; 8; 32 ])
    Workloads.all

let qcheck_tests =
  [
    QCheck.Test.make ~name:"apply . plan == oracle on random affine nests"
      ~count:100
      (QCheck.make
         ~print:(fun (src, t) -> Printf.sprintf "tile %d\n%s" t src)
         QCheck.Gen.(pair Test_cm_oracle.gen_nest (int_range 1 40)))
      (fun (src, tile_size) ->
        let prog = Polylang.parse src in
        check_against_oracle ~label:"random nest" ~tile_size prog
          (Tiling.plan prog);
        true);
  ]

(* apply refuses a plan of another program *)
let test_apply_rejects_foreign_plan () =
  let gemm = Workloads.program (Workloads.find "gemm") in
  let mvt = Workloads.program (Workloads.find "mvt") in
  let renamed =
    List.map
      (fun (n : Tiling.nest_report) -> { n with Tiling.nest_root = "zz" })
      (Tiling.plan gemm)
  in
  List.iter
    (fun (label, prog, plan) ->
      match Tiling.apply ~tile_size:8 prog plan with
      | _ -> Alcotest.failf "%s: apply must raise Invalid_argument" label
      | exception Invalid_argument _ -> ())
    [
      ("renamed root", gemm, renamed);
      ("missing nests", mvt, []);
      ("extra nests", gemm, Tiling.plan gemm @ Tiling.plan gemm);
      ( "band past the perfect band",
        gemm,
        List.map
          (fun (n : Tiling.nest_report) -> { n with Tiling.band = 9 })
          (Tiling.plan gemm) );
    ]

(* ---------- the salt of persisted plans ---------- *)

(* Digests of the plans of all bundled workloads, per tiler version.  A
   change to the tiler that moves them must bump [Tiling.version] (so
   tiling/v1 entries of the old tiler are never served) and pin the new
   digest under the new version. *)
let pinned_plan_digests =
  [ (1, "6e4bf83a0642989a23ddd26307901b11"); (2, "6e4bf83a0642989a23ddd26307901b11") ]

let plans_digest () =
  Workloads.all
  |> List.map (fun (w : Workloads.t) ->
         w.Workloads.name ^ " "
         ^ J.to_string (AC.plan_to_json (Tiling.plan (Workloads.program w))))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let test_salt_guard () =
  let v = Tiling.version in
  let d = plans_digest () in
  match List.assoc_opt v pinned_plan_digests with
  | None -> Alcotest.failf "Tiling.version %d has no pinned plan digest: %s" v d
  | Some pinned ->
    Alcotest.(check string)
      (Printf.sprintf
         "plans moved under Tiling.version %d: bump the version and pin the \
          new digest"
         v)
      pinned d

(* ---------- memo and store tiers ---------- *)

let fresh_dir () = Filename.temp_dir "polyufc_tiling_test" ""

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* counters of [f ()]'s tiling, with fault injection off: the assertions
   below are about hits, which a torn write would turn into misses *)
let tiling_counts f =
  Engine.Faultsim.suspended @@ fun () ->
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())
    (fun () ->
      let r = f () in
      ( r,
        List.map Telemetry.counter_value
          [ "tiling.memo_hits"; "tiling.store_hits"; "tiling.plans" ] ))

let counts = Alcotest.(list int)

let src_with c =
  Printf.sprintf
    "program scale(n) {\n\
    \  arrays { A[n][n] : f64; }\n\
    \  for (i = 0; i < n; i++) {\n\
    \    for (j = 0; j < n; j++) {\n\
    \      A[i][j] = A[i][j] * %s;\n\
    \    }\n\
    \  }\n\
     }"
    c

let test_exact_key () =
  let a = Polylang.parse (src_with "1.0000001") in
  let b = Polylang.parse (src_with "1.0000002") in
  let pp p = Format.asprintf "%a" Ir.pp p in
  (* the hazard: Ir.pp cannot tell them apart *)
  Alcotest.(check string) "Ir.pp renders both alike" (pp a) (pp b);
  Alcotest.(check bool) "distinct tiling/v1 keys" true
    (AC.tiling_key a <> AC.tiling_key b);
  AC.clear_tile_memo ();
  let (ta, tb), n =
    tiling_counts (fun () ->
        let ta = AC.tile ~ctx:Engine.Ctx.none ~tile_size:4 a in
        let tb = AC.tile ~ctx:Engine.Ctx.none ~tile_size:4 b in
        (ta, tb))
  in
  Alcotest.check counts "two plans, no memo hit" [ 0; 0; 2 ] n;
  Alcotest.(check bool) "distinct tiled programs" true
    (ta.AC.program <> tb.AC.program);
  Alcotest.(check bool) "each tiled as the oracle tiles it" true
    (ta.AC.program = (Tiling_oracle.tile ~tile_size:4 a).Tiling.tiled
    && tb.AC.program = (Tiling_oracle.tile ~tile_size:4 b).Tiling.tiled)

let test_store_tier () =
  let prog = Workloads.program (Workloads.find "2mm") in
  let expect ts = (Tiling_oracle.tile ~tile_size:ts prog).Tiling.tiled in
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let ctx () = Engine.Ctx.create ~cache:(Engine.Rcache.create ~dir ()) () in
  let tile ?(ctx = ctx ()) ts =
    tiling_counts (fun () -> (AC.tile ~ctx ~tile_size:ts prog).AC.program)
  in
  let check label ts (p, n) want =
    Alcotest.(check bool) (label ^ ": oracle's program") true (p = expect ts);
    Alcotest.check counts (label ^ ": memo/store/plans") want n
  in
  AC.clear_tile_memo ();
  check "cold" 32 (tile 32) [ 0; 0; 1 ];
  check "memo hit" 32 (tile 32) [ 1; 0; 0 ];
  check "memo hit, new tile size" 8 (tile 8) [ 1; 0; 0 ];
  AC.clear_tile_memo ();
  check "store hit" 16 (tile 16) [ 0; 1; 0 ];
  (* a store entry that does not decode, or that does not apply, is a
     miss; the fresh plan overwrites it *)
  List.iter
    (fun (label, payload) ->
      let c = Engine.Rcache.create ~dir () in
      Engine.Rcache.store ~kind:Engine.Rcache.kind_tiling c
        (AC.tiling_key prog) payload;
      AC.clear_tile_memo ();
      check label 32 (tile 32) [ 0; 0; 1 ];
      AC.clear_tile_memo ();
      check (label ^ ", repaired") 32 (tile 32) [ 0; 1; 0 ])
    [
      ("undecodable entry", J.Obj [ ("nests", J.Int 3) ]);
      ( "foreign plan",
        AC.plan_to_json
          (Tiling.plan (Workloads.program (Workloads.find "gemm"))) );
    ];
  (* no store: every memo miss is a fresh plan *)
  AC.clear_tile_memo ();
  check "no store" 32 (tile ~ctx:Engine.Ctx.none 32) [ 0; 0; 1 ]

(* [C[j - 7][2 * j - 4]] lies below the layout at every size: the cache
   model must name the access, not fail with a bare "index out of
   bounds" *)
let test_strided_bad_access_named () =
  let prog = (Tiling.tile ~tile_size:32 (Polylang.parse strided_src)).Tiling.tiled in
  match
    Cache_model.Model.analyze_gov ~machine:Hwsim.Machine.bdw prog
      ~param_values:[ ("n", 16) ]
  with
  | _ -> Alcotest.fail "an access below the layout was modelled"
  | exception Invalid_argument m ->
    Alcotest.(check string) "names statement, array and address"
      "statement S0 writes array C at byte address -672, below the layout \
       (an index out of the array's bounds)"
      m

let tests =
  [
    Alcotest.test_case "apply . plan == tile == oracle: 29 workloads x 4/8/32"
      `Quick test_workloads;
    Alcotest.test_case "apply rejects a plan of another program" `Quick
      test_apply_rejects_foreign_plan;
    Alcotest.test_case "tiler salt guard" `Quick test_salt_guard;
    Alcotest.test_case "a strided loop ends the band" `Quick test_strided_band;
    Alcotest.test_case "an access below the layout is named" `Quick
      test_strided_bad_access_named;
    Alcotest.test_case "memo key is exact: constants past %g" `Quick
      test_exact_key;
    Alcotest.test_case "tiling/v1: hits, corrupt and foreign entries" `Quick
      test_store_tier;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_tests
