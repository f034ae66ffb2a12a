(* The paper's headline classifications as regression tests, computed
   the way the bench computes them from the built-in constants, with no
   simulation:
   - Fig. 6's CB/BB split of the 22 PolyBench kernels (Flow.compile on
     the Pluto-tiled kernel at its default size, then
     Roofline.characterize);
   - Fig. 5's phase chain of BERT's sdpa, a single BB phase at torch
     level that decomposes into CB -> BB* -> CB at linalg level.
   A change to PolyUFC-CM or the flow that flips a class — and with it a
   cap decision — fails here. *)

open Polyufc_core

(* EXPERIMENTS.md, Fig. 6: the compute-bound kernels per machine; every
   other PolyBench kernel is bandwidth-bound *)
let bdw_cb =
  [
    "gemm"; "2mm"; "3mm"; "trmm"; "symm"; "syrk"; "syr2k"; "cholesky";
    "durbin"; "lu"; "doitgen"; "jacobi-1d"; "correlation";
  ]

(* jacobi-2d flips to CB with RPL's larger LLC *)
let rpl_cb = "jacobi-2d" :: bdw_cb

let builtin (m : Hwsim.Machine.t) =
  match Roofline.builtin m with
  | Some k -> k
  | None -> Alcotest.failf "%s has no built-in constants" m.Hwsim.Machine.name

let classify (m : Hwsim.Machine.t) =
  let rooflines = builtin m in
  List.map
    (fun (w : Workloads.t) ->
      let c =
        Flow.compile ~tile:false ~machine:m ~rooflines
          (Workloads.tiled_program w)
          ~param_values:(Workloads.param_values w)
      in
      ( w.Workloads.name,
        Roofline.characterize rooflines ~oi:c.Flow.profile.Perfmodel.oi ))
    Workloads.polybench

let check_fig6 (m : Hwsim.Machine.t) ~cb ~n_cb ~n_bb () =
  let classes = classify m in
  let cb_got =
    List.filter_map
      (fun (name, b) -> if b = Roofline.CB then Some name else None)
      classes
  in
  let name = m.Hwsim.Machine.name in
  Alcotest.(check (list string))
    (name ^ " CB kernels") (List.sort compare cb) (List.sort compare cb_got);
  Alcotest.(check int) (name ^ " CB count") n_cb (List.length cb_got);
  Alcotest.(check int) (name ^ " BB count") n_bb
    (List.length classes - List.length cb_got)

(* bench fig5, on BDW *)
let test_fig5 () =
  let machine = Hwsim.Machine.bdw in
  let rooflines = builtin machine in
  let sdpa =
    match (Workloads.find "sdpa-bert").Workloads.source with
    | Workloads.Torch builder -> builder ()
    | Workloads.Lang _ -> Alcotest.fail "sdpa-bert is a torch workload"
  in
  Alcotest.(check string) "torch level" "BB"
    (Ml_polyufc.phase_pattern
       (Ml_polyufc.characterize_torch_ops ~machine ~rooflines sdpa));
  let lowered =
    Mlir_lite.Lower.run_pipeline (Mlir_lite.Lower.default_pipeline ()) sdpa
  in
  Alcotest.(check string) "linalg level" "CB -> BB* -> CB"
    (Ml_polyufc.phase_pattern
       (Ml_polyufc.characterize_nests ~machine ~rooflines lowered))

let tests =
  [
    Alcotest.test_case "Fig. 6 BDW: 13 CB / 9 BB" `Slow
      (check_fig6 Hwsim.Machine.bdw ~cb:bdw_cb ~n_cb:13 ~n_bb:9);
    Alcotest.test_case "Fig. 6 RPL: 14 CB / 8 BB" `Slow
      (check_fig6 Hwsim.Machine.rpl ~cb:rpl_cb ~n_cb:14 ~n_bb:8);
    Alcotest.test_case "Fig. 5 BDW: sdpa is BB, then CB -> BB* -> CB" `Slow
      test_fig5;
  ]
