(* The simulator against its test-only oracle ({!Sim_oracle}): the
   lockstep single-kernel engine behind [Sim.run_each] and the
   chunk-fed multi-tenant interleaver must reproduce the replaced
   engines byte for byte — [Sim.outcome_to_json] per outcome, every
   tenant field as a hex float — on every bundled workload at reduced
   sizes, on mixed policy sets, on co-scheduled tenants, and on random
   affine loop nests. *)

open Hwsim
module J = Telemetry.Json

let json o = J.to_string (Sim.outcome_to_json o)

let multi_json (mo : Sim.multi_outcome) =
  let f = J.hex_float and i n = J.Int n in
  J.to_string
    (J.Obj
       [
         ("n_tenants", i mo.Sim.n_tenants);
         ("combined", Sim.outcome_to_json mo.Sim.combined);
         ( "per_tenant",
           J.Arr
             (List.map
                (fun (t : Sim.tenant_outcome) ->
                  J.Arr
                    [
                      J.Str t.Sim.o_tenant; f t.Sim.o_time_s; f t.Sim.o_energy_j;
                      i t.Sim.o_flops; i t.Sim.o_accesses; i t.Sim.o_dram_lines;
                      i t.Sim.o_dram_bytes; f t.Sim.o_gflops; f t.Sim.o_bw_gbps;
                      f t.Sim.o_solo_time_s; f t.Sim.o_slowdown;
                    ])
                mo.Sim.per_tenant) );
       ])

(* run both sides; an exception is an outcome too *)
let outcome f =
  match f () with
  | r -> Ok r
  | exception (Invalid_argument _ as e) -> Error (Printexc.to_string e)

let compare_with show ~ours ~oracle =
  match (outcome ours, outcome oracle) with
  | Ok a, Ok b ->
    let a = show a and b = show b in
    if String.equal a b then None else Some (Printf.sprintf "got %s\noracle %s" a b)
  | Error a, Error b when String.equal a b -> None
  | Ok _, Error e -> Some ("only the oracle raised " ^ e)
  | Error e, Ok _ -> Some ("only the simulator raised " ^ e)
  | Error a, Error b -> Some (Printf.sprintf "raised %s, oracle %s" a b)

let oracle_one (cfg : Sim.config) =
  match cfg.Sim.tenants with
  | [ t ] ->
    Sim_oracle.run_single ~machine:cfg.Sim.machine ~uncore:cfg.Sim.uncore
      ~caps:t.Sim.t_caps ~governor_interval_us:cfg.Sim.governor_interval_us
      t.Sim.t_prog ~param_values:t.Sim.t_params
  | _ -> invalid_arg "oracle_one"

(* one lockstep walk over [cfgs] against one oracle walk per config *)
let diff_each cfgs =
  compare_with
    (fun os -> String.concat "\n" (List.map json os))
    ~ours:(fun () -> Sim.run_each cfgs)
    ~oracle:(fun () -> List.map oracle_one cfgs)

let diff_multi ~solo cfg =
  compare_with multi_json
    ~ours:(fun () -> Sim.simulate ~solo cfg)
    ~oracle:(fun () -> Sim_oracle.simulate ~solo cfg)

let mid_range (m : Machine.t) =
  (m.Machine.uncore_min_ghz +. m.Machine.uncore_max_ghz) /. 2.0

let policies m = [ `Governor; `Fixed (mid_range m) ]

(* {policies} × {no caps, [caps]} over one program *)
let configs ?(caps = []) ~machine prog ~param_values =
  List.concat_map
    (fun uncore ->
      List.map
        (fun caps ->
          Sim.config ~machine ~uncore
            [ Sim.tenant ~caps ~param_values ~name:prog.Poly_ir.Ir.prog_name prog ])
        [ []; caps ])
    (policies machine)

let rooflines m =
  match Roofline.builtin m with
  | Some k -> k
  | None -> Alcotest.failf "%s has no built-in constants" m.Machine.name

(* a reduced workload compiled the way the bench compiles it: the
   simulated program and its cap schedule *)
let compiled machine (w : Workloads.t) =
  let prog, param_values = Test_cm_oracle.reduced w in
  let c =
    Polyufc_core.Flow.compile ~tile:false ~machine ~rooflines:(rooflines machine)
      prog ~param_values
  in
  (c.Polyufc_core.Flow.optimized, c.Polyufc_core.Flow.caps, param_values)

let machines = [ Machine.bdw; Machine.rpl ]

(* ---------- the 29 bundled workloads at reduced sizes ---------- *)

let test_workloads () =
  List.iter
    (fun (w : Workloads.t) ->
      List.iter
        (fun (machine : Machine.t) ->
          let prog, caps, param_values = compiled machine w in
          match diff_each (configs ~caps ~machine prog ~param_values) with
          | None -> ()
          | Some d ->
            Alcotest.failf "%s on %s: %s" w.Workloads.name machine.Machine.name d)
        machines)
    Workloads.all

(* ---------- one walk, many policies ---------- *)

let gemm = Workloads.find "gemm"

let test_mixed_policies () =
  let machine = Machine.bdw in
  let prog, caps, param_values = compiled machine gemm in
  let var =
    match prog.Poly_ir.Ir.body with
    | Poly_ir.Ir.Loop l :: _ -> l.Poly_ir.Ir.var
    | _ -> Alcotest.fail "expected a top-level loop"
  in
  let cfg ?governor_interval_us ?(caps = []) uncore =
    Sim.config ~machine ~uncore ?governor_interval_us
      [ Sim.tenant ~caps ~param_values ~name:"gemm" prog ]
  in
  let mixed =
    [
      cfg `Governor;
      cfg (`Fixed 1.2);
      cfg ~caps `Governor;
      cfg ~caps:[ (var, 1.2); (var, 2.8) ] (`Fixed 2.8);
      cfg ~governor_interval_us:10.0 `Governor;
      cfg ~governor_interval_us:10.0 ~caps:[ (var, 9.0) ] `Governor;
      cfg (`Fixed 0.1);
    ]
  in
  List.iter
    (fun cfgs ->
      match diff_each cfgs with
      | None -> ()
      | Some d -> Alcotest.failf "%d policies: %s" (List.length cfgs) d)
    [ mixed; List.rev mixed; [ List.hd mixed; List.hd mixed ]; [ cfg `Governor ] ];
  Alcotest.(check int) "no configs, no outcomes" 0 (List.length (Sim.run_each []))

let test_run_each_rejects () =
  let prog, _, param_values = compiled Machine.bdw gemm in
  let cfg ?(machine = Machine.bdw) ?(param_values = param_values) ?(prog = prog) () =
    Sim.config ~machine ~uncore:`Governor
      [ Sim.tenant ~param_values ~name:"gemm" prog ]
  in
  let copy = { prog with Poly_ir.Ir.prog_name = prog.Poly_ir.Ir.prog_name } in
  let two = Sim.config ~machine:Machine.bdw ~uncore:`Governor
      [ Sim.tenant ~param_values ~name:"a" prog; Sim.tenant ~param_values ~name:"b" prog ]
  in
  List.iter
    (fun (what, cfgs) ->
      match Sim.run_each cfgs with
      | _ -> Alcotest.failf "%s: expected Invalid_argument" what
      | exception Invalid_argument _ -> ())
    [
      ("other machine", [ cfg (); cfg ~machine:Machine.rpl () ]);
      ("other program", [ cfg (); cfg ~prog:copy () ]);
      ("other sizes", [ cfg (); cfg ~param_values:[ ("n", 1) ] () ]);
      ("two tenants", [ two ]);
      ("two tenants after one", [ cfg (); two ]);
    ]

(* ---------- co-scheduled tenants ---------- *)

(* A[i] = B[i] emits 3n + 2 events: enter, then flops/read/write per
   instance, then exit — n = 341 and 682 end a chunk one event past a
   boundary and exactly on one *)
let copy_prog =
  Polylang.parse
    {|
program copy(n) {
  arrays { A[n] : f64; B[n] : f64; }
  parallel for (i = 0; i < n; i++) {
    A[i] = B[i];
  }
}
|}

let test_multi_tenant () =
  List.iter
    (fun (machine : Machine.t) ->
      let tenant ?cores ?(capped = true) name =
        let prog, caps, param_values = compiled machine (Workloads.find name) in
        Sim.tenant ?cores ~caps:(if capped then caps else []) ~param_values ~name
          prog
      in
      let copy n = Sim.tenant ~param_values:[ ("n", n) ] ~name:"copy" copy_prog in
      let sets =
        [
          [ tenant "gemm"; tenant "mvt" ];
          [ tenant ~cores:2 "jacobi-2d"; tenant ~capped:false "atax"; tenant ~cores:1 "2mm" ];
          [ tenant "gemver"; copy 341; copy 682 ];
          [ copy 682; copy 2; tenant ~cores:3 "conv2d-convnext" ];
        ]
      in
      List.iter
        (fun tenants ->
          List.iter
            (fun uncore ->
              List.iter
                (fun solo ->
                  match diff_multi ~solo (Sim.config ~machine ~uncore tenants) with
                  | None -> ()
                  | Some d ->
                    Alcotest.failf "%s, %s: %s" machine.Machine.name
                      (String.concat "+"
                         (List.map (fun t -> t.Sim.t_name) tenants))
                      d)
                [ true; false ])
            (policies machine))
        sets)
    machines

(* ---------- random affine loop nests ---------- *)

let tiny = Test_cache_model.tiny

let arb_case =
  QCheck.make
    ~print:(fun (src, n, k) -> Printf.sprintf "n=%d, %d policies\n%s" n k src)
    QCheck.Gen.(triple Test_cm_oracle.gen_nest (int_range 1 24) (int_range 1 4))

let qcheck_tests =
  [
    QCheck.Test.make ~name:"lockstep and interleaver == oracle on random nests"
      ~count:60 arb_case (fun (src, n, k) ->
        let prog = Polylang.parse src in
        let param_values = [ ("n", n) ] in
        List.for_all
          (fun (machine : Machine.t) ->
            (* k policies from the cycle governor / pinned / capped *)
            let each =
              List.filteri (fun i _ -> i < k)
                (configs ~caps:[ ("i", 1.2) ] ~machine prog ~param_values)
            in
            let pair =
              Sim.config ~machine ~uncore:`Governor
                [
                  Sim.tenant ~caps:[ ("i", 2.0) ] ~param_values ~name:"rnd" prog;
                  Sim.tenant ~param_values:[ ("n", 40) ] ~name:"copy" copy_prog;
                ]
            in
            match (diff_each each, diff_multi ~solo:true pair) with
            | None, None -> true
            | Some d, _ | _, Some d ->
              QCheck.Test.fail_reportf "%s: %s" machine.Machine.name d)
          [ tiny; Machine.bdw ]);
  ]

let tests =
  [
    Alcotest.test_case "29 workloads x machines x policies x caps == oracle"
      `Quick test_workloads;
    Alcotest.test_case "run_each over mixed policies == oracle" `Quick
      test_mixed_policies;
    Alcotest.test_case "run_each rejects configs that cannot share a walk"
      `Quick test_run_each_rejects;
    Alcotest.test_case "co-scheduled tenants == oracle" `Quick test_multi_tenant;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_tests
