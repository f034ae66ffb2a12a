(* PolyUFC experiment harness: regenerates every table and figure of the
   paper's evaluation (Sec. VII) on the simulated machines, plus the
   ablations called out in DESIGN.md and a Bechamel micro-benchmark suite
   for the analysis components.

   Usage:  main.exe [--jobs=N] [--quick] [--daemon] [experiment...]
     experiments: tab2 tab3 tab4 fig1 fig5 fig6 fig7 fig8
                  abl-eps abl-granularity abl-objective abl-counting
                  ehrhart micro daemon traffic-replay
     default: all of the above except daemon and traffic-replay (which
     need the polyufc binary on disk; opt in with --daemon or by naming
     them).
   --quick shrinks the ehrhart domain sizes for CI smoke runs.

   --jobs=N runs the per-workload bodies of fig6 / fig7 / tab4 on an
   Engine.Pool of N worker domains; rows come back in submission order,
   so the report is byte-identical to a --jobs=1 run. *)

open Polyufc_core

let pf fmt = Printf.printf fmt

let section title =
  pf "\n";
  pf "==========================================================================\n";
  pf "%s\n" title;
  pf "==========================================================================\n"

(* the worker pool, when --jobs=N with N > 1 was given *)
let the_pool : Engine.Pool.t option ref = ref None

(* parallel map over workloads: deterministic output order either way *)
let pmap f xs =
  match !the_pool with
  | None -> List.map f xs
  | Some pool -> Engine.Pool.map pool f xs

let rooflines m = Roofline.for_machine ~ctx:Engine.Ctx.none m

(* the CLI's default result store: a retuned machine's roofline campaign
   (abl-core) runs once per store, not once per bench run *)
let store_ctx =
  lazy
    (Engine.Ctx.create
       ~cache:(Engine.Rcache.create ~dir:(Engine.Rcache.default_dir ()) ())
       ())

let machines = [ Hwsim.Machine.bdw; Hwsim.Machine.rpl ]

let bound_str = function Roofline.CB -> "CB" | Roofline.BB -> "BB"

(* single-kernel simulation through the record API *)
let sim_one ~machine ~uncore ?(caps = []) ?governor_interval_us prog
    ~param_values =
  Hwsim.Sim.run_one
    (Hwsim.Sim.config ~machine ~uncore ?governor_interval_us
       [
         Hwsim.Sim.tenant ~caps ~param_values
           ~name:prog.Poly_ir.Ir.prog_name prog;
       ])

(* memoized per-(workload, machine) compilation; the table is shared by
   pool workers, so probes/inserts are mutex-guarded (the compile itself
   runs unlocked — it is deterministic, a racing duplicate is dropped) *)
let compile_cache : (string, Flow.compiled) Hashtbl.t = Hashtbl.create 64
let compile_cache_mutex = Mutex.create ()

let compile_workload ?mode (m : Hwsim.Machine.t) (w : Workloads.t) =
  let key =
    w.Workloads.name ^ "@" ^ m.Hwsim.Machine.name
    ^ (match mode with
      | Some Cache_model.Model.Fully_associative -> "#fa"
      | _ -> "")
  in
  let probe () =
    Mutex.protect compile_cache_mutex (fun () ->
        Hashtbl.find_opt compile_cache key)
  in
  match probe () with
  | Some c -> c
  | None ->
    let c =
      Flow.compile ?mode ~tile:false ~machine:m ~rooflines:(rooflines m)
        (Workloads.tiled_program w)
        ~param_values:(Workloads.param_values w)
    in
    Mutex.protect compile_cache_mutex (fun () ->
        if not (Hashtbl.mem compile_cache key) then
          Hashtbl.add compile_cache key c);
    c

(* ------------------------------------------------------------------ *)
(* Table II: benchmark inventory                                       *)
(* ------------------------------------------------------------------ *)

let tab2 () =
  section "TABLE II — Benchmarks: ML kernels and PolyBench (scaled sizes)";
  pf "%-18s %-10s %-14s %s\n" "kernel" "suite" "sizes" "description";
  List.iter
    (fun (w : Workloads.t) ->
      let sizes =
        match w.Workloads.sizes with
        | [] -> "(baked in)"
        | l -> String.concat "," (List.map (fun (p, v) -> Printf.sprintf "%s=%d" p v) l)
      in
      pf "%-18s %-10s %-14s %s\n" w.Workloads.name
        (match w.Workloads.kind with
        | Workloads.Polybench -> "polybench"
        | Workloads.Ml_kernel -> "ml")
        sizes w.Workloads.description)
    Workloads.all

(* ------------------------------------------------------------------ *)
(* Table III: machines                                                 *)
(* ------------------------------------------------------------------ *)

let tab3 () =
  section "TABLE III — Simulated microarchitectures (scaled analogues)";
  pf "%-6s %-8s %-12s %-14s %-16s %-10s\n" "arch" "threads" "core (GHz)"
    "uncore (GHz)" "LLC" "cap lat";
  List.iter
    (fun (m : Hwsim.Machine.t) ->
      let llc = Hwsim.Machine.llc m in
      pf "%-6s %-8d %-12.1f %.1f-%-10.1f %4d KiB %2d-way  %4.0f us\n"
        m.Hwsim.Machine.name m.Hwsim.Machine.threads m.Hwsim.Machine.core_ghz
        m.Hwsim.Machine.uncore_min_ghz m.Hwsim.Machine.uncore_max_ghz
        (llc.Hwsim.Machine.size_bytes / 1024)
        llc.Hwsim.Machine.assoc m.Hwsim.Machine.cap_switch_us)
    machines;
  pf "\nFitted rooflines (one-time microbenchmarking, footnote 14):\n";
  List.iter
    (fun m -> Format.printf "  %a@." Roofline.pp (rooflines m))
    machines

(* ------------------------------------------------------------------ *)
(* Fig. 1: time / energy / EDP across uncore caps                      *)
(* ------------------------------------------------------------------ *)

let fig1 () =
  section
    "FIG. 1 — Exec. time, Energy, EDP across uncore frequency caps\n\
     (Pluto-tiled kernels, hardware-simulator measurements; the paper's\n\
     representative kernels: conv2d (CB), 2mm (CB), gemver (BB), mvt (BB))";
  let kernels = [ "conv2d-convnext"; "2mm"; "gemver"; "mvt" ] in
  let m = Hwsim.Machine.bdw in
  List.iter
    (fun name ->
      let w = Workloads.find name in
      let prog = Workloads.tiled_program w in
      let pv = Workloads.param_values w in
      pf "\n--- %s on %s ---\n" name m.Hwsim.Machine.name;
      pf "%-6s %-12s %-12s %-12s\n" "f_c" "time (s)" "energy (J)" "EDP (Js)";
      let rows =
        Roofline.sweep ~param_values:pv m prog (Hwsim.Machine.uncore_freqs m)
      in
      List.iter
        (fun (f, (o : Hwsim.Sim.outcome)) ->
          pf "%-6.1f %-12.4g %-12.4g %-12.4g\n" f o.Hwsim.Sim.time_s
            o.Hwsim.Sim.energy_j o.Hwsim.Sim.edp)
        rows;
      let best metric =
        List.fold_left
          (fun (bf, bv) (f, o) ->
            let v = metric o in
            if v < bv then (f, v) else (bf, bv))
          (0.0, Float.infinity) rows
        |> fst
      in
      pf "minima: time@%.1f GHz, energy@%.1f GHz, EDP@%.1f GHz\n"
        (best (fun (o : Hwsim.Sim.outcome) -> o.Hwsim.Sim.time_s))
        (best (fun o -> o.Hwsim.Sim.energy_j))
        (best (fun o -> o.Hwsim.Sim.edp)))
    kernels

(* ------------------------------------------------------------------ *)
(* Fig. 5: sdpa phase changes across dialects                          *)
(* ------------------------------------------------------------------ *)

let fig5 () =
  section
    "FIG. 5 — Phase changes of sdpa (BERT) across torch / linalg dialect\n\
     levels (characterization at the affine level, Sec. VI-A)";
  let m = Hwsim.Machine.bdw in
  let k = rooflines m in
  let sdpa = Workloads.find "sdpa-bert" in
  let builder =
    match sdpa.Workloads.source with
    | Workloads.Torch b -> b
    | _ -> assert false
  in
  let torch_mod = builder () in
  let torch_phases =
    Ml_polyufc.characterize_torch_ops ~machine:m ~rooflines:k torch_mod
  in
  pf "torch level  : %s\n" (Ml_polyufc.phase_pattern torch_phases);
  List.iter
    (fun (p : Ml_polyufc.phase) ->
      pf "  %-28s OI=%8.3f  %s  cap=%.1f GHz\n" p.Ml_polyufc.op_label
        p.Ml_polyufc.oi (bound_str p.Ml_polyufc.bound) p.Ml_polyufc.cap_ghz)
    torch_phases;
  let lowered =
    Mlir_lite.Lower.run_pipeline (Mlir_lite.Lower.default_pipeline ()) torch_mod
  in
  let linalg_phases =
    Ml_polyufc.characterize_nests ~machine:m ~rooflines:k lowered
  in
  pf "linalg level : %s\n" (Ml_polyufc.phase_pattern linalg_phases);
  List.iter
    (fun (p : Ml_polyufc.phase) ->
      pf "  %-28s OI=%8.3f  %s  cap=%.1f GHz\n" p.Ml_polyufc.op_label
        p.Ml_polyufc.oi (bound_str p.Ml_polyufc.bound) p.Ml_polyufc.cap_ghz)
    linalg_phases;
  pf "(paper: sdpa decomposes into a CB -> BB* -> CB chain at linalg level,\n\
     \ invisible at torch level — Sec. VI-A)\n"

(* ------------------------------------------------------------------ *)
(* Fig. 6: roofline characterization, static vs hardware               *)
(* ------------------------------------------------------------------ *)

let fig6 () =
  section
    "FIG. 6 — Performance/power characterization: static PolyUFC estimates\n\
     vs simulated-hardware measurements, CB/BB classification per machine";
  List.iter
    (fun (m : Hwsim.Machine.t) ->
      let k = rooflines m in
      pf "\n--- %s (B^t_DRAM = %.2f FpB) ---\n" m.Hwsim.Machine.name
        k.Roofline.b_dram_t;
      pf "%-18s %8s %5s | %9s %9s %6s | %8s %8s\n" "kernel" "OI" "class"
        "est GF/s" "hw GF/s" "err%" "est W" "hw W";
      let rows =
        pmap
          (fun (w : Workloads.t) ->
            let c = compile_workload m w in
            let oi = c.Flow.profile.Perfmodel.oi in
            let bound = Roofline.characterize k ~oi in
            let est =
              Perfmodel.estimate k c.Flow.profile
                ~f_c:m.Hwsim.Machine.uncore_max_ghz
            in
            let hw =
              sim_one ~machine:m
                ~uncore:(`Fixed m.Hwsim.Machine.uncore_max_ghz) c.Flow.optimized
                ~param_values:(Workloads.param_values w)
            in
            let err =
              100.0
              *. (est.Perfmodel.perf_gflops -. hw.Hwsim.Sim.achieved_gflops)
              /. hw.Hwsim.Sim.achieved_gflops
            in
            let row =
              Printf.sprintf "%-18s %8.3f %5s | %9.2f %9.2f %+6.1f | %8.1f %8.1f"
                w.Workloads.name oi (bound_str bound) est.Perfmodel.perf_gflops
                hw.Hwsim.Sim.achieved_gflops err est.Perfmodel.power_w
                hw.Hwsim.Sim.avg_power_w
            in
            (row, bound, w.Workloads.kind))
          Workloads.all
      in
      let cb = ref 0 and bb = ref 0 and pb_cb = ref 0 and pb_bb = ref 0 in
      List.iter
        (fun (row, bound, kind) ->
          pf "%s\n" row;
          (match bound with Roofline.CB -> incr cb | Roofline.BB -> incr bb);
          if kind = Workloads.Polybench then
            match bound with
            | Roofline.CB -> incr pb_cb
            | Roofline.BB -> incr pb_bb)
        rows;
      pf "classification: %d CB / %d BB total; PolyBench %d CB / %d BB\n" !cb
        !bb !pb_cb !pb_bb;
      pf "(paper, RPL: 13 CB / 9 BB among the 22 PolyBench kernels)\n")
    machines

(* ------------------------------------------------------------------ *)
(* Fig. 7: time / energy / EDP vs the UFS-driver baseline              *)
(* ------------------------------------------------------------------ *)

let geomean l =
  match l with
  | [] -> 0.0
  | _ ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 l /. float_of_int (List.length l))

let fig7 () =
  section
    "FIG. 7 — Time, Energy, EDP of PolyUFC-capped binaries vs the default\n\
     uncore-scaling (UFS) driver baseline (positive = PolyUFC better)";
  List.iter
    (fun (m : Hwsim.Machine.t) ->
      let k = rooflines m in
      pf "\n--- %s ---\n" m.Hwsim.Machine.name;
      pf "%-18s %5s %7s | %8s %8s %8s\n" "kernel" "class" "cap" "time%" "energy%"
        "EDP%";
      let rows =
        pmap
          (fun (w : Workloads.t) ->
            let c = compile_workload m w in
            let e =
              Flow.evaluate ~machine:m c
                ~param_values:(Workloads.param_values w)
            in
            let bound =
              Roofline.characterize k ~oi:c.Flow.profile.Perfmodel.oi
            in
            let cap =
              match c.Flow.caps with (_, f) :: _ -> f | [] -> Float.nan
            in
            let row =
              Printf.sprintf "%-18s %5s %7.1f | %+8.1f %+8.1f %+8.1f"
                w.Workloads.name (bound_str bound) cap
                (100. *. e.Flow.time_gain) (100. *. e.Flow.energy_gain)
                (100. *. e.Flow.edp_gain)
            in
            (row, w, bound, e))
          Workloads.all
      in
      let pb_edp_ratios = ref [] in
      let max_cb = ref (0.0, "") and max_bb = ref (0.0, "") in
      List.iter
        (fun (row, (w : Workloads.t), bound, (e : Flow.evaluation)) ->
          pf "%s\n" row;
          if w.Workloads.kind = Workloads.Polybench then
            pb_edp_ratios :=
              (e.Flow.baseline.Hwsim.Sim.edp /. e.Flow.capped.Hwsim.Sim.edp)
              :: !pb_edp_ratios;
          let track r =
            if e.Flow.edp_gain > fst !r then
              r := (e.Flow.edp_gain, w.Workloads.name)
          in
          match bound with
          | Roofline.CB -> track max_cb
          | Roofline.BB -> track max_bb)
        rows;
      let gm = (geomean !pb_edp_ratios -. 1.0) *. 100.0 in
      pf "PolyBench geomean EDP improvement: %+.1f%%  (paper: +12%% BDW, +10.6%% RPL)\n" gm;
      pf "max CB EDP gain: %+.1f%% (%s)   max BB EDP gain: %+.1f%% (%s)\n"
        (100. *. fst !max_cb) (snd !max_cb) (100. *. fst !max_bb) (snd !max_bb);
      pf "(paper headline: up to 42%% on CB, up to 54%% on BB)\n")
    machines

(* ------------------------------------------------------------------ *)
(* Fig. 8: EDP, set-associative vs fully-associative PolyUFC-CM vs HW  *)
(* ------------------------------------------------------------------ *)

let fig8_one name (m : Hwsim.Machine.t) =
  let k = rooflines m in
  let w = Workloads.find name in
  let pv = Workloads.param_values w in
  let sa = compile_workload m w in
  let fa = compile_workload ~mode:Cache_model.Model.Fully_associative m w in
  pf "\n--- %s on %s ---\n" name m.Hwsim.Machine.name;
  pf "%-6s %-14s %-14s %-14s\n" "f_c" "est EDP (set)" "est EDP (full)" "hw EDP";
  let best_sa = ref (0.0, Float.infinity)
  and best_fa = ref (0.0, Float.infinity)
  and best_hw = ref (0.0, Float.infinity) in
  List.iter
    (fun (f, (hw : Hwsim.Sim.outcome)) ->
      let e_sa = Perfmodel.estimate k sa.Flow.profile ~f_c:f in
      let e_fa = Perfmodel.estimate k fa.Flow.profile ~f_c:f in
      let upd r f v = if v < snd !r then r := (f, v) in
      upd best_sa f e_sa.Perfmodel.edp;
      upd best_fa f e_fa.Perfmodel.edp;
      upd best_hw f hw.Hwsim.Sim.edp;
      pf "%-6.1f %-14.4g %-14.4g %-14.4g\n" f e_sa.Perfmodel.edp
        e_fa.Perfmodel.edp hw.Hwsim.Sim.edp)
    (Roofline.sweep ~param_values:pv m sa.Flow.optimized
       (Hwsim.Machine.uncore_freqs m));
  pf "EDP minima: set-assoc model @%.1f GHz, fully-assoc model @%.1f GHz, hw @%.1f GHz\n"
    (fst !best_sa) (fst !best_fa) (fst !best_hw);
  pf "(paper: the set-associative model tracks hardware more closely on\n\
     \ conflict-heavy kernels — gemm/2mm, Sec. VII-F)\n"

let fig8 () =
  section
    "FIG. 8 — EDP over f_c: PolyUFC-CM set-associative vs fully-associative\n\
     estimates vs simulated hardware";
  fig8_one "gemm" Hwsim.Machine.bdw;
  fig8_one "2mm" Hwsim.Machine.rpl

(* ------------------------------------------------------------------ *)
(* Table IV: compile-time breakdown                                    *)
(* ------------------------------------------------------------------ *)

let tab4 () =
  section
    "TABLE IV — PolyUFC compile-time breakdown (ms): preprocessing (SCoP\n\
     extraction), Pluto (tiling), PolyUFC-CM (cache model + OI), steps 4-6\n\
     (characterize / estimate / search); BDW cache configuration";
  pf "%-18s %12s %10s %12s %10s %10s\n" "kernel" "preprocess" "pluto"
    "polyufc-cm" "steps4-6" "total";
  let m = Hwsim.Machine.bdw in
  let rows =
    pmap
      (fun (w : Workloads.t) ->
        (* timed fresh compile, including the tiling stage; the bench-side
           preprocessing/tiling spans and Flow.compile's own phase spans
           all report through the one telemetry clock *)
        let _prog, pre_s =
          Telemetry.with_span_timed "bench.preprocess"
            ~args:[ ("kernel", w.Workloads.name) ]
            (fun () ->
              let prog = Workloads.program w in
              let _scop = Poly_ir.Scop.extract prog in
              prog)
        in
        let tiled, pluto_s =
          Telemetry.with_span_timed "bench.pluto"
            ~args:[ ("kernel", w.Workloads.name) ]
            (fun () -> Workloads.tiled_program w)
        in
        let c =
          Flow.compile ~tile:false ~machine:m ~rooflines:(rooflines m) tiled
            ~param_values:(Workloads.param_values w)
        in
        let ms x = x *. 1e3 in
        let pre = ms pre_s
        and pluto = ms pluto_s
        and cm = ms c.Flow.timing.Flow.cm_s
        and s456 = ms c.Flow.timing.Flow.steps456_s in
        Printf.sprintf "%-18s %12.1f %10.1f %12.1f %10.2f %10.1f"
          w.Workloads.name pre pluto cm s456
          (pre +. pluto +. cm +. s456))
      Workloads.all
  in
  List.iter (fun row -> pf "%s\n" row) rows;
  pf "(paper: PolyUFC-CM dominates compile time, with barvinok counting on\n\
     \ tiled domains; here exact enumeration plays that role)\n"

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let abl_eps () =
  section "ABLATION — epsilon threshold of POLYUFC-SEARCH (paper: 1e-3)";
  let m = Hwsim.Machine.bdw in
  let k = rooflines m in
  List.iter
    (fun name ->
      let w = Workloads.find name in
      let c = compile_workload m w in
      pf "\n%s:\n" name;
      pf "%-10s %-8s %-10s\n" "epsilon" "cap" "est EDP";
      List.iter
        (fun eps ->
          let s = Search.run ~epsilon:eps k c.Flow.profile in
          pf "%-10.0e %-8.1f %-10.4g\n" eps s.Search.cap_ghz
            s.Search.chosen.Perfmodel.edp)
        [ 1e-6; 1e-3; 1e-2; 0.1; 0.5 ])
    [ "gemm"; "mvt" ]

let abl_granularity () =
  section
    "ABLATION — cap granularity on sdpa (Sec. VI-B): torch-level vs\n\
     linalg-level vs whole-module caps, with switch overhead";
  let m = Hwsim.Machine.bdw in
  let k = rooflines m in
  let builder =
    match (Workloads.find "sdpa-bert").Workloads.source with
    | Workloads.Torch b -> b
    | _ -> assert false
  in
  let lowered =
    Mlir_lite.Lower.run_pipeline (Mlir_lite.Lower.default_pipeline ()) (builder ())
  in
  pf "%-14s %9s %12s | %10s %10s %10s\n" "granularity" "switches" "overhead"
    "time (s)" "energy (J)" "EDP";
  List.iter
    (fun (label, gran) ->
      let capped, switches =
        Ml_polyufc.insert_caps ~granularity:gran ~machine:m ~rooflines:k lowered
      in
      let prog, caps = Mlir_lite.Lower.to_program capped in
      let o =
        sim_one ~machine:m ~uncore:`Governor ~caps prog ~param_values:[]
      in
      pf "%-14s %9d %9.0f us | %10.4g %10.4g %10.4g\n" label switches
        (Ml_polyufc.switch_overhead_us m switches)
        o.Hwsim.Sim.time_s o.Hwsim.Sim.energy_j o.Hwsim.Sim.edp)
    [
      ("linalg (6)", Ml_polyufc.Per_nest);
      ("torch (1)", Ml_polyufc.Grouped [ 6 ]);
      ("module", Ml_polyufc.Whole_module);
    ];
  let prog, _ = Mlir_lite.Lower.to_program lowered in
  let base = sim_one ~machine:m ~uncore:`Governor prog ~param_values:[] in
  pf "%-14s %9d %12s | %10.4g %10.4g %10.4g\n" "UFS baseline" 0 "-"
    base.Hwsim.Sim.time_s base.Hwsim.Sim.energy_j base.Hwsim.Sim.edp

let abl_objective () =
  section "ABLATION — search objective: EDP vs energy-only vs performance-only";
  let m = Hwsim.Machine.bdw in
  let k = rooflines m in
  List.iter
    (fun name ->
      let w = Workloads.find name in
      let c = compile_workload m w in
      pf "\n%s:\n" name;
      pf "%-14s %-8s %-12s %-12s %-12s\n" "objective" "cap" "est time" "est energy" "est EDP";
      List.iter
        (fun (label, obj) ->
          let s = Search.run ~objective:obj k c.Flow.profile in
          let e = s.Search.chosen in
          pf "%-14s %-8.1f %-12.4g %-12.4g %-12.4g\n" label s.Search.cap_ghz
            e.Perfmodel.time_s e.Perfmodel.energy_j e.Perfmodel.edp)
        Request.objectives)
    [ "gemm"; "mvt"; "conv2d-convnext" ]

let abl_counting () =
  section
    "ABLATION — counting backend: exact enumeration vs Ehrhart\n\
     interpolation (the barvinok substitute) on flop counts";
  List.iter
    (fun name ->
      let w = Workloads.find name in
      match w.Workloads.source with
      | Workloads.Lang src when List.length w.Workloads.sizes = 1 ->
        let prog = Polylang.parse src in
        let scop = Poly_ir.Scop.extract prog in
        let p, v = List.hd w.Workloads.sizes in
        let direct, t_direct =
          Telemetry.with_span_timed "bench.count_direct"
            ~args:[ ("kernel", name) ]
            (fun () -> Poly_ir.Scop.flop_count scop ~param_values:[ (p, v) ])
        in
        let sym_fit, t_sym =
          Telemetry.with_span_timed "bench.count_ehrhart"
            ~args:[ ("kernel", name) ]
            (fun () -> Poly_ir.Scop.flop_count_sym scop)
        in
        (match sym_fit with
        | Some qp ->
          let sym = Presburger.Count.eval qp v in
          pf "%-14s n=%-6d direct=%-12d ehrhart=%-12d %s  (%.2fs vs %.2fs fit)\n"
            name v direct sym
            (if direct = sym then "EXACT MATCH" else "** MISMATCH **")
            t_direct t_sym
        | None -> pf "%-14s ehrhart fit failed\n" name)
      | _ -> ())
    [ "gemm"; "2mm"; "mvt"; "trisolv"; "atax"; "durbin" ]

let abl_sampling () =
  section
    "ABLATION — counting backend: Bullseye-style LLC set sampling\n\
     (accuracy of extrapolated misses / OI vs exact enumeration, and the\n\
     PolyUFC-CM analysis time)";
  let m = Hwsim.Machine.bdw in
  List.iter
    (fun name ->
      let w = Workloads.find name in
      let prog = Workloads.tiled_program w in
      let pv = Workloads.param_values w in
      pf "\n%s:\n" name;
      pf "%-10s %12s %10s %10s\n" "sampling" "Miss_LLC" "OI" "time (s)";
      List.iter
        (fun srate ->
          let r, dt =
            Telemetry.with_span_timed "bench.cm_sampling"
              ~args:
                [ ("kernel", name); ("sampling", string_of_int srate) ]
              (fun () ->
                Cache_model.Model.analyze ~set_sampling:srate ~machine:m
                  ~apply_thread_heuristic:false prog ~param_values:pv)
          in
          pf "%-10d %12.0f %10.3f %10.2f\n" srate
            r.Cache_model.Model.miss_llc r.Cache_model.Model.oi dt)
        [ 1; 2; 4; 8; 16 ])
    [ "gemm"; "mvt"; "deriche" ]

let abl_dvfs () =
  section
    "ABLATION — inter-kernel uncore capping vs dynamic uncore frequency\n\
     scaling (Sec. VII-F: capping matches or beats intra-kernel DVFS with\n\
     a simpler, lower-overhead mechanism)";
  let m = Hwsim.Machine.bdw in
  pf "%-14s | %-28s %-28s\n" "" "gemm (CB)" "mvt (BB)";
  pf "%-14s | %9s %9s %8s %9s %9s %8s\n" "policy" "time(ms)" "energy(J)"
    "EDP" "time(ms)" "energy(J)" "EDP";
  let run_policy w policy =
    let c = compile_workload m w in
    let pv = Workloads.param_values w in
    match policy with
    | `Ufs -> sim_one ~machine:m ~uncore:`Governor c.Flow.optimized ~param_values:pv
    | `Fast_dvfs ->
      (* a DUF-like scaler with a 10x faster control loop *)
      sim_one ~machine:m ~uncore:`Governor ~governor_interval_us:10.0
        c.Flow.optimized ~param_values:pv
    | `Capping ->
      sim_one ~machine:m ~uncore:`Governor ~caps:c.Flow.caps
        c.Flow.optimized ~param_values:pv
  in
  let gemm = Workloads.find "gemm" and mvt = Workloads.find "mvt" in
  List.iter
    (fun (label, p) ->
      let a = run_policy gemm p and b = run_policy mvt p in
      pf "%-14s | %9.3f %9.4f %8.3g %9.3f %9.4f %8.3g\n" label
        (a.Hwsim.Sim.time_s *. 1e3) a.Hwsim.Sim.energy_j a.Hwsim.Sim.edp
        (b.Hwsim.Sim.time_s *. 1e3) b.Hwsim.Sim.energy_j b.Hwsim.Sim.edp)
    [ ("UFS default", `Ufs); ("fast DVFS", `Fast_dvfs); ("PolyUFC caps", `Capping) ]

let abl_core () =
  section
    "ABLATION — joint core+uncore frequency selection (the core-DVFS\n\
     extension of Sec. VII-F: CB keeps the core high and caps the uncore;\n\
     BB can lower the core too against the memory wall)";
  let m = Hwsim.Machine.bdw in
  List.iter
    (fun name ->
      let w = Workloads.find name in
      pf "\n%s:\n" name;
      let r =
        Core_scaling.search ~ctx:(Lazy.force store_ctx) ~machine:m
          (Workloads.tiled_program w)
          ~param_values:(Workloads.param_values w)
      in
      Format.printf "%a@." Core_scaling.pp r;
      let e = Core_scaling.evaluate_best r ~param_values:(Workloads.param_values w) in
      pf "best point vs UFS baseline on its machine: time %+.1f%% energy %+.1f%% EDP %+.1f%%\n"
        (100. *. e.Flow.time_gain) (100. *. e.Flow.energy_gain)
        (100. *. e.Flow.edp_gain))
    [ "gemm"; "mvt" ]

(* ------------------------------------------------------------------ *)
(* Ehrhart / closed-form counting bench                                *)
(* ------------------------------------------------------------------ *)

let bench_quick = ref false

(* --cache-max-bytes=SIZE: run the daemon experiments with a bounded
   result store and report whether it converged below the watermark *)
let bench_cache_max_bytes : int option ref = ref None

let ehrhart () =
  section
    "EHRHART — closed-form slice counting vs naive point enumeration\n\
     (Poly.count_points decoupled-suffix fast path behind Bset.card;\n\
     the counting backend of PolyUFC-CM)";
  let n_box, n_tri, n_tiled =
    if !bench_quick then (8, 24, 64) else (48, 1600, 1024)
  in
  let domains =
    [
      ( "box3",
        Printf.sprintf
          "{ [i,j,k] : 0 <= i < %d and 0 <= j < %d and 0 <= k < %d }" n_box
          n_box n_box );
      ( "triangular",
        Printf.sprintf "{ [i,j] : 0 <= i < %d and 0 <= j <= i }" n_tri );
      ( "tiled",
        Printf.sprintf
          "{ [ti,tj,i,j] : ti >= 0 and tj >= 0 and 32*ti <= i and \
           i < 32*ti + 32 and 32*tj <= j and j < 32*tj + 32 and \
           0 <= i < %d and 0 <= j < %d }"
          n_tiled n_tiled );
    ]
  in
  let reps = if !bench_quick then 1 else 3 in
  pf "%-12s %10s | %10s %10s %9s | %10s %8s\n" "domain" "|D|" "naive (s)"
    "fast (s)" "speedup" "scanned" "slices";
  List.iter
    (fun (name, src) ->
      let b = Presburger.Syntax.bset_of_string src in
      let naive_count = ref 0 and fast_count = ref 0 in
      let (), t_naive =
        Telemetry.with_span_timed "bench.ehrhart_naive"
          ~args:[ ("domain", name) ]
          (fun () ->
            for _ = 1 to reps do
              naive_count :=
                Presburger.Bset.fold_points b ~init:0 ~f:(fun n _ -> n + 1)
            done)
      in
      (* counter baselines taken after the naive runs: fold_points itself
         reports points_scanned, so the deltas below cover only the fast
         path (zero under --no-telemetry) *)
      let scanned0 = Telemetry.counter_value "presburger.points_scanned" in
      let slices0 = Telemetry.counter_value "presburger.slices_closed_form" in
      let (), t_fast =
        Telemetry.with_span_timed "bench.ehrhart_fast"
          ~args:[ ("domain", name) ]
          (fun () ->
            for _ = 1 to reps do
              (* clear the memo so every rep pays the real counting cost *)
              Presburger.Bset.clear_count_memo ();
              fast_count :=
                Presburger.Bset.cardinality
                  ~ctx:(Engine.Ctx.create ?pool:!the_pool ())
                  b
            done)
      in
      let scanned =
        Telemetry.counter_value "presburger.points_scanned" - scanned0
      in
      let slices =
        Telemetry.counter_value "presburger.slices_closed_form" - slices0
      in
      if !naive_count <> !fast_count then
        pf "** MISMATCH on %s: naive=%d fast=%d **\n" name !naive_count
          !fast_count;
      pf "%-12s %10d | %10.4f %10.4f %8.1fx | %10d %8d\n" name !fast_count
        t_naive t_fast
        (t_naive /. Float.max t_fast 1e-9)
        scanned slices)
    domains;
  pf "(fast = Bset.cardinality%s, memo cleared per rep; naive = full point\n\
     \ enumeration; scanned/slices are telemetry counter deltas over the\n\
     \ fast runs only)\n"
    (match !the_pool with
    | Some _ -> " on the worker pool"
    | None -> "")

(* Repeated parametric queries over coupled domains: the workload the
   chamber decomposition exists for.  Cold re-counts every parameter
   value from scratch (the PR 3 path: governed closed-form slice
   counting with all memos cleared); warm decomposes once and evaluates
   the per-chamber quasi-polynomial at each value through the public
   [Count.card_at] entry point (which also exercises the process-wide
   memo: every warm evaluation is a chamber-cache hit). *)
let ehrhart_param () =
  section
    "EHRHART-PARAM — chamber-decomposed parametric counting\n\
     (decompose once into validity chambers + quasi-polynomials,\n\
     then answer every parameter value in O(1); the symbolic\n\
     counting tier behind Scop.flop_count and analyze_approx)";
  let base = if !bench_quick then 300 else 900 in
  let tetra =
    Presburger.Syntax.bset_of_string
      "[n] -> { [i,j,k] : 0 <= i < n and 0 <= j < n - i and 0 <= k < n - i \
       - j }"
  in
  let band =
    Presburger.Syntax.bset_of_string
      "[n,m] -> { [i,j] : 0 <= i < n and 0 <= j < n and i - j <= m and j - \
       i <= m }"
  in
  let minbox =
    Presburger.Syntax.bset_of_string
      "[n,m] -> { [i,j] : 0 <= i < n and 0 <= i < m and 0 <= j < n }"
  in
  let values_1d = List.init 16 (fun k -> [| base + (7 * k) |]) in
  let values_2d =
    List.concat_map
      (fun kn ->
        List.map
          (fun km -> [| base + (11 * kn); (base / 3) + (29 * km) |])
          [ 0; 1; 2; 3 ])
      [ 0; 1; 2; 3 ]
  in
  let domains =
    [ ("tetra3", tetra, values_1d); ("band", band, values_2d);
      ("minbox", minbox, values_2d) ]
  in
  pf "%-8s %4s %9s | %10s %10s %10s %9s | %8s %8s\n" "domain" "vals" "|D|max"
    "cold (s)" "decomp (s)" "warm (s)" "speedup" "scanned" "chambers";
  let all_zero = ref true and n_domains = ref 0 in
  List.iter
    (fun (name, b, values) ->
      incr n_domains;
      let cold = ref [] in
      let (), t_cold =
        Telemetry.with_span_timed "bench.ehrhart_param_cold"
          ~args:[ ("domain", name) ]
          (fun () ->
            cold :=
              List.map
                (fun v ->
                  (* every value pays the full counting cost, as a loop
                     of independent analyses would *)
                  Presburger.Bset.clear_count_memo ();
                  Presburger.Bset.cardinality
                    ~ctx:(Engine.Ctx.create ?pool:!the_pool ())
                    (Presburger.Bset.fix_params b v))
                values)
      in
      Presburger.Chamber.clear_memo ();
      let ch = ref None in
      let (), t_dec =
        Telemetry.with_span_timed "bench.ehrhart_param_decompose"
          ~args:[ ("domain", name) ]
          (fun () -> ch := Presburger.Count.card_param b)
      in
      match !ch with
      | None -> pf "** %s: chamber decomposition declined **\n" name
      | Some ch ->
        (* the warm phase must enumerate nothing: counter delta below is
           the CI counting-perf assertion *)
        let scanned0 = Telemetry.counter_value "presburger.points_scanned" in
        let warm = ref [] in
        let (), t_warm =
          Telemetry.with_span_timed "bench.ehrhart_param_warm"
            ~args:[ ("domain", name) ]
            (fun () ->
              warm :=
                List.map (fun v -> Presburger.Count.card_at b v) values)
        in
        let scanned =
          Telemetry.counter_value "presburger.points_scanned" - scanned0
        in
        if scanned <> 0 then all_zero := false;
        List.iter2
          (fun v (c, w) ->
            if c <> w then
              pf "** MISMATCH on %s at %s: cold=%d warm=%d **\n" name
                (String.concat ","
                   (List.map string_of_int (Array.to_list v)))
                c w)
          values
          (List.combine !cold !warm);
        let dmax = List.fold_left max 0 !cold in
        pf "%-8s %4d %9d | %10.4f %10.4f %10.6f %8.1fx | %8d %8d\n" name
          (List.length values) dmax t_cold t_dec t_warm
          (t_cold /. Float.max (t_dec +. t_warm) 1e-9)
          scanned
          (Presburger.Chamber.n_chambers ch))
    domains;
  pf "warm points_scanned delta = %s over %d domains\n"
    (if !all_zero then "0" else "NONZERO")
    !n_domains;
  pf "(cold = Bset.cardinality per value, memos cleared; warm = \n\
     \ Count.card_at on the decomposition built once by Count.card_param;\n\
     \ speedup includes the one-off decomposition cost)\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks of the analysis components                *)
(* ------------------------------------------------------------------ *)

let micro () =
  section "MICRO — Bechamel benchmarks of the PolyUFC components";
  let open Bechamel in
  let parse_set () =
    ignore
      (Presburger.Syntax.pset_of_string
         "[n] -> { S[i,j] -> A[i + j] : 0 <= i < n and 0 <= j < n }")
  in
  let card () =
    ignore
      (Presburger.Pset.cardinality
         (Presburger.Pset.fix_params
            (Presburger.Syntax.pset_of_string
               "[n] -> { [i, j] : 0 <= i < n and 0 <= j <= i }")
            [| 40 |]))
  in
  let gemm_src = Workloads.find "gemm" in
  let small_prog =
    match gemm_src.Workloads.source with
    | Workloads.Lang s -> Polylang.parse s
    | _ -> assert false
  in
  let tile () = ignore (Poly_ir.Tiling.tile_program ~tile_size:8 small_prog) in
  let cm () =
    ignore
      (Cache_model.Model.analyze ~machine:Hwsim.Machine.bdw
         ~apply_thread_heuristic:false small_prog
         ~param_values:[ ("n", 24) ])
  in
  let search =
    let k = rooflines Hwsim.Machine.bdw in
    let c = compile_workload Hwsim.Machine.bdw gemm_src in
    fun () -> ignore (Search.run k c.Flow.profile)
  in
  let deps () =
    ignore
      (Poly_ir.Dependence.analyze (Poly_ir.Scop.extract small_prog)
         ~param_values:[ ("n", 8) ])
  in
  let tests =
    [
      Test.make ~name:"isl-syntax parse (map)" (Staged.stage parse_set);
      Test.make ~name:"pset cardinality (triangle 40)" (Staged.stage card);
      Test.make ~name:"pluto tiling (gemm)" (Staged.stage tile);
      Test.make ~name:"polyufc-cm (gemm n=24)" (Staged.stage cm);
      Test.make ~name:"dependence analysis (gemm n=8)" (Staged.stage deps);
      Test.make ~name:"polyufc-search" (Staged.stage search);
    ]
  in
  (* run with a small quota and report ns/run *)
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None () in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analysis =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false
                       ~predictors:[| Measure.run |])
          (Toolkit.Instance.monotonic_clock) results
      in
      Hashtbl.iter
        (fun name ols ->
          match Analyze.OLS.estimates ols with
          | Some [ est ] -> pf "%-36s %12.0f ns/run\n" name est
          | _ -> pf "%-36s (no estimate)\n" name)
        analysis)
    tests

(* ------------------------------------------------------------------ *)
(* Daemon: warm `polyufc serve` round-trips vs cold CLI processes      *)
(* ------------------------------------------------------------------ *)

(* The serve daemon's pitch is amortization: process startup, workload
   parsing and the warm result cache are paid for once, so a steady-state
   request costs one socket round-trip.  This experiment measures exactly
   that — the same analyze request, (a) as a fresh `polyufc analyze`
   process per rep, (b) as a request stream to one daemon — and reports
   p50/p99 of the warm latencies next to the cold wall times.  Both
   paths share one pre-populated result cache (steady state for both),
   so the delta is what serving amortizes: exec + runtime startup +
   flag parsing vs a framed request on a hot connection. *)

let find_polyufc () =
  match Sys.getenv_opt "POLYUFC_BIN" with
  | Some p when Sys.file_exists p -> Some p
  | Some p ->
    Printf.eprintf "bench: POLYUFC_BIN=%s does not exist\n%!" p;
    None
  | None ->
    (* bench runs as _build/default/bench/main.exe; the CLI lives next
       door at _build/default/bin/polyufc.exe *)
    let guess =
      Filename.concat
        (Filename.concat
           (Filename.dirname (Filename.dirname Sys.executable_name))
           "bin")
        "polyufc.exe"
    in
    if Sys.file_exists guess then Some guess else None

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | false -> ( try Sys.remove path with Sys_error _ -> ())
  | exception Sys_error _ -> ()

(* nearest-rank quantile over a sorted array; total for q in [0,1] *)
let quantile_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let i = int_of_float (Float.round (q *. float_of_int (n - 1))) in
    sorted.(max 0 (min (n - 1) i))

(* a per-process path under the temp dir, from a "%d" pattern *)
let tmp_path pattern =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf pattern (Unix.getpid ()))

(* a counter of a daemon's stats document (0 when absent) *)
let stats_counter stats name =
  match
    Option.bind (Telemetry.Json.member "counters" stats)
      (Telemetry.Json.member name)
  with
  | Some (Telemetry.Json.Int v) -> v
  | _ -> 0

(* drain a bench daemon and wait for it to unlink its socket, which it
   does last: don't leak /tmp *)
let stop_daemon client socket =
  ignore
    (Serve.Client.request client ~op:Serve.Protocol.Shutdown
       ~params:(Telemetry.Json.Obj []) ());
  Serve.Client.close client;
  let rec await_exit tries =
    if Sys.file_exists socket && tries > 0 then begin
      Unix.sleepf 0.05;
      await_exit (tries - 1)
    end
  in
  await_exit 100

let daemon () =
  section
    "DAEMON — analysis-as-a-service: warm `polyufc serve` round-trips vs\n\
     cold CLI processes (identical analyze request on both paths)";
  match find_polyufc () with
  | None ->
    pf "skipped: polyufc binary not found (set POLYUFC_BIN or run from the\n\
       \ dune build tree)\n"
  | Some exe ->
    let module J = Telemetry.Json in
    let n = if !bench_quick then 16 else 32 in
    let cold_reps = if !bench_quick then 2 else 5 in
    let warm_reps = if !bench_quick then 8 else 40 in
    let cache_dir = tmp_path "polyufc-bench-cache-%d" in
    pf "binary: %s\nrequest: analyze gemm n=%d (shared warm cache on both paths)\n"
      exe n;
    (* --- cold path: one process per request ------------------------- *)
    let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let run_cold () =
      let t0 = Unix.gettimeofday () in
      let pid =
        Unix.create_process exe
          [|
            exe; "analyze"; "-w"; "gemm"; "-s"; Printf.sprintf "n=%d" n;
            "--json"; "--cache-dir"; cache_dir;
          |]
          dev_null dev_null dev_null
      in
      let _, status = Unix.waitpid [] pid in
      let dt = Unix.gettimeofday () -. t0 in
      (match status with
      | Unix.WEXITED 0 -> ()
      | _ -> pf "** cold CLI rep failed **\n");
      dt
    in
    (* populate the cache once, untimed: every measured rep on either
       path then runs at steady state (cache hit) *)
    ignore (run_cold ());
    let cold = Array.init cold_reps (fun _ -> run_cold ()) in
    Unix.close dev_null;
    Array.iter (fun dt -> Telemetry.observe "bench.cold_cli_s" dt) cold;
    Array.sort compare cold;
    (* --- warm path: one daemon, a stream of requests ---------------- *)
    let socket = tmp_path "polyufc-bench-%d.sock" in
    (match
       Serve.Client.spawn_and_connect
         ~spawn_args:[ "--cache-dir"; cache_dir; "--workers"; "2" ]
         ~exe ~socket ()
     with
    | Error msg -> pf "warm path skipped: %s\n" msg
    | Ok client ->
      let request =
        Request.make
          (Analyze { program = Workload "gemm"; sizes = [ ("n", n) ] })
      in
      let one () =
        let t0 = Unix.gettimeofday () in
        match Serve.Client.submit client request with
        | Ok _ -> Some (Unix.gettimeofday () -. t0)
        | Error e ->
          pf "** warm rep failed: %s **\n" e.Serve.Protocol.message;
          None
      in
      (* one untimed warm-up request pays the daemon's first-touch costs
         (workload parse, count-memo population) exactly once *)
      ignore (one ());
      let warm =
        Array.of_list
          (List.filter_map
             (fun _ -> one ())
             (List.init warm_reps Fun.id))
      in
      Array.iter (fun dt -> Telemetry.observe "bench.daemon_request_s" dt) warm;
      Array.sort compare warm;
      (* daemon-side view of the same stream *)
      (match
         Serve.Client.request client ~op:Serve.Protocol.Stats
           ~params:(J.Obj []) ()
       with
      | Ok stats ->
        let counter = stats_counter stats in
        pf "daemon counters: %d requests, %d responses, %d rejected\n"
          (counter "serve.requests") (counter "serve.responses")
          (counter "serve.rejected")
      | Error e -> pf "(stats request failed: %s)\n" e.Serve.Protocol.message);
      stop_daemon client socket;
      let ms x = x *. 1e3 in
      let q a p = ms (quantile_sorted a p) in
      pf "\n%-22s %6s %10s %10s %10s\n" "path" "reps" "min (ms)" "p50 (ms)"
        "p99 (ms)";
      pf "%-22s %6d %10.1f %10.1f %10.1f\n" "cold CLI process"
        (Array.length cold) (q cold 0.0) (q cold 0.5) (q cold 0.99);
      pf "%-22s %6d %10.2f %10.2f %10.2f\n" "warm daemon request"
        (Array.length warm) (q warm 0.0) (q warm 0.5) (q warm 0.99);
      if Array.length warm > 0 && Array.length cold > 0 then
        pf "warm p50 speedup vs cold p50: %.1fx\n"
          (quantile_sorted cold 0.5 /. Float.max (quantile_sorted warm 0.5) 1e-9));
    rm_rf cache_dir

(* ------------------------------------------------------------------ *)
(* Fleet traffic replay                                                *)
(* ------------------------------------------------------------------ *)

(* Streams a randomized fleet workload — mostly single-kernel analyze
   requests with a slice of multi-tenant analyze_multi and a trickle of
   pings — through a live daemon, and reports client-observed p50/p99
   latency plus the total simulated energy of the co-scheduled runs.
   The scatter rows the daemon returns are written as CSV and re-parsed
   through the exporter's own parser (round-trip check). *)
let traffic_replay () =
  section
    "TRAFFIC REPLAY — randomized fleet request stream against a live\n\
     daemon: ~80% analyze / ~15% analyze-multi / ~5% ping; p50/p99\n\
     latency and total simulated energy";
  match find_polyufc () with
  | None ->
    pf "skipped: polyufc binary not found (set POLYUFC_BIN or run from the\n\
       \ dune build tree)\n"
  | Some exe ->
    let module J = Telemetry.Json in
    let total = if !bench_quick then 1000 else 2000 in
    let cache_dir = tmp_path "polyufc-replay-cache-%d" in
    let socket = tmp_path "polyufc-replay-%d.sock" in
    let spawn_args =
      [ "--cache-dir"; cache_dir; "--workers"; "2" ]
      @
      match !bench_cache_max_bytes with
      | Some n -> [ "--cache-max-bytes"; string_of_int n ]
      | None -> []
    in
    (match Serve.Client.spawn_and_connect ~spawn_args ~exe ~socket () with
    | Error msg -> pf "skipped: %s\n" msg
    | Ok client ->
      (* fixed seed: the same request tape on every run *)
      let rng = Random.State.make [| 0x7a21c3; total |] in
      (* small parameter sets so the tape exercises both cache hits and
         misses without any single request dominating the tail *)
      let analyze_pool =
        [|
          ("gemm", 32); ("gemm", 48); ("mvt", 200); ("mvt", 256);
          ("atax", 200); ("bicg", 200); ("gesummv", 200); ("trisolv", 200);
        |]
      in
      let multi_pool =
        [| ("gemm", 24); ("mvt", 96); ("gesummv", 96); ("trisolv", 96) |]
      in
      let job (name, n) =
        { Request.program = Workload name; sizes = [ ("n", n) ] }
      in
      let analyze_request () =
        let pick = Random.State.int rng (Array.length analyze_pool) in
        Request.make (Analyze (job analyze_pool.(pick)))
      in
      let multi_request () =
        let k = 2 + Random.State.int rng 2 in
        let tenants =
          List.init k (fun _ ->
              let name, n =
                multi_pool.(Random.State.int rng (Array.length multi_pool))
              in
              let weight = 1.0 +. float_of_int (Random.State.int rng 3) in
              { Request.name; job = job (name, n); weight; cores = 0 })
        in
        Request.make (Analyze_multi { tenants; solo = false })
      in
      let lat_all = ref [] and lat_multi = ref [] in
      let sent = ref 0
      and failed = ref 0
      and energy_j = ref 0.0
      and scatter = ref [] in
      let issue () =
        let dice = Random.State.float rng 1.0 in
        let request =
          if dice < 0.05 then None
          else if dice < 0.20 then Some (multi_request ())
          else Some (analyze_request ())
        in
        let t0 = Unix.gettimeofday () in
        let result =
          match request with
          | None ->
            Serve.Client.request client ~op:Serve.Protocol.Ping
              ~params:(J.Obj []) ()
          | Some r -> Serve.Client.submit client r
        in
        let dt = Unix.gettimeofday () -. t0 in
        incr sent;
        Telemetry.observe "bench.replay_request_s" dt;
        lat_all := dt :: !lat_all;
        match result with
        | Error e ->
          incr failed;
          pf "** request %d (%s) failed: %s **\n" !sent
            (match request with Some r -> Request.op_name r.op | None -> "ping")
            e.Serve.Protocol.message
        | Ok doc -> (
          match request with
          | Some { op = Analyze_multi _; _ } ->
            lat_multi := dt :: !lat_multi;
            (match
               Option.bind (J.member "sim" doc) (fun s ->
                   Option.bind (J.member "combined" s) (fun c ->
                       Option.bind (J.member "energy_j" c) J.number))
             with
            | Some e -> energy_j := !energy_j +. e
            | None -> ());
            (match
               Option.map Report.scatter_of_json (J.member "scatter" doc)
             with
            | Some (Ok rows) -> scatter := List.rev_append rows !scatter
            | _ -> ())
          | _ -> ())
      in
      (* one untimed warm-up pays the daemon's first-touch costs once *)
      ignore (Serve.Client.submit client (analyze_request ()));
      for _ = 1 to total do
        issue ()
      done;
      let sorted l =
        let a = Array.of_list l in
        Array.sort compare a;
        a
      in
      let all = sorted !lat_all and multi = sorted !lat_multi in
      let q a p = quantile_sorted a p *. 1e3 in
      pf "\n%-24s %8s %10s %10s %10s\n" "request class" "count" "min (ms)"
        "p50 (ms)" "p99 (ms)";
      pf "%-24s %8d %10.2f %10.2f %10.2f\n" "all requests"
        (Array.length all) (q all 0.0) (q all 0.5) (q all 0.99);
      if Array.length multi > 0 then
        pf "%-24s %8d %10.2f %10.2f %10.2f\n" "analyze-multi"
          (Array.length multi) (q multi 0.0) (q multi 0.5) (q multi 0.99);
      pf "requests: %d sent, %d failed\n" !sent !failed;
      pf "total simulated energy (analyze-multi fleets): %.4f J\n" !energy_j;
      (* feed the replay summary into the bench report's meta *)
      Telemetry.set_meta "replay"
        (J.Obj
           [
             ("requests", J.Int !sent);
             ("failed", J.Int !failed);
             ("p50_ms", J.Float (q all 0.5));
             ("p99_ms", J.Float (q all 0.99));
             ("simulated_energy_j", J.Float !energy_j);
           ]);
      (* scatter CSV + round-trip through the exporter's own parser *)
      let rows = List.rev !scatter in
      let csv_path = "replay_scatter.csv" in
      (try
         Out_channel.with_open_bin csv_path (fun oc ->
             Out_channel.output_string oc (Report.csv_of_scatter rows));
         match Report.scatter_of_csv (Report.csv_of_scatter rows) with
         | Ok parsed when List.length parsed = List.length rows ->
           pf "scatter round-trip OK (%d rows, written to %s)\n"
             (List.length rows) csv_path
         | Ok parsed ->
           pf "scatter round-trip MISMATCH (%d rows in, %d out)\n"
             (List.length rows) (List.length parsed)
         | Error msg -> pf "scatter round-trip FAILED: %s\n" msg
       with Sys_error msg -> pf "cannot write %s: %s\n" csv_path msg);
      (* daemon-side view, for the CI assertions *)
      (match
         Serve.Client.request client ~version:2 ~op:Serve.Protocol.Stats
           ~params:(J.Obj []) ()
       with
      | Ok stats ->
        let counter = stats_counter stats in
        pf
          "daemon counters: serve.requests=%d serve.responses=%d \
           hwsim.tenants_interleaved=%d hwsim.arbitrations=%d\n"
          (counter "serve.requests") (counter "serve.responses")
          (counter "hwsim.tenants_interleaved")
          (counter "hwsim.arbitrations")
      | Error e -> pf "(stats request failed: %s)\n" e.Serve.Protocol.message);
      stop_daemon client socket;
      (* with a watermark set, the store left behind by the daemon (its
         drain runs a final GC) must have converged below it *)
      match !bench_cache_max_bytes with
      | None -> ()
      | Some watermark ->
        let store = Engine.Rcache.create ~dir:cache_dir () in
        let s = Engine.Rcache.stats store in
        let k = Engine.Rcache.cumulative store in
        pf
          "store convergence: live_bytes=%d watermark=%d entries=%d \
           evictions=%d gc_runs=%d %s\n"
          s.Engine.Rcache.bytes watermark s.Engine.Rcache.entries
          k.Engine.Rcache.evictions k.Engine.Rcache.gc_runs
          (if s.Engine.Rcache.bytes <= watermark then "CONVERGED"
           else "OVER-WATERMARK"));
    rm_rf cache_dir

(* ------------------------------------------------------------------ *)

let all_experiments =
  [
    ("tab2", tab2);
    ("tab3", tab3);
    ("fig1", fig1);
    ("fig5", fig5);
    ("fig6", fig6);
    ("fig7", fig7);
    ("fig8", fig8);
    ("tab4", tab4);
    ("abl-eps", abl_eps);
    ("abl-granularity", abl_granularity);
    ("abl-objective", abl_objective);
    ("abl-counting", abl_counting);
    ("abl-sampling", abl_sampling);
    ("abl-dvfs", abl_dvfs);
    ("abl-core", abl_core);
    ("ehrhart", ehrhart);
    ("ehrhart-param", ehrhart_param);
    ("micro", micro);
    ("daemon", daemon);
    ("traffic-replay", traffic_replay);
  ]

(* Experiments cheap enough for CI smoke and the regression gate: the
   frequency-sweep figures (fig1/6/7/8) and tab4 each cost minutes of
   hwsim time, so `--quick` with no explicit experiment list runs this
   curated subset (~30-60 s total) instead of everything. *)
let quick_experiments =
  [
    "tab2"; "tab3"; "fig5"; "abl-eps"; "abl-counting"; "ehrhart";
    "ehrhart-param"; "micro";
  ]

(* Per-phase / per-counter JSON report for BENCH_*.json trajectory
   tracking: experiment wall times, telemetry counters, histograms and the
   span rollup, all through the telemetry JSON emitter. *)
let write_report path experiment_times =
  let module J = Telemetry.Json in
  let report =
    J.Obj
      [
        ("schema", J.Str "polyufc-bench-report/v2");
        ("meta", Telemetry.run_meta ());
        ( "experiments",
          J.Obj
            (List.map
               (fun (name, dt) -> (name, J.Float dt))
               (List.rev experiment_times)) );
        (* resource-governance summary: a report produced entirely from
           exact analyses has degraded_events = 0 and fidelity "exact" *)
        ( "governance",
          let degraded = Engine.Fidelity.degraded_count () in
          let counts = Engine.Rcache.counts () in
          J.Obj
            [
              ( "fidelity",
                J.Str
                  (Engine.Fidelity.to_string
                     (if degraded > 0 then Engine.Fidelity.Degraded
                      else Engine.Fidelity.Exact)) );
              ("degraded_events", J.Int degraded);
              ("cache_quarantined", J.Int counts.Engine.Rcache.quarantined);
            ] );
        ("telemetry", Telemetry.stats_json ());
      ]
  in
  (* atomic write: a crash (or an injected io.report_write fault) mid-way
     never leaves a truncated bench_report.json for trajectory tooling to
     choke on — either the old report survives or the new one is complete *)
  match
    Engine.Io.write_atomic ~fault:Engine.Faultsim.Io_report_write path
      (J.to_string report)
  with
  | () -> pf "[report written to %s]\n" path
  | exception (Sys_error _ | Unix.Unix_error _ | Engine.Faultsim.Injected _) ->
    pf "[warning: report not written to %s]\n" path

(* ------------------------------------------------------------------ *)
(* Regression gate                                                     *)
(* ------------------------------------------------------------------ *)

(* Compare this run's per-experiment wall times against a stored
   baseline.  Per-experiment ratio = (cur + slack) / (base + slack) — the
   slack keeps sub-10ms experiments from dominating on timer noise — and
   the run regresses when the geomean ratio exceeds the tolerance, or any
   single experiment exceeds twice the tolerance.  The default tolerance
   (5x) is deliberately loose: the gate is meant to catch accidental
   complexity blowups (a 10x+ slowdown), not machine-speed differences
   between the baseline host and CI. *)

let gate_slack_s = 0.01
let gate_default_tolerance = 5.0

let check_baseline path experiment_times tolerance_override =
  let module J = Telemetry.Json in
  let fail_unreadable msg =
    Printf.eprintf "bench: cannot use baseline %s: %s\n%!" path msg;
    exit 2
  in
  let doc =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error msg -> fail_unreadable msg
    | text -> (
      match J.of_string text with
      | Ok doc -> doc
      | Error msg -> fail_unreadable ("bad JSON: " ^ msg))
  in
  let base_times =
    match J.member "experiments" doc with
    | Some (J.Obj kvs) ->
      List.filter_map
        (fun (name, v) -> Option.map (fun t -> (name, t)) (J.number v))
        kvs
    | _ -> fail_unreadable "missing \"experiments\" object"
  in
  let tolerance =
    match tolerance_override with
    | Some t -> t
    | None -> (
      match Option.bind (J.member "tolerance" doc) J.number with
      | Some t when t > 1.0 -> t
      | _ -> gate_default_tolerance)
  in
  let compared =
    List.filter_map
      (fun (name, base_t) ->
        match List.assoc_opt name experiment_times with
        | Some cur_t ->
          Some
            (name, base_t, cur_t,
             (cur_t +. gate_slack_s) /. (base_t +. gate_slack_s))
        | None -> None)
      base_times
  in
  if compared = [] then begin
    Printf.eprintf
      "bench: baseline %s shares no experiments with this run\n%!" path;
    exit 2
  end;
  pf "\n[regression gate vs %s, tolerance %.1fx]\n" path tolerance;
  pf "%-18s %12s %12s %8s\n" "experiment" "baseline (s)" "current (s)" "ratio";
  let worst = ref ("", 0.0) in
  List.iter
    (fun (name, base_t, cur_t, ratio) ->
      if ratio > snd !worst then worst := (name, ratio);
      pf "%-18s %12.3f %12.3f %7.2fx%s\n" name base_t cur_t ratio
        (if ratio > 2.0 *. tolerance then "  ** REGRESSION **" else ""))
    compared;
  let gm = geomean (List.map (fun (_, _, _, r) -> r) compared) in
  let single_fail = snd !worst > 2.0 *. tolerance in
  let geomean_fail = gm > tolerance in
  pf "geomean ratio: %.2fx (limit %.1fx); worst: %s at %.2fx (limit %.1fx)\n"
    gm tolerance (fst !worst) (snd !worst) (2.0 *. tolerance);
  if geomean_fail || single_fail then begin
    Printf.eprintf
      "bench: PERFORMANCE REGRESSION vs %s (%s)\n%!" path
      (if geomean_fail then
         Printf.sprintf "geomean %.2fx > %.1fx" gm tolerance
       else
         Printf.sprintf "%s %.2fx > %.1fx" (fst !worst) (snd !worst)
           (2.0 *. tolerance));
    exit 1
  end
  else pf "[regression gate passed]\n"

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let report_path = ref "bench_report.json" in
  let report_requested = ref false in
  let telemetry_on = ref true in
  let jobs = ref 1 in
  let baseline = ref None in
  let tolerance = ref None in
  let want_daemon = ref false in
  let requested =
    List.filter
      (fun a ->
        if a = "--no-telemetry" then begin
          telemetry_on := false;
          false
        end
        else if a = "--quick" then begin
          bench_quick := true;
          false
        end
        else if a = "--daemon" then begin
          want_daemon := true;
          false
        end
        else if
          String.length a > 18 && String.sub a 0 18 = "--cache-max-bytes="
        then begin
          (match
             Engine.Rcache.parse_size (String.sub a 18 (String.length a - 18))
           with
          | Some n -> bench_cache_max_bytes := Some n
          | None -> pf "bad --cache-max-bytes value %S (want N[k|M|G])\n" a);
          false
        end
        else if String.length a > 9 && String.sub a 0 9 = "--report=" then begin
          report_path := String.sub a 9 (String.length a - 9);
          report_requested := true;
          false
        end
        else if String.length a > 11 && String.sub a 0 11 = "--baseline="
        then begin
          baseline := Some (String.sub a 11 (String.length a - 11));
          false
        end
        else if String.length a > 12 && String.sub a 0 12 = "--tolerance="
        then begin
          (match
             float_of_string_opt (String.sub a 12 (String.length a - 12))
           with
          | Some t when t > 1.0 -> tolerance := Some t
          | _ -> pf "bad --tolerance value %S (want a ratio > 1)\n" a);
          false
        end
        else if String.length a > 7 && String.sub a 0 7 = "--jobs=" then begin
          (match int_of_string_opt (String.sub a 7 (String.length a - 7)) with
          | Some n when n >= 1 -> jobs := n
          | Some 0 -> jobs := Engine.Pool.default_jobs ()
          | _ -> pf "bad --jobs value %S (want an integer >= 0)\n" a);
          false
        end
        else true)
      args
  in
  if !jobs > 1 then the_pool := Some (Engine.Pool.create ~jobs:!jobs ());
  Telemetry.set_meta "jobs" (Telemetry.Json.Int !jobs);
  let requested =
    (* `daemon` needs the polyufc binary on disk and a writable /tmp, so
       the default sweep leaves it out; --daemon (or naming it) opts in *)
    match requested with
    | [] when !bench_quick -> quick_experiments
    | [] ->
      List.filter
        (fun n -> n <> "daemon" && n <> "traffic-replay")
        (List.map fst all_experiments)
    | names -> names
  in
  let requested =
    if !want_daemon && not (List.mem "daemon" requested) then
      requested @ [ "daemon" ]
    else requested
  in
  if !telemetry_on then begin
    Telemetry.reset ();
    Telemetry.enable ()
  end;
  let experiment_times = ref [] in
  let (), total_s =
    Telemetry.with_span_timed "bench.total" (fun () ->
        List.iter
          (fun name ->
            match List.assoc_opt name all_experiments with
            | Some f ->
              let (), dt =
                Telemetry.with_span_timed ("exp." ^ name) f
              in
              experiment_times := (name, dt) :: !experiment_times
            | None ->
              pf "unknown experiment %S; available: %s\n" name
                (String.concat " " (List.map fst all_experiments)))
          requested)
  in
  (match !the_pool with
  | Some pool ->
    Engine.Pool.shutdown pool;
    the_pool := None
  | None -> ());
  pf "\n[bench completed in %.1f s (jobs=%d)]\n" total_s !jobs;
  (* an explicit --report= is honored even under --no-telemetry (the
     wall times are measured either way; only counters will be empty) *)
  if !telemetry_on || !report_requested then
    write_report !report_path !experiment_times;
  match !baseline with
  | Some path -> check_baseline path (List.rev !experiment_times) !tolerance
  | None -> ()
