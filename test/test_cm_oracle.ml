(* PolyUFC-CM against its test-only oracle ({!Cm_oracle}): the flat
   per-access core of [Model.analyze] must reproduce the replaced
   Hashtbl/Lru classifier field for field — on every bundled workload at
   reduced sizes, on random affine loop nests, and on accesses that fall
   outside the program's layout. *)

open Cache_model

(* every field but [machine], which both sides take from the caller *)
let diff (a : Model.result) (b : Model.result) =
  let fields =
    [
      ("mode", a.Model.mode = b.Model.mode);
      ("levels", a.Model.levels = b.Model.levels);
      ("per_stmt", a.Model.per_stmt = b.Model.per_stmt);
      ("threads_divisor", a.Model.threads_divisor = b.Model.threads_divisor);
      ("miss_llc", a.Model.miss_llc = b.Model.miss_llc);
      ("q_dram_bytes", a.Model.q_dram_bytes = b.Model.q_dram_bytes);
      ("flops", a.Model.flops = b.Model.flops);
      ("oi", a.Model.oi = b.Model.oi);
      ("hit_ratios", a.Model.hit_ratios = b.Model.hit_ratios);
      ("miss_ratios", a.Model.miss_ratios = b.Model.miss_ratios);
      ("fidelity", a.Model.fidelity = b.Model.fidelity);
    ]
  in
  List.filter_map (fun (f, same) -> if same then None else Some f) fields

(* run both sides; an exception is an outcome too *)
let outcome f =
  match f () with
  | r -> Ok r
  | exception (Invalid_argument _ as e) -> Error (Printexc.to_string e)

let compare_models ?mode ?set_sampling ~machine prog ~param_values =
  let fast =
    outcome (fun () ->
        Model.analyze ?mode ?set_sampling ~machine prog ~param_values)
  in
  let oracle =
    outcome (fun () ->
        Cm_oracle.analyze ?mode ?set_sampling ~machine prog ~param_values)
  in
  match (fast, oracle) with
  | Ok a, Ok b -> (
    match diff a b with [] -> None | fs -> Some (String.concat "," fs))
  | Error a, Error b when String.equal a b -> None
  | Ok _, Error e -> Some ("only the oracle raised " ^ e)
  | Error e, Ok _ -> Some ("only the model raised " ^ e)
  | Error a, Error b -> Some (Printf.sprintf "raised %s, oracle %s" a b)

let modes = [ ("sa", Model.Set_associative); ("fa", Model.Fully_associative) ]

(* ---------- the 29 bundled workloads at reduced sizes ---------- *)

let reduce_size (p, v) =
  (p, match p with "tsteps" -> min v 3 | _ -> max 8 (v / 6))

let reduce_torch_op = function
  | Mlir_lite.Dialect.T_conv2d c ->
    Mlir_lite.Dialect.T_conv2d
      {
        c with
        c = max 1 (c.c / 8);
        k = max 1 (c.k / 4);
        h = max c.r (c.h / 2);
        w = max c.s (c.w / 2);
      }
  | Mlir_lite.Dialect.T_sdpa a ->
    Mlir_lite.Dialect.T_sdpa
      {
        a with
        heads = max 1 (a.heads / 4);
        seq = max 4 (a.seq / 4);
        dim = max 4 (a.dim / 4);
      }
  | Mlir_lite.Dialect.T_matmul mm ->
    Mlir_lite.Dialect.T_matmul { mm with k = max 4 (mm.k / 4); n = max 4 (mm.n / 32) }
  | op -> op

let reduced ?(tile = true) (w : Workloads.t) =
  match w.Workloads.source with
  | Workloads.Lang _ ->
    ( (if tile then Workloads.tiled_program w else Workloads.program w),
      List.map reduce_size (Workloads.param_values w) )
  | Workloads.Torch builder ->
    let m = builder () in
    let ops =
      List.map
        (function
          | Mlir_lite.Dialect.Torch_op (name, op) ->
            Mlir_lite.Dialect.Torch_op (name, reduce_torch_op op)
          | op -> op)
        m.Mlir_lite.Dialect.ops
    in
    let lowered =
      Mlir_lite.Lower.run_pipeline
        (Mlir_lite.Lower.default_pipeline ~tile ())
        { m with Mlir_lite.Dialect.ops }
    in
    (fst (Mlir_lite.Lower.to_program lowered), [])

let test_workloads () =
  List.iter
    (fun (w : Workloads.t) ->
      let prog, param_values = reduced w in
      List.iter
        (fun (machine : Hwsim.Machine.t) ->
          List.iter
            (fun (mname, mode) ->
              List.iter
                (fun set_sampling ->
                  match
                    compare_models ~mode ~set_sampling ~machine prog
                      ~param_values
                  with
                  | None -> ()
                  | Some d ->
                    Alcotest.failf "%s on %s (%s, sampling %d): %s"
                      w.Workloads.name machine.Hwsim.Machine.name mname
                      set_sampling d)
                [ 1; 4 ])
            modes)
        [ Hwsim.Machine.bdw; Hwsim.Machine.rpl ])
    Workloads.all

(* ---------- accesses outside the layout ---------- *)

(* L1 = 512 B, 2-way (4 sets); LLC = 2048 B, 4-way (8 sets) *)
let tiny = Test_cache_model.tiny

(* A is laid out first (base 0): A[i - 40] reaches 320 bytes below it *)
let below_src =
  {|
program below(n) {
  arrays { A[n] : f64; B[n] : f64; }
  for (i = 0; i < n; i++) {
    B[i] = A[i - 40] + 1.0;
  }
}
|}

(* B[i + 3n] runs three arrays' worth past the end of the layout *)
let beyond_src =
  {|
program beyond(n) {
  arrays { A[n] : f64; B[n] : f64; }
  for (i = 0; i < n; i++) {
    A[i] = A[i] + B[i + 3 * n];
  }
}
|}

let test_out_of_layout () =
  let below = Polylang.parse below_src and beyond = Polylang.parse beyond_src in
  let pv = [ ("n", 64) ] in
  List.iter
    (fun machine ->
      (* negative set index: set-associative mode raises, as before *)
      (match Model.analyze ~machine below ~param_values:pv with
      | _ -> Alcotest.fail "a negative set index must raise"
      | exception Invalid_argument _ -> ());
      List.iter
        (fun (mname, mode) ->
          List.iter
            (fun (pname, prog) ->
              match compare_models ~mode ~machine prog ~param_values:pv with
              | None -> ()
              | Some d -> Alcotest.failf "%s (%s): %s" pname mname d)
            [ ("below", below); ("beyond", beyond) ])
        modes;
      (* fully-associative mode counts the lines below the layout *)
      let fa = Model.analyze ~mode:Model.Fully_associative ~machine below ~param_values:pv in
      Alcotest.(check bool) "below-layout lines counted cold" true
        (fa.Model.levels.(0).Model.cold > 0);
      (* and both modes count the lines past its end *)
      let sa = Model.analyze ~machine beyond ~param_values:pv in
      Alcotest.(check int) "past-the-end lines are cold once"
        (2 * 8 (* A and the far B window: 64 f64 = 8 lines each *))
        sa.Model.levels.(0).Model.cold)
    [ tiny; Hwsim.Machine.bdw ]

(* A[i - 1] with A laid out first: byte -8, less than one line below *)
let below_by_one_src =
  {|
program below1(n) {
  arrays { A[n] : f64; B[n] : f64; }
  for (i = 0; i < n; i++) {
    B[i] = A[i - 1] + 1.0;
  }
}
|}

let test_below_by_less_than_a_line () =
  let prog = Polylang.parse below_by_one_src in
  let pv = [ ("n", 64) ] in
  List.iter
    (fun machine ->
      (match Model.analyze ~machine prog ~param_values:pv with
      | _ -> Alcotest.fail "byte -8 must be rejected like byte -64"
      | exception Invalid_argument m ->
        Alcotest.(check string) "bare bounds error" "index out of bounds" m);
      (match Model.analyze_gov ~machine prog ~param_values:pv with
      | _ -> Alcotest.fail "analyze_gov must reject byte -8"
      | exception Invalid_argument m ->
        Alcotest.(check string) "named access"
          "statement S0 reads array A at byte address -8, below the layout \
           (an index out of the array's bounds)"
          m);
      (* fully-associative mode still counts it *)
      ignore
        (Model.analyze ~mode:Model.Fully_associative ~machine prog
           ~param_values:pv))
    [ tiny; Hwsim.Machine.bdw ];
  (* no bundled workload addresses below its layout *)
  List.iter
    (fun (w : Workloads.t) ->
      let prog, param_values = reduced w in
      let s = Poly_ir.Trace.scan prog ~param_values ~on_chunk:(fun _ _ -> ()) in
      Alcotest.(check bool) (w.Workloads.name ^ " within its layout") false
        s.Poly_ir.Trace.below_layout)
    Workloads.all

(* ---------- high-locality programs: the L1 MRU fast path ---------- *)

let with_caches (m : Hwsim.Machine.t) name caches = { m with Hwsim.Machine.name; caches }

let l1_of (m : Hwsim.Machine.t) = List.hd m.Hwsim.Machine.caches

(* machines on which [Model.analyze]'s fast path is off: a
   non-power-of-two L1 set count (3 sets), a one-level hierarchy, whose
   one level is the one set sampling thins, and 48-byte lines (the one
   that would make the path wrong); [tiny3] has it on with a third level
   below the write-through chain *)
let odd_sets =
  with_caches tiny "ODD"
    ({ (l1_of tiny) with Hwsim.Machine.size_bytes = 3 * 2 * 64 } :: List.tl tiny.Hwsim.Machine.caches)

let one_level = with_caches tiny "ONE" [ l1_of tiny ]

let line48 =
  with_caches tiny "LINE48"
    (List.map
       (fun (g : Hwsim.Machine.cache_geometry) ->
         { g with Hwsim.Machine.line_bytes = 48; size_bytes = g.Hwsim.Machine.size_bytes / 64 * 48 })
       tiny.Hwsim.Machine.caches)

let tiny3 =
  with_caches tiny "TINY3"
    (tiny.Hwsim.Machine.caches
    @ [ { (l1_of tiny) with Hwsim.Machine.level_name = "L3"; size_bytes = 8192; assoc = 8 } ])

(* Each program repeats lines: same-line runs at strides 4/8/16 (f32,
   f64, every other f64) with a write to the line just read; a
   read-modify-write sweep whose lines a second sweep evicts; reads and
   writes alternating on two lines [d] elements apart, one L1 set apart
   when [d * 8] is the L1's sets × line; and the below-layout programs,
   less than a line and 40 elements below.  Sizes are (n, d). *)
let local_programs =
  [
    ( "same-line runs",
      {|
program runs(n) {
  arrays { A[n] : f32; B[n] : f64; C[2 * n] : f64; }
  for (i = 0; i < n; i++) {
    A[i] = A[i] + B[i] + C[2 * i];
    B[i] = B[i] * 2.0;
  }
}
|},
      [ (40, 0); (300, 0) ] );
    ( "write after read, then evicted",
      {|
program rmw(n, d) {
  arrays { x[n] : f64; y[d] : f64; s[1] : f64; }
  for (t = 0; t < 3; t++) {
    for (i = 0; i < n; i++) {
      x[i] = x[i] * 2.0;
    }
    for (j = 0; j < d; j++) {
      s[0] = s[0] + y[j];
    }
  }
}
|},
      [ (16, 64); (64, 600); (512, 4096) ] );
    ( "alternating on two lines of one set",
      {|
program pingpong(n, d) {
  arrays { A[n + d] : f64; }
  for (i = 0; i < n; i++) {
    A[i] = A[i + d] + 1.0;
    A[i + d] = A[i] * 2.0;
  }
}
|},
      [ (24, 32); (24, 48); (40, 256); (40, 384) ] );
    ("below by less than a line", below_by_one_src, [ (64, 0) ]);
    ("below by 40 elements", below_src, [ (64, 0) ]);
  ]

let test_local_programs () =
  let machines =
    [ (Hwsim.Machine.bdw, [ 1; 4 ]); (Hwsim.Machine.rpl, [ 1; 4 ]); (tiny, [ 1; 2 ]);
      (tiny3, [ 1; 2 ]); (odd_sets, [ 1; 2 ]); (one_level, [ 1; 2; 4 ]); (line48, [ 1; 2 ]) ]
  in
  List.iter
    (fun (label, src, sizes) ->
      let prog = Polylang.parse src in
      List.iter
        (fun (n, d) ->
          let param_values =
            List.map (fun p -> (p, if p = "d" then d else n)) prog.Poly_ir.Ir.params
          in
          List.iter
            (fun ((machine : Hwsim.Machine.t), samplings) ->
              List.iter
                (fun (mname, mode) ->
                  List.iter
                    (fun set_sampling ->
                      match compare_models ~mode ~set_sampling ~machine prog ~param_values with
                      | None -> ()
                      | Some diff ->
                        Alcotest.failf "%s, n=%d d=%d on %s (%s, sampling %d): %s" label n d
                          machine.Hwsim.Machine.name mname set_sampling diff)
                    samplings)
                modes)
            machines)
        sizes)
    local_programs;
  (* the fast path leaves a negative address to the checked path *)
  match Model.analyze ~machine:Hwsim.Machine.rpl (Polylang.parse below_by_one_src)
          ~param_values:[ ("n", 64) ] with
  | _ -> Alcotest.fail "byte -8 must be rejected"
  | exception Invalid_argument m -> Alcotest.(check string) "bounds error" "index out of bounds" m

(* ---------- random affine loop nests ---------- *)

(* A random 1–3 deep nest over parameter n.  Lower bounds are 0 or an
   outer variable (triangular), steps 1–3, and indices are c·v + d with
   strides up to 3 and offsets that can leave the arrays on either
   side. *)
let gen_nest : string QCheck.Gen.t =
  QCheck.Gen.(
    let vars = [| "i"; "j"; "k" |] in
    let* depth = int_range 1 3 in
    let loop d =
      let v = vars.(d) in
      let* tri = if d = 0 then return false else bool in
      let* step = frequency [ (4, return 1); (1, return 2); (1, return 3) ] in
      let lo = if tri then vars.(d - 1) else "0" in
      let inc = if step = 1 then v ^ "++" else Printf.sprintf "%s += %d" v step in
      return (Printf.sprintf "for (%s = %s; %s < n; %s) {" v lo v inc)
    in
    let* loops = flatten_l (List.init depth loop) in
    let index =
      let* v = int_range 0 (depth - 1) in
      let* c = int_range 1 3 in
      let* d = int_range (-12) 12 in
      return
        (Printf.sprintf "%d * %s %c %d" c vars.(v)
           (if d < 0 then '-' else '+')
           (abs d))
    in
    let access =
      let* a = oneofl [ "A"; "B"; "C" ] in
      let* i1 = index in
      if a = "C" then
        let* i2 = index in
        return (Printf.sprintf "C[%s][%s]" i1 i2)
      else return (Printf.sprintf "%s[%s]" a i1)
    in
    let stmt =
      let* target = access in
      let* n_loads = int_range 1 3 in
      let* loads = list_size (return n_loads) access in
      return (Printf.sprintf "%s = %s;" target (String.concat " + " loads))
    in
    let* n_stmts = int_range 1 2 in
    let* stmts = list_size (return n_stmts) stmt in
    return
      (String.concat "\n"
         ([
            "program rnd(n) {";
            "  arrays { A[n] : f64; B[2 * n] : f32; C[n][n] : f64; }";
          ]
         @ loops @ stmts
         @ List.init depth (fun _ -> "}")
         @ [ "}" ])))

let arb_case =
  QCheck.make
    ~print:(fun (src, n) -> Printf.sprintf "n=%d\n%s" n src)
    QCheck.Gen.(pair gen_nest (int_range 1 24))

let qcheck_tests =
  [
    QCheck.Test.make ~name:"flat core == oracle on random affine nests"
      ~count:150 arb_case (fun (src, n) ->
        let prog = Polylang.parse src in
        List.for_all
          (fun machine ->
            List.for_all
              (fun (mname, mode) ->
                List.for_all
                  (fun set_sampling ->
                    match
                      compare_models ~mode ~set_sampling ~machine prog
                        ~param_values:[ ("n", n) ]
                    with
                    | None -> true
                    | Some d ->
                      QCheck.Test.fail_reportf "%s, %s, sampling %d: %s"
                        machine.Hwsim.Machine.name mname set_sampling d)
                  [ 1; 2 ])
              modes)
          [ tiny; Hwsim.Machine.bdw ]);
  ]

let tests =
  [
    Alcotest.test_case "29 workloads x machines x modes == oracle" `Quick
      test_workloads;
    Alcotest.test_case "out-of-layout accesses == oracle" `Quick
      test_out_of_layout;
    Alcotest.test_case "an access less than a line below the layout" `Quick
      test_below_by_less_than_a_line;
    Alcotest.test_case "high-locality programs x fast path on/off == oracle" `Quick
      test_local_programs;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) qcheck_tests
