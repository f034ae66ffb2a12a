(* The one trace producer against its test-only oracles: [Trace.scan]'s
   chunks, decoded by [Interp.run ~compute:false], must replay the
   closure interpreter ([Interp_oracle]) event for event — statement,
   array, address, size, kind, and loop enter/exit with var, depth and
   parallel flag — on every bundled workload at reduced sizes, on random
   affine nests and on strided, triangular, guarded, zero-trip,
   min/max-bounded and out-of-layout programs.  The shared set-associative
   core is held to the replaced [Hwsim.Cache] ([Cache_oracle]) access for
   access, and its division-free set index to [mod] and the old XOR fold. *)

open Poly_ir
open Hwsim

(* ---------- event streams ---------- *)

let event_string = function
  | `Access (stmt, array, addr, bytes, is_write) ->
    Printf.sprintf "%s %s%c%d/%d" stmt array (if is_write then '=' else '@') addr bytes
  | `Stmt (stmt, flops) -> Printf.sprintf "stmt %s %d" stmt flops
  | `Enter (var, depth, parallel) -> Printf.sprintf "enter %s %d %b" var depth parallel
  | `Exit (var, depth) -> Printf.sprintf "exit %s %d" var depth

(* a stream's events through [sink], plus the run's result *)
let recording run sink =
  let cb =
    {
      Interp.on_access =
        (fun ~stmt ~array ~addr ~bytes ~is_write ->
          sink (`Access (stmt, array, addr, bytes, is_write)));
      on_stmt = (fun ~stmt ~flops -> sink (`Stmt (stmt, flops)));
      on_loop_enter = (fun ~var ~depth ~parallel -> sink (`Enter (var, depth, parallel)));
      on_loop_exit = (fun ~var ~depth -> sink (`Exit (var, depth)));
    }
  in
  run cb

let summary (r : Interp.result) =
  Printf.sprintf "instances=%d flops=%d accesses=%d" r.Interp.instances r.Interp.flops
    r.Interp.accesses

let attempt f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* [None] when both sides agree on every event and on the result; the
   oracle's stream is kept whole, the scan's compared as it comes *)
let diff_streams prog ~param_values =
  let want = ref [] in
  let oracle =
    attempt (fun () ->
        recording
          (fun cb -> Interp_oracle.run ~compute:false prog ~param_values cb)
          (fun e -> want := e :: !want))
  in
  let want = Array.of_list (List.rev !want) in
  let pos = ref 0 and first_diff = ref None in
  let ours =
    attempt (fun () ->
        recording
          (fun cb -> Interp.run ~compute:false prog ~param_values cb)
          (fun e ->
            let i = !pos in
            incr pos;
            if !first_diff = None && (i >= Array.length want || want.(i) <> e) then
              first_diff :=
                Some
                  (Printf.sprintf "event %d: got %s, oracle %s" i (event_string e)
                     (if i < Array.length want then event_string want.(i) else "end"))))
  in
  match (ours, oracle) with
  | Error a, Error b -> if String.equal a b then None else Some ("raised " ^ a ^ ", oracle " ^ b)
  | Ok _, Error e -> Some ("only the oracle raised " ^ e)
  | Error e, Ok _ -> Some ("only the scan raised " ^ e)
  | Ok r, Ok o -> (
    match !first_diff with
    | Some d -> Some d
    | None ->
      if !pos <> Array.length want then
        Some (Printf.sprintf "%d events, oracle %d" !pos (Array.length want))
      else if summary r <> summary o then Some (summary r ^ ", oracle " ^ summary o)
      else None)

let check_same label prog ~param_values =
  match diff_streams prog ~param_values with
  | None -> ()
  | Some d -> Alcotest.failf "%s: %s" label d

let test_workloads () =
  List.iter
    (fun (w : Workloads.t) ->
      let prog, param_values = Test_cm_oracle.reduced w in
      check_same w.Workloads.name prog ~param_values)
    Workloads.all

(* ---------- the producer's special cases ---------- *)

let cases =
  [
    ( "strided and triangular",
      {|
program st(n) {
  arrays { A[n][n] : f64; B[n] : f32; }
  for (i = 1; i < n; i += 3) {
    for (j = i; j < n; j += 2) {
      A[i][j] = A[j][i] + B[j];
      B[i] = B[i] * 2.0;
    }
  }
}
|},
      [ 0; 1; 7; 12 ] );
    ( "if-guarded with else",
      {|
program guarded(n, m) {
  arrays { A[n][n] : f64; x[n] : f64; }
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) {
      if (i - j <= m && j - i <= m) {
        x[i] = x[i] + A[i][j];
      } else {
        A[i][j] = 0.0;
      }
    }
    if (i == 2) { x[i] = 1.0; }
  }
}
|},
      [ 0; 3; 9 ] );
    ( "zero-trip loops and an empty body",
      {|
program zero(n) {
  arrays { A[n] : f64; }
  for (i = 0; i < n; i++) {
    for (j = n; j < i; j++) { A[j] = A[i]; }
    for (k = 4; k < 2; k++) { A[k] = 0.0; }
    for (m = 0; m < n; m++) { }
    A[i] = A[i] + 1.0;
  }
}
|},
      [ 0; 1; 6 ] );
    ( "min/max bounds, a parallel nest and a top-level statement",
      {|
program mm(n) {
  arrays { A[n][n] : f64; s[1] : f64; }
  s[0] = 0.0;
  parallel for (ii = 0; ii < n; ii += 4) {
    for (i = max(ii, 1); i < min(ii + 4, n); i++) {
      for (j = 0; j < min(i, 5); j++) {
        A[i][j] = A[i][j] + s[0];
      }
    }
  }
}
|},
      [ 1; 5; 11 ] );
    ( "out-of-layout on both sides",
      {|
program out(n) {
  arrays { A[n] : f64; B[n] : f64; }
  for (i = 0; i < n; i++) {
    B[i + 3 * n] = A[i - 40] + B[2 * i - 7];
  }
}
|},
      [ 1; 8; 64 ] );
  ]

let test_cases () =
  List.iter
    (fun (label, src, sizes) ->
      let prog = Polylang.parse src in
      List.iter
        (fun n ->
          let param_values = List.map (fun p -> (p, n)) prog.Ir.params in
          check_same (Printf.sprintf "%s, n=%d" label n) prog ~param_values)
        sizes)
    cases;
  (* the same program tiled, as PolyUFC-CM and the simulator see it *)
  let w = Workloads.find "gemm" in
  check_same "gemm tiled at 4" (Workloads.tiled_program ~tile_size:4 w)
    ~param_values:[ ("n", 13) ];
  (* an invalid program and a missing size raise as before *)
  let gemm = Workloads.program w in
  check_same "missing size" gemm ~param_values:[];
  check_same "invalid program"
    { gemm with Ir.arrays = [] }
    ~param_values:[ ("n", 4) ]

(* [scan]'s own contract: one reusable buffer, chunks of at least
   [chunk_len] events but the last, the oracle's counts in the summary *)
let test_chunks () =
  let prog = Workloads.program (Workloads.find "gemm") in
  let bufs = ref [] and lens = ref [] in
  let r =
    Trace.scan prog ~param_values:[ ("n", 20) ] ~on_chunk:(fun buf len ->
        if not (List.memq buf !bufs) then bufs := buf :: !bufs;
        lens := len :: !lens)
  in
  Alcotest.(check int) "one buffer" 1 (List.length !bufs);
  (match !lens with
  | [] -> Alcotest.fail "no chunk"
  | _last :: full ->
    List.iter
      (fun l -> Alcotest.(check bool) "full chunk" true (l >= Trace.chunk_len))
      full);
  let o = Interp_oracle.run ~compute:false prog ~param_values:[ ("n", 20) ] Interp.null_callbacks in
  Alcotest.(check (list int)) "instances, flops, accesses"
    [ o.Interp.instances; o.Interp.flops; o.Interp.accesses ]
    [ r.Trace.instances; r.Trace.flops; r.Trace.accesses ]

let qcheck_tests =
  [
    QCheck.Test.make ~name:"scan == oracle on random affine nests" ~count:200
      Test_cm_oracle.arb_case (fun (src, n) ->
        let prog = Polylang.parse src in
        match diff_streams prog ~param_values:[ ("n", n) ] with
        | None -> true
        | Some d -> QCheck.Test.fail_reportf "%s" d);
  ]

(* ---------- the set-associative core ---------- *)

let geometries (m : Machine.t) =
  let c = m.Machine.caches in
  (c :: List.map (fun g -> [ g ]) c)
  @ [ List.filteri (fun i _ -> i < List.length c - 1) c ]

let all_geometries = geometries Machine.bdw @ geometries Machine.rpl

(* a stream over a few hot lines, strided sweeps and far, negative and
   tenant-offset addresses *)
let gen_stream =
  QCheck.Gen.(
    let addr =
      frequency
        [
          (6, map (fun k -> k * 8) (int_range 0 512));
          (4, map (fun k -> k * 4096) (int_range 0 4096));
          (3, int_range 0 (1 lsl 26));
          (1, map (fun k -> (1 lsl 36) + (k * 64)) (int_range 0 100_000));
          (1, int_range (-70_000) (-1));
        ]
    in
    list_size (int_range 1 3000) (pair addr bool))

let arb_stream =
  QCheck.make
    ~print:(fun (g, s) ->
      Printf.sprintf "geometry %d, %d accesses, first %s" g (List.length s)
        (match s with (a, w) :: _ -> Printf.sprintf "%d%s" a (if w then "w" else "") | [] -> "-"))
    QCheck.Gen.(pair (int_range 0 (List.length all_geometries - 1)) gen_stream)

let cache_matches_on geometries (g, stream) =
  let geoms = List.nth geometries g in
  let ours = Cache.create geoms and oracle = Cache_oracle.create geoms in
  let rec go i = function
    | [] -> true
    | (addr, is_write) :: rest -> (
      match
        ( attempt (fun () -> Cache.access ours ~addr ~is_write),
          attempt (fun () -> Cache_oracle.access oracle ~addr ~is_write) )
      with
      | Ok a, Ok b when a = b -> go (i + 1) rest
      | Error a, Error b when String.equal a b -> true
      | _ -> QCheck.Test.fail_reportf "access %d (addr %d) differs" i addr)
  in
  go 0 stream
  && (Cache.stats ours = Cache_oracle.stats oracle
     || QCheck.Test.fail_reportf "stats differ")
  && Cache.dram_reads ours = Cache_oracle.dram_reads oracle
  && Cache.dram_writebacks ours = Cache_oracle.dram_writebacks oracle
  && Cache.flush_writebacks ours = Cache_oracle.flush_writebacks oracle

(* ---------- high-locality streams: the level-0 MRU fast path ---------- *)

let geom name ~size ~line ~assoc =
  { Machine.level_name = name; size_bytes = size; line_bytes = line; assoc; hit_latency_ns = 1.0 }

(* hierarchies on which [Cache.access_code]'s fast path is off: a
   non-power-of-two level-0 set count (48), a non-power-of-two line
   (48 B, the one that would make the path wrong) and an XOR-folded
   level 0 (1024 sets) *)
let off_geometries =
  [
    [ geom "L1" ~size:(48 * 64 * 2) ~line:64 ~assoc:2; geom "L2" ~size:(256 * 64 * 4) ~line:64 ~assoc:4 ];
    [ geom "L1" ~size:(32 * 48 * 4) ~line:48 ~assoc:4; geom "L2" ~size:(256 * 48 * 8) ~line:48 ~assoc:8 ];
    [ geom "L1" ~size:(1024 * 64 * 2) ~line:64 ~assoc:2; geom "LLC" ~size:(2048 * 64 * 4) ~line:64 ~assoc:4 ];
    [ geom "L1" ~size:(1024 * 64 * 2) ~line:64 ~assoc:2 ];
  ]

(* the path on, and lines reaching DRAM within a few hundred accesses *)
let tiny_geometry = [ geom "L1" ~size:512 ~line:64 ~assoc:2; geom "LLC" ~size:2048 ~line:64 ~assoc:4 ]

let local_geometries = all_geometries @ off_geometries @ [ tiny_geometry ]

(* Segments that repeat a line: same-line runs at strides 4/8/16, a read
   then a write of one line followed by enough same-set lines to evict
   it, and reads and writes alternating on two lines of one level-0 set;
   bases include lines below 0 and addresses less than a line below 0. *)
let gen_local_stream (geoms : Machine.cache_geometry list) =
  let l1 = List.hd geoms in
  let line = l1.Machine.line_bytes and ways = l1.Machine.assoc in
  (* the distance between two lines of one plain-modulo level-0 set *)
  let same_set = l1.Machine.size_bytes / ways in
  QCheck.Gen.(
    let base =
      frequency
        [
          (6, map (fun k -> k * line) (int_range 0 4096));
          (2, map (fun k -> (k * line) + (line / 2)) (int_range 0 4096));
          (1, int_range (-line + 1) (-1));
          (1, map (fun k -> k * line) (int_range (-64) (-1)));
        ]
    in
    let run =
      let* b = base and* stride = oneofl [ 4; 8; 16 ] and* len = int_range 1 (3 * line / 4) in
      let* writes = list_size (return len) (frequency [ (3, return false); (1, return true) ]) in
      return (List.mapi (fun j w -> (b + (j * stride), w)) writes)
    in
    let evict =
      let* a = base and* extra = int_range 1 (ways + 2) in
      return ([ (a, false); (a, true); (a + 8, false) ] @ List.init (ways + extra) (fun j -> (a + ((j + 1) * same_set), false)))
    in
    let pingpong =
      let* a = base and* len = int_range 2 40 in
      let* writes = list_size (return len) bool in
      return (List.mapi (fun j w -> ((if j land 1 = 0 then a else a + same_set), w)) writes)
    in
    map List.concat (list_size (int_range 1 60) (frequency [ (3, run); (2, evict); (2, pingpong) ])))

let arb_local_stream =
  QCheck.make
    ~print:(fun (g, s) ->
      Printf.sprintf "local geometry %d, %d accesses: %s" g (List.length s)
        (String.concat " "
           (List.map (fun (a, w) -> Printf.sprintf "%d%s" a (if w then "w" else "")) s)))
    QCheck.Gen.(
      let* g = int_range 0 (List.length local_geometries - 1) in
      let* s = gen_local_stream (List.nth local_geometries g) in
      return (g, s))

(* a read then a write of one line, then its eviction from every level
   of a tiny hierarchy: the dirty bit set by the level-0 hit must come
   back as writebacks, level by level and to DRAM *)
let test_mru_write_evicted () =
  let ours = Cache.create tiny_geometry and oracle = Cache_oracle.create tiny_geometry in
  let both addr is_write =
    ignore (Cache.access ours ~addr ~is_write);
    ignore (Cache_oracle.access oracle ~addr ~is_write)
  in
  both 0 false;
  both 8 true;
  (* line 0 is MRU of set 0; 8 more lines of set 0 flood both levels *)
  for j = 1 to 8 do
    both (j * 4096) false
  done;
  Alcotest.(check int) "one DRAM writeback" 1 (Cache.dram_writebacks ours);
  Alcotest.(check bool) "stats == oracle" true (Cache.stats ours = Cache_oracle.stats oracle);
  Alcotest.(check int) "DRAM writebacks == oracle" (Cache_oracle.dram_writebacks oracle)
    (Cache.dram_writebacks ours)

(* ---------- division-free set indexing ---------- *)

let set_counts =
  List.sort_uniq compare
    (List.concat_map
       (fun (m : Machine.t) ->
         List.map
           (fun (g : Machine.cache_geometry) ->
             g.Machine.size_bytes / g.Machine.line_bytes / g.Machine.assoc)
           m.Machine.caches)
       [ Machine.bdw; Machine.rpl ])

let old_fold n x =
  let h = x lxor (x / n) lxor (x / (n * n)) in
  ((h mod n) + n) mod n

let gen_index =
  QCheck.Gen.(
    let* n =
      frequency
        [ (3, oneofl (1 :: 3 :: set_counts)); (2, int_range 1 5000); (1, int_range 1 (1 lsl 20)) ]
    in
    let near m = map (fun d -> m + d) (int_range (-1) 1) in
    let* x =
      frequency
        [
          (2, int_range (-1_000_000) 1_000_000);
          (2, map (fun k -> (1 lsl 32) + k) (int_range 0 max_int));
          (2, int_range (-5000) 5000 >>= fun k -> near (k * n));
          (2, int_range (-5000) 5000 >>= fun k -> near (k * n * n));
          (1, map (fun b -> 1 lsl b) (int_range 28 61) >>= near);
          (1, int_range min_int (-1));
          (1, oneofl [ min_int; max_int; min_int + 1; max_int - 1; 0 ]);
        ]
    in
    return (n, x))

let index_matches (n, x) =
  let d = Setassoc.divisor n in
  let got = (Setassoc.div d x, Setassoc.rem d x, Setassoc.fold_index d x) in
  let want = (x / n, x mod n, old_fold n x) in
  got = want
  ||
  let a, b, c = got and a', b', c' = want in
  QCheck.Test.fail_reportf "n=%d x=%d: div %d/%d rem %d/%d fold %d/%d" n x a a' b b' c c'

let qcheck_core =
  [
    QCheck.Test.make ~name:"Hwsim.Cache == Cache_oracle on random streams, every geometry"
      ~count:300 arb_stream (cache_matches_on all_geometries);
    QCheck.Test.make
      ~name:"Hwsim.Cache == Cache_oracle on high-locality streams, fast path on and off"
      ~count:300 arb_local_stream (cache_matches_on local_geometries);
    QCheck.Test.make ~name:"Setassoc index == mod, / and the old XOR fold" ~count:5000
      (QCheck.make ~print:(fun (n, x) -> Printf.sprintf "n=%d x=%d" n x) gen_index)
      index_matches;
  ]

let tests =
  [
    Alcotest.test_case "29 workloads: scan == oracle, event for event" `Quick
      test_workloads;
    Alcotest.test_case "strided, guarded, zero-trip, min/max, out-of-layout" `Quick
      test_cases;
    Alcotest.test_case "one reusable chunk, full but the last" `Quick test_chunks;
    Alcotest.test_case "a write hit on the MRU line is written back" `Quick
      test_mru_write_evicted;
  ]
  @ List.map (QCheck_alcotest.to_alcotest ~verbose:false) (qcheck_tests @ qcheck_core)
