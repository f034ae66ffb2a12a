(* Tests for the telemetry subsystem: span nesting, counter aggregation,
   disabled-mode no-op behavior, Chrome trace_event well-formedness, the
   JSON round trip, and the Flow.timing-vs-span-tree consistency
   regression. Telemetry state is global, so every test starts from
   [reset] and leaves the registry disabled. *)

open Polyufc_core
module T = Telemetry
module J = Telemetry.Json

let with_fresh_telemetry f =
  T.reset ();
  T.enable ();
  Fun.protect ~finally:(fun () -> T.disable ()) f

(* ---------- spans ---------- *)

let test_span_nesting () =
  with_fresh_telemetry @@ fun () ->
  let x =
    T.with_span "outer" (fun () ->
        T.with_span "inner_a" (fun () -> ());
        T.with_span "inner_b" (fun () -> T.with_span "leaf" (fun () -> ()));
        42)
  in
  Alcotest.(check int) "result passes through" 42 x;
  let spans = T.spans () in
  Alcotest.(check int) "four spans" 4 (List.length spans);
  let find name = List.find (fun (s : T.span) -> s.T.name = name) spans in
  let outer = find "outer" in
  let inner_a = find "inner_a" in
  let inner_b = find "inner_b" in
  let leaf = find "leaf" in
  Alcotest.(check int) "outer is a root" (-1) outer.T.parent;
  Alcotest.(check int) "outer depth" 0 outer.T.depth;
  Alcotest.(check int) "inner_a parent" outer.T.id inner_a.T.parent;
  Alcotest.(check int) "inner_b parent" outer.T.id inner_b.T.parent;
  Alcotest.(check int) "leaf parent" inner_b.T.id leaf.T.parent;
  Alcotest.(check int) "leaf depth" 2 leaf.T.depth;
  (* chronological order and containment *)
  Alcotest.(check bool) "children start after parent" true
    (inner_a.T.start_us >= outer.T.start_us);
  Alcotest.(check bool) "parent covers children" true
    (outer.T.dur_us
    >= inner_a.T.dur_us +. inner_b.T.dur_us -. 1e-6)

let test_span_exception_safety () =
  with_fresh_telemetry @@ fun () ->
  (try T.with_span "boom" (fun () -> failwith "expected") with
  | Failure _ -> ());
  T.with_span "after" (fun () -> ());
  let spans = T.spans () in
  Alcotest.(check int) "both spans recorded" 2 (List.length spans);
  List.iter
    (fun (s : T.span) ->
      Alcotest.(check int) ("root: " ^ s.T.name) (-1) s.T.parent)
    spans

let test_span_timed_agrees () =
  with_fresh_telemetry @@ fun () ->
  let (), dur_s = T.with_span_timed "timed" (fun () -> Sys.opaque_identity ()) in
  let s = List.hd (T.spans ()) in
  Alcotest.(check bool) "span dur = returned dur" true
    (Float.abs ((s.T.dur_us *. 1e-6) -. dur_s) < 1e-9)

(* ---------- counters and histograms ---------- *)

let test_counter_aggregation () =
  with_fresh_telemetry @@ fun () ->
  let c = T.counter "test.counter" in
  T.tick c;
  T.tick c;
  T.add c 40;
  T.count ~by:8 "test.counter";
  Alcotest.(check int) "aggregated" 50 (T.counter_value "test.counter");
  T.reset ();
  Alcotest.(check int) "reset zeroes in place" 0 (T.counter_value "test.counter");
  T.tick c;
  Alcotest.(check int) "handle survives reset" 1 (T.counter_value "test.counter")

let test_histograms () =
  with_fresh_telemetry @@ fun () ->
  T.observe "test.h" 2.0;
  T.observe "test.h" 6.0;
  T.observe "test.h" 4.0;
  match List.assoc_opt "test.h" (T.histograms_snapshot ()) with
  | None -> Alcotest.fail "histogram missing"
  | Some (n, sum, mn, mx) ->
    Alcotest.(check int) "count" 3 n;
    Alcotest.(check (float 1e-9)) "sum" 12.0 sum;
    Alcotest.(check (float 1e-9)) "min" 2.0 mn;
    Alcotest.(check (float 1e-9)) "max" 6.0 mx

(* log-linear buckets with 16 sub-buckets per binade: any quantile
   estimate is within half a sub-bucket of the truth, a relative error
   of at most 1/32 ~ 3.2% (we allow 3.5% for the nearest-rank off-by-one
   at small counts) *)
let test_quantile_accuracy () =
  with_fresh_telemetry @@ fun () ->
  (* deterministic log-uniform values over ~6 decades *)
  let st = Random.State.make [| 0x5eed |] in
  let n = 20_000 in
  let values =
    Array.init n (fun _ -> Float.exp (Random.State.float st 14.0 -. 4.0))
  in
  Array.iter (T.observe "test.q") values;
  Array.sort compare values;
  let h =
    match T.histogram_snapshot "test.q" with
    | Some h -> h
    | None -> Alcotest.fail "histogram missing"
  in
  List.iter
    (fun q ->
      let est = T.quantile h q in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let true_v = values.(rank - 1) in
      let rel = Float.abs (est -. true_v) /. true_v in
      Alcotest.(check bool)
        (Printf.sprintf "q=%g rel err %.4f <= 0.035" q rel)
        true (rel <= 0.035))
    [ 0.5; 0.9; 0.99; 0.999 ]

let test_quantile_degenerate () =
  with_fresh_telemetry @@ fun () ->
  for _ = 1 to 100 do
    T.observe "test.same" 37.25
  done;
  (* out-of-range observations land in the edge buckets but stay pinned
     to the observed min/max *)
  T.observe "test.edge" 0.0;
  T.observe "test.edge" (-3.0);
  T.observe "test.edge" 1e14;
  let h name =
    match T.histogram_snapshot name with
    | Some h -> h
    | None -> Alcotest.fail "histogram missing"
  in
  List.iter
    (fun q ->
      Alcotest.(check (float 1e-9))
        (Printf.sprintf "all-equal q=%g exact" q)
        37.25
        (T.quantile (h "test.same") q))
    [ 0.0; 0.5; 0.99; 1.0 ];
  let edge = h "test.edge" in
  Alcotest.(check bool) "quantiles clamped to observed range" true
    (List.for_all
       (fun q ->
         let v = T.quantile edge q in
         v >= -3.0 && v <= 1e14)
       [ 0.001; 0.5; 0.999 ]);
  Alcotest.(check bool) "empty histogram quantile is NaN" true
    (Float.is_nan
       (T.quantile
          {
            T.hist_count = 0;
            hist_sum = 0.0;
            hist_min = Float.infinity;
            hist_max = Float.neg_infinity;
            hist_buckets = [];
          }
          0.5))

let test_stats_json_shape () =
  with_fresh_telemetry @@ fun () ->
  T.count ~by:3 "test.ticks";
  for i = 1 to 100 do
    T.observe "test.lat" (float_of_int i)
  done;
  let doc = T.stats_json () in
  Alcotest.(check bool) "meta present" true (J.member "meta" doc <> None);
  let meta = Option.get (J.member "meta" doc) in
  List.iter
    (fun k ->
      Alcotest.(check bool) ("meta has " ^ k) true (J.member k meta <> None))
    [ "timestamp"; "hostname"; "pid"; "ocaml_version" ];
  let hist =
    match J.member "histograms" doc with
    | Some hs -> (
      match J.member "test.lat" hs with
      | Some h -> h
      | None -> Alcotest.fail "test.lat histogram missing from stats_json")
    | None -> Alcotest.fail "histograms missing"
  in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        ("histogram has " ^ k)
        true
        (J.member k hist <> None))
    [ "count"; "sum"; "mean"; "p50"; "p90"; "p99"; "p999"; "buckets" ];
  (* bucket counts must sum to the observation count *)
  let bucket_sum =
    match J.member "buckets" hist with
    | Some (J.Arr bs) ->
      List.fold_left
        (fun acc b ->
          match Option.bind (J.member "n" b) J.number with
          | Some n -> acc + int_of_float n
          | None -> acc)
        0 bs
    | _ -> -1
  in
  Alcotest.(check int) "bucket counts sum to count" 100 bucket_sum

(* OpenMetrics exposition sanity: parses line-by-line, `# TYPE` metadata
   precedes samples, histogram bucket series are cumulative and agree
   with _count, and the document is # EOF-terminated. *)
let test_openmetrics_exposition () =
  with_fresh_telemetry @@ fun () ->
  T.count ~by:7 "test.om_counter";
  for i = 1 to 50 do
    T.observe "test.om-lat.us" (float_of_int (i * 3))
  done;
  ignore (T.with_span "om.span" (fun () -> ()));
  let text = T.to_openmetrics () in
  let lines = String.split_on_char '\n' text in
  let non_empty = List.filter (fun l -> l <> "") lines in
  Alcotest.(check string) "EOF-terminated" "# EOF"
    (List.nth non_empty (List.length non_empty - 1));
  let typed = Hashtbl.create 16 in
  let bucket_cum = Hashtbl.create 16 in
  List.iter
    (fun line ->
      if line = "" || line = "# EOF" then ()
      else if String.length line > 7 && String.sub line 0 7 = "# TYPE " then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; name; kind ] ->
          Alcotest.(check bool)
            ("known metric kind " ^ kind)
            true
            (List.mem kind [ "counter"; "gauge"; "histogram" ]);
          Hashtbl.replace typed name kind
        | _ -> Alcotest.fail ("malformed TYPE line: " ^ line)
      end
      else begin
        (* sample line: name[{labels}] value *)
        let name_end =
          match (String.index_opt line '{', String.index_opt line ' ') with
          | Some b, Some sp when b < sp -> b
          | _, Some sp -> sp
          | _ -> Alcotest.fail ("malformed sample line: " ^ line)
        in
        let name = String.sub line 0 name_end in
        Alcotest.(check bool)
          ("metric name sanitized: " ^ name)
          true
          (String.length name > 8
          && String.sub name 0 8 = "polyufc_"
          && String.for_all
               (function
                 | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
                 | _ -> false)
               name);
        let value =
          match String.rindex_opt line ' ' with
          | Some i ->
            float_of_string_opt
              (String.sub line (i + 1) (String.length line - i - 1))
          | None -> None
        in
        Alcotest.(check bool)
          ("sample has a numeric value: " ^ line)
          true (value <> None);
        (* every sample's base family must have a TYPE line *)
        let strip suffix n =
          if
            String.length n > String.length suffix
            && String.sub n
                 (String.length n - String.length suffix)
                 (String.length suffix)
               = suffix
          then Some (String.sub n 0 (String.length n - String.length suffix))
          else None
        in
        let family =
          List.fold_left
            (fun acc suffix ->
              match acc with
              | Some _ -> acc
              | None -> strip suffix name)
            None
            [ "_total"; "_bucket"; "_sum"; "_count" ]
          |> Option.value ~default:name
        in
        Alcotest.(check bool)
          ("TYPE declared for " ^ family)
          true
          (Hashtbl.mem typed family);
        (* cumulative bucket check *)
        match strip "_bucket" name with
        | Some fam ->
          let v = Option.get value in
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt bucket_cum fam) in
          Alcotest.(check bool)
            (fam ^ " buckets cumulative")
            true (v >= prev);
          Hashtbl.replace bucket_cum fam v
        | None -> (
          match strip "_count" name with
          | Some fam when Hashtbl.mem bucket_cum fam ->
            Alcotest.(check (float 1e-9))
              (fam ^ " count = last bucket")
              (Hashtbl.find bucket_cum fam)
              (Option.get value)
          | _ -> ())
      end)
    lines;
  Alcotest.(check bool) "histogram family present" true
    (Hashtbl.fold
       (fun _ kind acc -> acc || kind = "histogram")
       typed false)

let test_openmetrics_rejects_non_object () =
  Alcotest.(check bool) "non-object stats rejected" true
    (match T.openmetrics_of_stats (J.Arr []) with
    | Error _ -> true
    | Ok _ -> false)

let test_disabled_noop () =
  T.reset ();
  T.disable ();
  let c = T.counter "test.disabled" in
  T.tick c;
  T.count "test.disabled";
  T.observe "test.disabled_h" 1.0;
  let x = T.with_span "ghost" (fun () -> 7) in
  Alcotest.(check int) "with_span still runs thunk" 7 x;
  let (), dur = T.with_span_timed "ghost2" (fun () -> ()) in
  Alcotest.(check bool) "timed still measures" true (dur >= 0.0);
  Alcotest.(check int) "no counter bump" 0 (T.counter_value "test.disabled");
  Alcotest.(check int) "no spans" 0 (List.length (T.spans ()));
  Alcotest.(check bool) "no histogram" true
    (List.assoc_opt "test.disabled_h" (T.histograms_snapshot ()) = None)

(* telemetry is shared by the engine's worker domains; concurrent ticks on
   the same counter must never be lost *)
let test_concurrent_counters () =
  with_fresh_telemetry @@ fun () ->
  let c = T.counter "test.concurrent" in
  let per_domain = 10_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              T.tick c
            done))
  in
  List.iter Domain.join domains;
  T.add c 2;
  Alcotest.(check int) "4 domains x 10k ticks, none lost"
    ((4 * per_domain) + 2)
    (T.counter_value "test.concurrent")

(* span stacks are domain-local: concurrent spans must each nest under
   their own domain's stack, not under another domain's open span *)
let test_concurrent_spans () =
  with_fresh_telemetry @@ fun () ->
  let domains =
    List.init 3 (fun i ->
        Domain.spawn (fun () ->
            T.with_span
              (Printf.sprintf "dom%d" i)
              (fun () -> T.with_span "child" (fun () -> ()))))
  in
  List.iter Domain.join domains;
  let spans = T.spans () in
  Alcotest.(check int) "two spans per domain" 6 (List.length spans);
  let roots = List.filter (fun (s : T.span) -> s.T.parent = -1) spans in
  Alcotest.(check int) "one root per domain" 3 (List.length roots);
  List.iter
    (fun (s : T.span) ->
      if s.T.name = "child" then begin
        let parent =
          List.find (fun (p : T.span) -> p.T.id = s.T.parent) spans
        in
        Alcotest.(check bool) "child under a domain root" true
          (String.length parent.T.name = 4
          && String.sub parent.T.name 0 3 = "dom")
      end)
    spans

(* ---------- JSON ---------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("s", J.Str "a\"b\\c\nd");
        ("i", J.Int (-42));
        ("f", J.Float 1.5);
        ("inf", J.Float Float.infinity);
        ("l", J.Arr [ J.Bool true; J.Null; J.Int 0 ]);
        ("o", J.Obj [ ("nested", J.Str "x") ]);
      ]
  in
  match J.of_string (J.to_string v) with
  | Error msg -> Alcotest.fail ("reparse failed: " ^ msg)
  | Ok v' ->
    Alcotest.(check string) "string field" "a\"b\\c\nd"
      (match J.member "s" v' with Some (J.Str s) -> s | _ -> "?");
    Alcotest.(check int) "int field" (-42)
      (match J.member "i" v' with Some (J.Int i) -> i | _ -> 0);
    Alcotest.(check bool) "infinity became null" true
      (J.member "inf" v' = Some J.Null);
    Alcotest.(check int) "array arity" 3
      (match J.member "l" v' with
      | Some (J.Arr l) -> List.length l
      | _ -> 0)

let test_json_rejects_malformed () =
  List.iter
    (fun s ->
      match J.of_string s with
      | Ok _ -> Alcotest.fail ("accepted malformed: " ^ s)
      | Error _ -> ())
    [ "{"; "[1,"; "{\"a\" 1}"; "tru"; "\"unterminated"; "{} trailing"; "" ]

let test_trace_event_well_formed () =
  with_fresh_telemetry @@ fun () ->
  T.with_span "root" ~args:[ ("k", "v") ] (fun () ->
      T.with_span "child" (fun () -> ()));
  T.count ~by:3 "test.traced";
  let text = T.trace_to_string () in
  match J.of_string text with
  | Error msg -> Alcotest.fail ("trace does not parse: " ^ msg)
  | Ok doc ->
    let events =
      match J.member "traceEvents" doc with
      | Some (J.Arr l) -> l
      | _ -> Alcotest.fail "traceEvents missing or not an array"
    in
    (* 2 spans + 1 counter event *)
    Alcotest.(check int) "event count" 3 (List.length events);
    List.iter
      (fun e ->
        let str k =
          match J.member k e with Some (J.Str s) -> Some s | _ -> None
        in
        Alcotest.(check bool) "has name" true (str "name" <> None);
        let ph =
          match str "ph" with Some p -> p | None -> Alcotest.fail "no ph"
        in
        Alcotest.(check bool) "ph is X or C" true (ph = "X" || ph = "C");
        Alcotest.(check bool) "ts is a number" true
          (match J.member "ts" e with
          | Some t -> J.number t <> None
          | None -> false);
        if ph = "X" then begin
          Alcotest.(check bool) "X has non-negative dur" true
            (match J.member "dur" e with
            | Some d -> (match J.number d with Some f -> f >= 0.0 | None -> false)
            | None -> false)
        end)
      events

(* ---------- pipeline integration ---------- *)

let small_src =
  {|
program tiny(n) {
  arrays { A[n][n] : f64; x[n] : f64; y[n] : f64; }
  for (i = 0; i < n; i++) {
    for (j = 0; j < n; j++) {
      y[i] = y[i] + A[i][j] * x[j];
    }
  }
}
|}

let compile_tiny () =
  let prog = Polylang.parse small_src in
  Flow.compile ~tile:false ~machine:Hwsim.Machine.bdw
    ~rooflines:(Lazy.force Test_support.bdw_rooflines)
    prog ~param_values:[ ("n", 40) ]

(* Flow.compile's [timing] record must stay a faithful view over the span
   tree: each phase duration equals its span, and the four phase spans are
   the children of flow.compile. *)
let test_flow_timing_consistent_with_spans () =
  with_fresh_telemetry @@ fun () ->
  let c = compile_tiny () in
  let spans = T.spans () in
  let root =
    match List.find_opt (fun (s : T.span) -> s.T.name = "flow.compile") spans with
    | Some s -> s
    | None -> Alcotest.fail "no flow.compile span"
  in
  let phase name =
    match
      List.find_opt
        (fun (s : T.span) -> s.T.name = name && s.T.parent = root.T.id)
        spans
    with
    | Some s -> s
    | None -> Alcotest.fail ("missing phase span " ^ name)
  in
  let check_phase name recorded =
    let s = phase name in
    Alcotest.(check bool)
      (name ^ " timing = span duration")
      true
      (Float.abs ((s.T.dur_us *. 1e-6) -. recorded) < 1e-9)
  in
  check_phase Flow.phase_preprocess c.Flow.timing.Flow.preprocess_s;
  check_phase Flow.phase_pluto c.Flow.timing.Flow.pluto_s;
  check_phase Flow.phase_cm c.Flow.timing.Flow.cm_s;
  check_phase Flow.phase_steps456 c.Flow.timing.Flow.steps456_s

let test_pipeline_counters_nonzero () =
  with_fresh_telemetry @@ fun () ->
  (* a cold compile: a warm one answers its empty-domain check from the
     memo, with no presburger.is_empty *)
  Polyufc_core.Analysis_cache.clear_tile_memo ();
  let c = compile_tiny () in
  let e =
    Flow.evaluate ~machine:Hwsim.Machine.bdw c ~param_values:[ ("n", 40) ]
  in
  Alcotest.(check bool) "simulated some time" true
    (e.Flow.baseline.Hwsim.Sim.time_s > 0.0);
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " > 0") true (T.counter_value name > 0))
    [
      "presburger.fm_project";
      "presburger.is_empty";
      "presburger.sets_built";
      "cache_model.analyze";
      "cache_model.accesses";
      "flow.compiles";
      "hwsim.runs";
    ]

let test_flow_timing_works_disabled () =
  T.reset ();
  T.disable ();
  let c = compile_tiny () in
  let t = c.Flow.timing in
  Alcotest.(check bool) "phase times measured while disabled" true
    (t.Flow.preprocess_s >= 0.0 && t.Flow.pluto_s >= 0.0
    && t.Flow.cm_s > 0.0 && t.Flow.steps456_s >= 0.0);
  Alcotest.(check int) "but no spans recorded" 0 (List.length (T.spans ()))

let tests =
  [
    Alcotest.test_case "span nesting" `Quick test_span_nesting;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safety;
    Alcotest.test_case "with_span_timed agrees with span" `Quick
      test_span_timed_agrees;
    Alcotest.test_case "counter aggregation" `Quick test_counter_aggregation;
    Alcotest.test_case "histograms" `Quick test_histograms;
    Alcotest.test_case "quantile accuracy bound" `Quick test_quantile_accuracy;
    Alcotest.test_case "quantile degenerate cases" `Quick
      test_quantile_degenerate;
    Alcotest.test_case "stats_json meta + quantiles" `Quick
      test_stats_json_shape;
    Alcotest.test_case "openmetrics exposition sanity" `Quick
      test_openmetrics_exposition;
    Alcotest.test_case "openmetrics rejects non-object" `Quick
      test_openmetrics_rejects_non_object;
    Alcotest.test_case "disabled mode is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "concurrent counters lose nothing" `Quick
      test_concurrent_counters;
    Alcotest.test_case "concurrent spans are domain-local" `Quick
      test_concurrent_spans;
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json rejects malformed" `Quick
      test_json_rejects_malformed;
    Alcotest.test_case "chrome trace well-formed" `Quick
      test_trace_event_well_formed;
    Alcotest.test_case "flow timing = span tree" `Quick
      test_flow_timing_consistent_with_spans;
    Alcotest.test_case "pipeline counters nonzero" `Quick
      test_pipeline_counters_nonzero;
    Alcotest.test_case "flow timing works disabled" `Quick
      test_flow_timing_works_disabled;
  ]
