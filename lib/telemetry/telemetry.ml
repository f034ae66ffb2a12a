(* Zero-dependency instrumentation for the PolyUFC pipeline.

   Three primitives, all funneled through one global registry:
     - hierarchical spans   (with_span "pluto" f)
     - monotonic counters   (count "presburger.fm_project")
     - scalar histograms    (observe "ehrhart.fit_points" 12.0)

   The registry is disabled by default: a disabled [with_span] is a direct
   call of its thunk and a disabled counter bump is a single load+branch,
   so instrumented hot paths cost ~nothing when telemetry is off.  Hot
   loops should pre-register a counter handle ([counter]) once and bump it
   with [tick]/[add], or accumulate locally and bulk-[add] on exit.

   Spans export as Chrome trace_event JSON (chrome://tracing, Perfetto)
   and as a pretty text tree; counters and histograms export as a flat
   machine-readable JSON object. *)

(* ------------------------------------------------------------------ *)
(* Minimal JSON — emitter and parser                                   *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  (* non-finite floats have no JSON literal; emit null *)
  let add_float buf f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string buf (Printf.sprintf "%.1f" f)
    else if Float.is_finite f then
      Buffer.add_string buf (Printf.sprintf "%.12g" f)
    else Buffer.add_string buf "null"

  let rec add buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> add_float buf f
    | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | Arr l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          add buf x)
        l;
      Buffer.add_char buf ']'
    | Obj l ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          add buf v)
        l;
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    add buf t;
    Buffer.contents buf

  (* accessors *)
  let member k = function
    | Obj l -> List.assoc_opt k l
    | _ -> None

  let to_list = function Arr l -> Some l | _ -> None

  let number = function
    | Int i -> Some (float_of_int i)
    | Float f -> Some f
    | _ -> None

  let hex_float x = Str (Printf.sprintf "%h" x)

  let float_of_hex = function
    | Str s -> float_of_string_opt s
    | j -> number j

  (* recursive-descent parser; returns [Error msg] on malformed input *)
  exception Parse_error of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        match peek () with
        | None -> fail "unterminated string"
        | Some '"' -> advance ()
        | Some '\\' ->
          advance ();
          (match peek () with
          | Some '"' -> Buffer.add_char buf '"'; advance ()
          | Some '\\' -> Buffer.add_char buf '\\'; advance ()
          | Some '/' -> Buffer.add_char buf '/'; advance ()
          | Some 'n' -> Buffer.add_char buf '\n'; advance ()
          | Some 'r' -> Buffer.add_char buf '\r'; advance ()
          | Some 't' -> Buffer.add_char buf '\t'; advance ()
          | Some 'b' -> Buffer.add_char buf '\b'; advance ()
          | Some 'f' -> Buffer.add_char buf '\012'; advance ()
          | Some 'u' ->
            advance ();
            if !pos + 4 > n then fail "truncated \\u escape";
            let hex = String.sub s !pos 4 in
            let code =
              try int_of_string ("0x" ^ hex)
              with _ -> fail "bad \\u escape"
            in
            pos := !pos + 4;
            (* encode the BMP codepoint as UTF-8 *)
            if code < 0x80 then Buffer.add_char buf (Char.chr code)
            else if code < 0x800 then begin
              Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
            else begin
              Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
              Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
              Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
            end
          | _ -> fail "bad escape");
          go ()
        | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while (match peek () with Some c when is_num_char c -> true | _ -> false) do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" text))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields ((k, v) :: acc)
            | Some '}' ->
              advance ();
              List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (fields [])
        end
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          Arr []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          Arr (items [])
        end
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg
end

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

(* Domain-safety: the registry is shared by every domain of the process.
   Counters are atomics (a disabled bump is still one load + branch); the
   counter/histogram tables and the finished-span list are guarded by one
   registry mutex; the open-span stack is domain-local (Domain.DLS), so
   spans recorded by a pool worker nest within that worker's own spans and
   surface as roots when the worker opened none.  [reset] zeroes the
   shared state in place — call it only while no other domain records. *)

type span = {
  id : int;
  parent : int; (* -1 for a root span *)
  depth : int;
  name : string;
  start_us : float; (* microseconds since the last [reset] *)
  dur_us : float;
  span_args : (string * string) list;
}

(* Log-linear bucketed histogram (HDR-histogram style): each power-of-two
   binade [2^e, 2^(e+1)) is split into [hist_sub] equal-width sub-buckets,
   so any estimate read off a bucket is within half a sub-bucket of the
   true value — a relative error of at most 1/(2*hist_sub) ~ 3.1%.
   Values outside [2^hist_min_exp, 2^hist_max_exp) (including zero and
   negatives) land in the underflow/overflow buckets, whose estimates
   are pinned to the observed min/max, so quantile estimation is total
   and domain-safe for any float input (NaN observations are dropped). *)
let hist_sub = 16
let hist_min_exp = -20 (* 2^-20 ~ 1e-6: below timer/counter resolution *)
let hist_max_exp = 40 (* 2^40 ~ 1e12: above any count/µs we record *)
let hist_n_buckets = ((hist_max_exp - hist_min_exp) * hist_sub) + 2

(* index 0 = underflow, 1 .. n-2 = log-linear, n-1 = overflow *)
let bucket_index v =
  if not (Float.is_finite v) || v < Float.pow 2.0 (float_of_int hist_min_exp)
  then 0
  else if v >= Float.pow 2.0 (float_of_int hist_max_exp) then
    hist_n_buckets - 1
  else begin
    let m, e = Float.frexp v in
    (* v = m * 2^e with m in [0.5, 1): binade exponent is e - 1 and the
       position within the binade is 2m - 1 in [0, 1) *)
    let binade = e - 1 in
    let sub = int_of_float (((2.0 *. m) -. 1.0) *. float_of_int hist_sub) in
    let sub = max 0 (min (hist_sub - 1) sub) in
    1 + ((binade - hist_min_exp) * hist_sub) + sub
  end

(* inclusive-exclusive bounds of a log-linear bucket *)
let bucket_bounds i =
  if i <= 0 then (Float.neg_infinity, Float.pow 2.0 (float_of_int hist_min_exp))
  else if i >= hist_n_buckets - 1 then
    (Float.pow 2.0 (float_of_int hist_max_exp), Float.infinity)
  else begin
    let k = i - 1 in
    let binade = hist_min_exp + (k / hist_sub) in
    let sub = k mod hist_sub in
    let base = Float.pow 2.0 (float_of_int binade) in
    ( base *. (1.0 +. (float_of_int sub /. float_of_int hist_sub)),
      base *. (1.0 +. (float_of_int (sub + 1) /. float_of_int hist_sub)) )
  end

type histogram = {
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_min : float;
  mutable h_max : float;
  h_buckets : int array; (* length hist_n_buckets *)
}

type hist = {
  hist_count : int;
  hist_sum : float;
  hist_min : float;
  hist_max : float;
  hist_buckets : (float * int) list;
}

type counter = int Atomic.t
type gauge = int Atomic.t

let enabled = Atomic.make false
let registry_mutex = Mutex.create ()
let epoch = ref (Unix.gettimeofday ())
let next_id = Atomic.make 0

(* (id, depth), innermost first; one stack per domain *)
let open_stack_key : (int * int) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let open_stack () = Domain.DLS.get open_stack_key
let finished : span list ref = ref []
let counters : (string, counter) Hashtbl.t = Hashtbl.create 64
let gauges : (string, gauge) Hashtbl.t = Hashtbl.create 16
let histograms : (string, histogram) Hashtbl.t = Hashtbl.create 16

(* id -> (name, start_us, domain) for every span currently open in any
   domain; the flight recorder dumps this on a crash, where the DLS
   stacks of other domains are unreachable *)
let open_span_names : (int, string * float * int) Hashtbl.t = Hashtbl.create 16

let enable () = Atomic.set enabled true
let disable () = Atomic.set enabled false
let is_enabled () = Atomic.get enabled

(* [reset] zeroes values in place: counter handles pre-registered by
   instrumented modules stay valid across resets *)
let reset () =
  Mutex.protect registry_mutex @@ fun () ->
  epoch := Unix.gettimeofday ();
  Atomic.set next_id 0;
  (open_stack ()) := [];
  finished := [];
  Hashtbl.reset open_span_names;
  Hashtbl.iter (fun _ r -> Atomic.set r 0) counters;
  Hashtbl.iter (fun _ r -> Atomic.set r 0) gauges;
  Hashtbl.iter
    (fun _ h ->
      h.h_count <- 0;
      h.h_sum <- 0.0;
      h.h_min <- Float.infinity;
      h.h_max <- Float.neg_infinity;
      Array.fill h.h_buckets 0 hist_n_buckets 0)
    histograms

let now_us () = (Unix.gettimeofday () -. !epoch) *. 1e6

(* --- counters --- *)

let counter name =
  Mutex.protect registry_mutex @@ fun () ->
  match Hashtbl.find_opt counters name with
  | Some r -> r
  | None ->
    let r = Atomic.make 0 in
    Hashtbl.add counters name r;
    r

let add r by = if Atomic.get enabled then ignore (Atomic.fetch_and_add r by)
let tick r = add r 1
let count ?(by = 1) name = if Atomic.get enabled then add (counter name) by

let counter_value name =
  let r =
    Mutex.protect registry_mutex (fun () -> Hashtbl.find_opt counters name)
  in
  match r with Some r -> Atomic.get r | None -> 0

let counters_snapshot () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.fold (fun name r acc -> (name, Atomic.get r) :: acc) counters [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- gauges --- *)

(* A gauge is a level, not a rate: it goes up and down (in-flight
   requests, queue depth, connected clients) and exports its *current*
   value rather than a monotonic total.  Same cost model as counters:
   atomics behind the registry mutex only at find-or-create time, and a
   disabled update is one load + branch. *)

let gauge name =
  Mutex.protect registry_mutex @@ fun () ->
  match Hashtbl.find_opt gauges name with
  | Some r -> r
  | None ->
    let r = Atomic.make 0 in
    Hashtbl.add gauges name r;
    r

let set_gauge g v = if Atomic.get enabled then Atomic.set g v
let incr_gauge g = if Atomic.get enabled then ignore (Atomic.fetch_and_add g 1)

let decr_gauge g =
  if Atomic.get enabled then ignore (Atomic.fetch_and_add g (-1))

let gauge_value name =
  let r =
    Mutex.protect registry_mutex (fun () -> Hashtbl.find_opt gauges name)
  in
  match r with Some r -> Atomic.get r | None -> 0

let gauges_snapshot () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.fold (fun name r acc -> (name, Atomic.get r) :: acc) gauges [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* --- histograms --- *)

let observe name v =
  if Atomic.get enabled && not (Float.is_nan v) then
    Mutex.protect registry_mutex @@ fun () ->
    let h =
      match Hashtbl.find_opt histograms name with
      | Some h -> h
      | None ->
        let h =
          {
            h_count = 0;
            h_sum = 0.0;
            h_min = Float.infinity;
            h_max = Float.neg_infinity;
            h_buckets = Array.make hist_n_buckets 0;
          }
        in
        Hashtbl.add histograms name h;
        h
    in
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    let i = bucket_index v in
    h.h_buckets.(i) <- h.h_buckets.(i) + 1

let snapshot_of_histogram h =
  let buckets = ref [] in
  for i = hist_n_buckets - 1 downto 0 do
    if h.h_buckets.(i) > 0 then
      buckets := (snd (bucket_bounds i), h.h_buckets.(i)) :: !buckets
  done;
  {
    hist_count = h.h_count;
    hist_sum = h.h_sum;
    hist_min = h.h_min;
    hist_max = h.h_max;
    hist_buckets = !buckets;
  }

let histograms_detailed () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.fold
        (fun name h acc ->
          if h.h_count > 0 then (name, snapshot_of_histogram h) :: acc else acc)
        histograms [])
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histogram_snapshot name =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt histograms name with
      | Some h when h.h_count > 0 -> Some (snapshot_of_histogram h)
      | _ -> None)

let histograms_snapshot () =
  List.map
    (fun (name, h) ->
      (name, (h.hist_count, h.hist_sum, h.hist_min, h.hist_max)))
    (histograms_detailed ())

(* Nearest-rank quantile over the bucket cumulative counts.  The estimate
   for an interior bucket is its midpoint, clamped to the observed
   [min, max]; the boundary buckets are pinned to min/max exactly, so a
   degenerate histogram (all observations equal) reports every quantile
   exactly and no estimate ever leaves the observed range. *)
let quantile h q =
  if h.hist_count = 0 then Float.nan
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let target =
      max 1 (int_of_float (Float.ceil (q *. float_of_int h.hist_count)))
    in
    let rec walk cum = function
      | [] -> h.hist_max
      | (ub, n) :: rest ->
        if cum + n >= target then begin
          (* recover the bucket's lower bound from its upper bound *)
          let est =
            if ub <= Float.pow 2.0 (float_of_int hist_min_exp) then h.hist_min
            else if Float.is_finite ub then begin
              let i = bucket_index (ub *. (1.0 -. (0.5 /. float_of_int hist_sub))) in
              let lb, ub' = bucket_bounds i in
              if Float.is_finite lb then (lb +. ub') /. 2.0 else h.hist_min
            end
            else h.hist_max
          in
          Float.max h.hist_min (Float.min h.hist_max est)
        end
        else walk (cum + n) rest
    in
    walk 0 h.hist_buckets
  end

(* --- spans --- *)

let push_span name start_us =
  let stack = open_stack () in
  let id = Atomic.fetch_and_add next_id 1 in
  let parent, depth =
    match !stack with
    | [] -> (-1, 0)
    | (p, d) :: _ -> (p, d + 1)
  in
  stack := (id, depth) :: !stack;
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.replace open_span_names id
        (name, start_us, (Domain.self () :> int)));
  (id, parent, depth)

let pop_span ~id ~parent ~depth ~name ~args ~start_us ~dur_us =
  let stack = open_stack () in
  (match !stack with
  | (top, _) :: rest when top = id -> stack := rest
  | _ ->
    (* unbalanced nesting (an inner span escaped); drop down to [id] *)
    let rec drop = function
      | (top, _) :: rest when top <> id -> drop rest
      | (_, _) :: rest -> rest
      | [] -> []
    in
    stack := drop !stack);
  let s = { id; parent; depth; name; start_us; dur_us; span_args = args } in
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.remove open_span_names id;
      finished := s :: !finished)

(* spans currently open across every domain, outermost-first per id *)
let open_spans () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.fold
        (fun id (name, start_us, dom) acc -> (id, name, start_us, dom) :: acc)
        open_span_names [])
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)

(* the innermost span open on *this* domain, for event-log context *)
let current_span_name () =
  match !(open_stack ()) with
  | [] -> None
  | (id, _) :: _ ->
    Mutex.protect registry_mutex (fun () ->
        Option.map
          (fun (name, _, _) -> name)
          (Hashtbl.find_opt open_span_names id))

let with_span ?(args = []) name f =
  if not (Atomic.get enabled) then f ()
  else begin
    let start_us = now_us () in
    let id, parent, depth = push_span name start_us in
    Fun.protect
      ~finally:(fun () ->
        let dur_us = now_us () -. start_us in
        pop_span ~id ~parent ~depth ~name ~args ~start_us ~dur_us)
      f
  end

(* Always measures wall time (cheaply, even when disabled) and returns the
   duration in seconds alongside the result; records a span only when
   enabled.  The recorded span duration and the returned duration are the
   same measurement, so views built over either agree exactly. *)
let with_span_timed ?(args = []) name f =
  if not (Atomic.get enabled) then begin
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  end
  else begin
    let start_us = now_us () in
    let id, parent, depth = push_span name start_us in
    let finish () = now_us () -. start_us in
    match f () with
    | r ->
      let dur_us = finish () in
      pop_span ~id ~parent ~depth ~name ~args ~start_us ~dur_us;
      (r, dur_us *. 1e-6)
    | exception e ->
      let dur_us = finish () in
      pop_span ~id ~parent ~depth ~name ~args ~start_us ~dur_us;
      raise e
  end

let finished_snapshot () =
  Mutex.protect registry_mutex (fun () -> !finished)

let spans () =
  List.sort
    (fun a b ->
      match compare a.start_us b.start_us with 0 -> compare a.id b.id | c -> c)
    (List.rev (finished_snapshot ()))

(* per-name rollup: (count, total self-inclusive microseconds) *)
let span_summary () =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let c, t =
        match Hashtbl.find_opt tbl s.name with
        | Some (c, t) -> (c, t)
        | None -> (0, 0.0)
      in
      Hashtbl.replace tbl s.name (c + 1, t +. s.dur_us))
    (finished_snapshot ());
  Hashtbl.fold (fun name ct acc -> (name, ct) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ------------------------------------------------------------------ *)
(* Run metadata                                                        *)
(* ------------------------------------------------------------------ *)

(* Who/when/what produced this output: stamped into stats JSON, bench
   reports and crash dumps so baselines and forensic artifacts are
   attributable.  The git commit is resolved by reading .git/HEAD (and
   the ref or packed-refs file it points to) — no subprocess, and a
   plain "unknown" outside a work tree. *)

let read_file_opt path =
  match open_in_bin path with
  | exception Sys_error _ -> None
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        match really_input_string ic (in_channel_length ic) with
        | s -> Some s
        | exception _ -> None)

let is_hex40 s =
  String.length s >= 40
  && String.for_all
       (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f'))
       (String.sub s 0 40)

let git_commit () =
  let rec find_git_dir dir depth =
    if depth > 16 then None
    else
      let dotgit = Filename.concat dir ".git" in
      if Sys.file_exists dotgit then
        if Sys.is_directory dotgit then Some dotgit
        else
          (* worktree: .git is a file "gitdir: <path>" *)
          Option.bind (read_file_opt dotgit) (fun text ->
              match String.split_on_char ':' (String.trim text) with
              | "gitdir" :: rest ->
                Some (String.trim (String.concat ":" rest))
              | _ -> None)
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else find_git_dir parent (depth + 1)
  in
  let resolve_ref git_dir ref_name =
    match read_file_opt (Filename.concat git_dir ref_name) with
    | Some sha when is_hex40 (String.trim sha) ->
      Some (String.sub (String.trim sha) 0 40)
    | _ -> (
      (* fall back to packed-refs: "<sha> <ref>" lines *)
      match read_file_opt (Filename.concat git_dir "packed-refs") with
      | None -> None
      | Some text ->
        String.split_on_char '\n' text
        |> List.find_map (fun line ->
               match String.index_opt line ' ' with
               | Some i
                 when String.sub line (i + 1) (String.length line - i - 1)
                      = ref_name
                      && is_hex40 line ->
                 Some (String.sub line 0 40)
               | _ -> None))
  in
  match find_git_dir (Sys.getcwd ()) 0 with
  | None -> None
  | Some git_dir -> (
    match read_file_opt (Filename.concat git_dir "HEAD") with
    | None -> None
    | Some head ->
      let head = String.trim head in
      if is_hex40 head then Some (String.sub head 0 40)
      else if String.length head > 5 && String.sub head 0 5 = "ref: " then
        resolve_ref git_dir
          (String.trim (String.sub head 5 (String.length head - 5)))
      else None)

let iso8601 t =
  let tm = Unix.gmtime t in
  Printf.sprintf "%04d-%02d-%02dT%02d:%02d:%02dZ" (tm.Unix.tm_year + 1900)
    (tm.Unix.tm_mon + 1) tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min
    tm.Unix.tm_sec

(* extra fields (e.g. "jobs") contributed by the frontends *)
let meta_extra : (string * Json.t) list ref = ref []
let meta_mutex = Mutex.create ()

let set_meta key v =
  Mutex.protect meta_mutex (fun () ->
      meta_extra := (key, v) :: List.remove_assoc key !meta_extra)

let run_meta () =
  let extra = Mutex.protect meta_mutex (fun () -> List.rev !meta_extra) in
  Json.Obj
    ([
       ("timestamp", Json.Str (iso8601 (Unix.gettimeofday ())));
       ( "git_commit",
         match git_commit () with Some c -> Json.Str c | None -> Json.Null );
       ( "hostname",
         Json.Str (try Unix.gethostname () with Unix.Unix_error _ -> "unknown")
       );
       ("pid", Json.Int (Unix.getpid ()));
       ("ocaml_version", Json.Str Sys.ocaml_version);
       ("os_type", Json.Str Sys.os_type);
     ]
    @ extra)

(* ------------------------------------------------------------------ *)
(* Structured event log + flight-recorder ring                         *)
(* ------------------------------------------------------------------ *)

module Event = struct
  type level = Debug | Info | Warn | Error

  let level_rank = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3

  let level_name = function
    | Debug -> "debug"
    | Info -> "info"
    | Warn -> "warn"
    | Error -> "error"

  let level_of_string = function
    | "debug" -> Some Debug
    | "info" -> Some Info
    | "warn" | "warning" -> Some Warn
    | "error" -> Some Error
    | _ -> None

  type sink = Null | Stderr | Chan of out_channel

  let log_mutex = Mutex.create ()
  let sink = ref Null
  let threshold = ref Info

  (* Flight-recorder ring: the last [ring_capacity] events, recorded
     unconditionally (independent of sink and level filter) so a crash
     dump has forensics even when no --log was given.  Bounded, so the
     steady-state cost is one array store per event. *)
  let ring_capacity = 256
  let ring : Json.t array = Array.make ring_capacity Json.Null
  let ring_next = ref 0
  let ring_len = ref 0

  let set_level l = Mutex.protect log_mutex (fun () -> threshold := l)

  let close_sink_locked () =
    match !sink with
    | Chan oc ->
      (try close_out_noerr oc with _ -> ());
      sink := Null
    | _ -> sink := Null

  let set_sink_path path =
    Mutex.protect log_mutex @@ fun () ->
    close_sink_locked ();
    match path with
    | "" | "off" | "null" -> Ok ()
    | "-" | "stderr" ->
      sink := Stderr;
      Ok ()
    | path -> (
      match open_out_gen [ Open_append; Open_creat ] 0o644 path with
      | oc ->
        sink := Chan oc;
        Ok ()
      | exception Sys_error msg -> Error msg)

  let close_sink () = Mutex.protect log_mutex close_sink_locked
  let () = at_exit close_sink

  let clear_ring () =
    Mutex.protect log_mutex (fun () ->
        ring_next := 0;
        ring_len := 0;
        Array.fill ring 0 ring_capacity Json.Null)

  let recent () =
    Mutex.protect log_mutex (fun () ->
        List.init !ring_len (fun i ->
            ring.((!ring_next - !ring_len + i + ring_capacity) mod ring_capacity)))

  let emit ?(fields = []) level event =
    (* span context first: current_span_name takes the registry mutex,
       never while holding the log mutex *)
    let span = current_span_name () in
    let doc =
      Json.Obj
        ([
           ("ts", Json.Float (Unix.gettimeofday ()));
           ("level", Json.Str (level_name level));
           ("event", Json.Str event);
           ("domain", Json.Int (Domain.self () :> int));
           ("span", match span with Some s -> Json.Str s | None -> Json.Null);
         ]
        @ fields)
    in
    Mutex.protect log_mutex @@ fun () ->
    ring.(!ring_next) <- doc;
    ring_next := (!ring_next + 1) mod ring_capacity;
    ring_len := min ring_capacity (!ring_len + 1);
    if level_rank level >= level_rank !threshold then begin
      match !sink with
      | Null -> ()
      | Stderr ->
        (try
           output_string stderr (Json.to_string doc);
           output_char stderr '\n';
           flush stderr
         with Sys_error _ -> ())
      | Chan oc -> (
        try
          output_string oc (Json.to_string doc);
          output_char oc '\n';
          flush oc
        with Sys_error _ -> close_sink_locked ())
    end

  let debug ?fields event = emit ?fields Debug event
  let info ?fields event = emit ?fields Info event
  let warn ?fields event = emit ?fields Warn event
  let error ?fields event = emit ?fields Error event

  (* POLYUFC_LOG=FILE|-|stderr arms the sink for every entry point (CLI,
     bench, tests) without plumbing; POLYUFC_LOG_LEVEL filters. *)
  let () =
    (match Sys.getenv_opt "POLYUFC_LOG_LEVEL" with
    | Some s -> (
      match level_of_string (String.lowercase_ascii (String.trim s)) with
      | Some l -> threshold := l
      | None ->
        Printf.eprintf "polyufc: warning: ignoring POLYUFC_LOG_LEVEL=%S\n%!" s)
    | None -> ());
    match Sys.getenv_opt "POLYUFC_LOG" with
    | None | Some "" -> ()
    | Some path -> (
      match set_sink_path path with
      | Ok () -> ()
      | Error msg ->
        Printf.eprintf "polyufc: warning: cannot open POLYUFC_LOG sink: %s\n%!"
          msg)
end

(* ------------------------------------------------------------------ *)
(* Export                                                              *)
(* ------------------------------------------------------------------ *)

(* Chrome trace_event format: complete ("X") events carry ts+dur in
   microseconds; final counter values ride along as "C" events so they
   show up as counter tracks in chrome://tracing / Perfetto. *)
let trace_json () =
  let span_events =
    List.map
      (fun s ->
        let base =
          [
            ("name", Json.Str s.name);
            ("cat", Json.Str "polyufc");
            ("ph", Json.Str "X");
            ("ts", Json.Float s.start_us);
            ("dur", Json.Float s.dur_us);
            ("pid", Json.Int 1);
            ("tid", Json.Int 1);
          ]
        in
        let args =
          match s.span_args with
          | [] -> []
          | l -> [ ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) l)) ]
        in
        Json.Obj (base @ args))
      (spans ())
  in
  let end_ts =
    List.fold_left
      (fun acc s -> Float.max acc (s.start_us +. s.dur_us))
      0.0 (finished_snapshot ())
  in
  let counter_events =
    List.filter_map
      (fun (name, v) ->
        if v = 0 then None
        else
          Some
            (Json.Obj
               [
                 ("name", Json.Str name);
                 ("cat", Json.Str "polyufc");
                 ("ph", Json.Str "C");
                 ("ts", Json.Float end_ts);
                 ("pid", Json.Int 1);
                 ("args", Json.Obj [ ("value", Json.Int v) ]);
               ]))
      (counters_snapshot ())
  in
  Json.Obj
    [
      ("traceEvents", Json.Arr (span_events @ counter_events));
      ("displayTimeUnit", Json.Str "ms");
    ]

let trace_to_string () = Json.to_string (trace_json ())

let write_trace path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (trace_to_string ()))

let quantile_points =
  [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p999", 0.999) ]

let json_of_hist h =
  let buckets =
    List.map
      (fun (ub, n) ->
        Json.Obj
          [
            ( "le",
              if Float.is_finite ub then Json.Float ub else Json.Str "+Inf" );
            ("n", Json.Int n);
          ])
      h.hist_buckets
  in
  Json.Obj
    ([
       ("count", Json.Int h.hist_count);
       ("sum", Json.Float h.hist_sum);
       ("min", Json.Float h.hist_min);
       ("max", Json.Float h.hist_max);
       ("mean", Json.Float (h.hist_sum /. float_of_int h.hist_count));
     ]
    @ List.map (fun (k, q) -> (k, Json.Float (quantile h q))) quantile_points
    @ [ ("buckets", Json.Arr buckets) ])

let stats_json () =
  let counters =
    List.filter_map
      (fun (name, v) -> if v = 0 then None else Some (name, Json.Int v))
      (counters_snapshot ())
  in
  let gauges =
    List.filter_map
      (fun (name, v) -> if v = 0 then None else Some (name, Json.Int v))
      (gauges_snapshot ())
  in
  let hists =
    List.map
      (fun (name, h) -> (name, json_of_hist h))
      (histograms_detailed ())
  in
  let spans =
    List.map
      (fun (name, (n, total_us)) ->
        ( name,
          Json.Obj
            [ ("count", Json.Int n); ("total_us", Json.Float total_us) ] ))
      (span_summary ())
  in
  Json.Obj
    [
      ("meta", run_meta ());
      ("counters", Json.Obj counters);
      ("gauges", Json.Obj gauges);
      ("histograms", Json.Obj hists);
      ("spans", Json.Obj spans);
    ]

(* --- OpenMetrics text exposition --- *)

(* https://prometheus.io/docs/instrumenting/exposition_formats/ — the
   subset a Prometheus/OpenMetrics scraper needs: [# TYPE] metadata,
   counters as [_total], histograms as cumulative [_bucket{le=...}] plus
   [_sum]/[_count], and a trailing [# EOF].  Metric names are sanitized
   (dots become underscores) and prefixed [polyufc_]. *)

let om_name name =
  let b = Buffer.create (String.length name + 8) in
  Buffer.add_string b "polyufc_";
  String.iteri
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> Buffer.add_char b c
      | '0' .. '9' when i > 0 -> Buffer.add_char b c
      | _ -> Buffer.add_char b '_')
    name;
  Buffer.contents b

let om_label_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let om_float v =
  if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let openmetrics_of_stats stats =
  let b = Buffer.create 4096 in
  let meta_line () =
    match Json.member "meta" stats with
    | Some (Json.Obj fields) ->
      let labels =
        List.filter_map
          (fun (k, v) ->
            match v with
            | Json.Str s ->
              Some (Printf.sprintf "%s=\"%s\"" k (om_label_escape s))
            | Json.Int n -> Some (Printf.sprintf "%s=\"%d\"" k n)
            | _ -> None)
          fields
      in
      if labels <> [] then begin
        Buffer.add_string b "# TYPE polyufc_build_info gauge\n";
        Buffer.add_string b
          (Printf.sprintf "polyufc_build_info{%s} 1\n"
             (String.concat "," labels))
      end
    | _ -> ()
  in
  let counters () =
    match Json.member "counters" stats with
    | Some (Json.Obj cs) ->
      List.iter
        (fun (name, v) ->
          match Json.number v with
          | Some n ->
            let m = om_name name in
            Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" m);
            Buffer.add_string b
              (Printf.sprintf "%s_total %s\n" m (om_float n))
          | None -> ())
        cs
    | _ -> ()
  in
  let gauges () =
    match Json.member "gauges" stats with
    | Some (Json.Obj gs) ->
      List.iter
        (fun (name, v) ->
          match Json.number v with
          | Some n ->
            let m = om_name name in
            Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" m);
            Buffer.add_string b (Printf.sprintf "%s %s\n" m (om_float n))
          | None -> ())
        gs
    | _ -> ()
  in
  let histogram name h =
    let m = om_name name in
    Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" m);
    let cum = ref 0 in
    (match Json.member "buckets" h with
    | Some (Json.Arr buckets) ->
      List.iter
        (fun bkt ->
          let le =
            match Json.member "le" bkt with
            | Some (Json.Str "+Inf") -> "+Inf"
            | Some v -> (
              match Json.number v with
              | Some f -> om_float f
              | None -> "+Inf")
            | None -> "+Inf"
          in
          let n =
            match Option.bind (Json.member "n" bkt) Json.number with
            | Some f -> int_of_float f
            | None -> 0
          in
          cum := !cum + n;
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" m le !cum))
        buckets
    | _ -> ());
    let count =
      match Option.bind (Json.member "count" h) Json.number with
      | Some f -> int_of_float f
      | None -> !cum
    in
    if count > !cum then
      (* buckets list omits empty buckets but must end cumulative-complete *)
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m count)
    else if
      (match Json.member "buckets" h with
      | Some (Json.Arr []) | None -> true
      | Some (Json.Arr l) -> (
        match List.rev l with
        | last :: _ -> Json.member "le" last <> Some (Json.Str "+Inf")
        | [] -> true)
      | _ -> true)
    then
      Buffer.add_string b
        (Printf.sprintf "%s_bucket{le=\"+Inf\"} %d\n" m count);
    (match Option.bind (Json.member "sum" h) Json.number with
    | Some s -> Buffer.add_string b (Printf.sprintf "%s_sum %s\n" m (om_float s))
    | None -> ());
    Buffer.add_string b (Printf.sprintf "%s_count %d\n" m count)
  in
  let histograms () =
    match Json.member "histograms" stats with
    | Some (Json.Obj hs) -> List.iter (fun (name, h) -> histogram name h) hs
    | _ -> ()
  in
  let spans () =
    match Json.member "spans" stats with
    | Some (Json.Obj ss) ->
      List.iter
        (fun (name, s) ->
          let m = om_name ("span_" ^ name) in
          (match Option.bind (Json.member "count" s) Json.number with
          | Some n ->
            Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" m);
            Buffer.add_string b
              (Printf.sprintf "%s_total %s\n" m (om_float n))
          | None -> ());
          match Option.bind (Json.member "total_us" s) Json.number with
          | Some us ->
            Buffer.add_string b
              (Printf.sprintf "# TYPE %s_seconds counter\n" m);
            Buffer.add_string b
              (Printf.sprintf "%s_seconds_total %s\n" m (om_float (us *. 1e-6)))
          | None -> ())
        ss
    | _ -> ()
  in
  match stats with
  | Json.Obj _ ->
    meta_line ();
    counters ();
    gauges ();
    histograms ();
    spans ();
    Buffer.add_string b "# EOF\n";
    Ok (Buffer.contents b)
  | _ -> Error "stats document is not a JSON object"

let to_openmetrics () =
  match openmetrics_of_stats (stats_json ()) with
  | Ok s -> s
  | Error msg -> invalid_arg ("Telemetry.to_openmetrics: " ^ msg)

(* --- text views --- *)

let pp_duration ppf us =
  if us >= 1e6 then Format.fprintf ppf "%.3f s" (us *. 1e-6)
  else if us >= 1e3 then Format.fprintf ppf "%.3f ms" (us *. 1e-3)
  else Format.fprintf ppf "%.1f us" us

let pp_tree ppf () =
  let all = spans () in
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let l = try Hashtbl.find children s.parent with Not_found -> [] in
      Hashtbl.replace children s.parent (s :: l))
    (List.rev all);
  let rec pp_node prefix s =
    Format.fprintf ppf "%s%s  [%a]" prefix s.name pp_duration s.dur_us;
    List.iter (fun (k, v) -> Format.fprintf ppf " %s=%s" k v) s.span_args;
    Format.fprintf ppf "@,";
    let kids = try Hashtbl.find children s.id with Not_found -> [] in
    List.iter (pp_node (prefix ^ "  ")) kids
  in
  Format.fprintf ppf "@[<v>";
  List.iter (fun s -> if s.parent = -1 then pp_node "" s) all;
  Format.fprintf ppf "@]"

let pp_stats ppf () =
  Format.fprintf ppf "@[<v>telemetry counters:@,";
  List.iter
    (fun (name, v) ->
      if v <> 0 then Format.fprintf ppf "  %-36s %d@," name v)
    (counters_snapshot ());
  (match List.filter (fun (_, v) -> v <> 0) (gauges_snapshot ()) with
  | [] -> ()
  | gs ->
    Format.fprintf ppf "telemetry gauges:@,";
    List.iter (fun (name, v) -> Format.fprintf ppf "  %-36s %d@," name v) gs);
  (match histograms_detailed () with
  | [] -> ()
  | hs ->
    Format.fprintf ppf "telemetry histograms:@,";
    List.iter
      (fun (name, h) ->
        Format.fprintf ppf
          "  %-36s n=%d mean=%.3g min=%.3g max=%.3g p50=%.3g p90=%.3g \
           p99=%.3g p999=%.3g@,"
          name h.hist_count
          (h.hist_sum /. float_of_int h.hist_count)
          h.hist_min h.hist_max (quantile h 0.5) (quantile h 0.9)
          (quantile h 0.99) (quantile h 0.999))
      hs);
  (match span_summary () with
  | [] -> ()
  | ss ->
    Format.fprintf ppf "telemetry spans:@,";
    List.iter
      (fun (name, (n, total_us)) ->
        Format.fprintf ppf "  %-36s n=%d total=%a@," name n pp_duration total_us)
      ss);
  Format.fprintf ppf "@]"
