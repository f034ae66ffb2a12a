(* Smoke checker for `polyufc ... --json` output: the file must parse as
   JSON and carry the expected top-level fields.  An argument of the form
   key=value additionally asserts the field's (stringified) value — used
   by the deadline smoke rule to pin "fidelity=degraded".  Exit 0 on
   success.

   `json_smoke --lines FILE [N] [--require=ev1,ev2,...]` instead checks
   a JSON-lines event log: every non-empty line must parse as a JSON
   object carrying the event envelope fields (ts, level, event), and
   there must be at least N lines (default 1).  With --require, each
   named event must additionally occur on at least one line — used to
   pin lifecycle sequences like serve.start/serve.drain/serve.stop.

   `json_smoke --same FILE FILE...` checks that every file holds the
   same JSON document once each "timing" member (wall-clock figures) is
   dropped — used to pin that a result-store hit reproduces an uncached
   run.

   A required key may be a dotted path into nested objects, e.g.
   kinds.sim/v1. *)

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let check_lines path min_count required =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let lines =
    String.split_on_char '\n' text
    |> List.filter (fun l -> String.trim l <> "")
  in
  let seen = Hashtbl.create 16 in
  List.iteri
    (fun i line ->
      match Telemetry.Json.of_string line with
      | Error msg -> fail "%s:%d: invalid JSON line: %s" path (i + 1) msg
      | Ok (Telemetry.Json.Obj _ as doc) ->
        List.iter
          (fun key ->
            if Telemetry.Json.member key doc = None then
              fail "%s:%d: event missing %S field" path (i + 1) key)
          [ "ts"; "level"; "event" ];
        (match Telemetry.Json.member "event" doc with
        | Some (Telemetry.Json.Str name) -> Hashtbl.replace seen name ()
        | _ -> ())
      | Ok _ -> fail "%s:%d: event line is not a JSON object" path (i + 1))
    lines;
  if List.length lines < min_count then
    fail "%s: expected at least %d event line(s), found %d" path min_count
      (List.length lines);
  List.iter
    (fun name ->
      if not (Hashtbl.mem seen name) then
        fail "%s: required event %S never occurred" path name)
    required;
  Printf.printf "%s: ok (%d event lines)\n" path (List.length lines);
  exit 0

let read_json path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Telemetry.Json.of_string text with
  | Ok doc -> doc
  | Error msg -> fail "%s: invalid JSON: %s" path msg

let rec without_timing = function
  | Telemetry.Json.Obj fields ->
    Telemetry.Json.Obj
      (List.filter_map
         (fun (k, v) ->
           if k = "timing" then None else Some (k, without_timing v))
         fields)
  | Telemetry.Json.Arr items ->
    Telemetry.Json.Arr (List.map without_timing items)
  | j -> j

let check_same = function
  | [] | [ _ ] -> fail "usage: json_smoke --same FILE FILE..."
  | first :: rest ->
    let reference = without_timing (read_json first) in
    List.iter
      (fun path ->
        if compare (without_timing (read_json path)) reference <> 0 then
          fail "%s differs from %s (timing ignored)" path first)
      rest;
    Printf.printf "%s: ok (%d identical)\n" first (List.length rest + 1);
    exit 0

let string_of_json = function
  | Telemetry.Json.Str s -> s
  | Telemetry.Json.Int i -> string_of_int i
  | Telemetry.Json.Bool b -> string_of_bool b
  | Telemetry.Json.Float f -> string_of_float f
  | Telemetry.Json.Null -> "null"
  | j -> Telemetry.Json.to_string j

let () =
  (match Array.to_list Sys.argv with
  | _ :: "--lines" :: path :: rest ->
    let usage () =
      fail "usage: json_smoke --lines FILE [min-count] [--require=ev1,ev2,...]"
    in
    let min_count = ref 1 and required = ref [] in
    List.iter
      (fun a ->
        if String.length a > 10 && String.sub a 0 10 = "--require=" then
          required :=
            !required
            @ (String.sub a 10 (String.length a - 10)
              |> String.split_on_char ','
              |> List.filter (fun s -> s <> ""))
        else
          match int_of_string_opt a with
          | Some n when n >= 0 -> min_count := n
          | _ -> usage ())
      rest;
    check_lines path !min_count !required
  | _ :: "--same" :: paths -> check_same paths
  | _ -> ());
  let path, checks =
    match Array.to_list Sys.argv with
    | _ :: path :: keys -> (path, keys)
    | _ -> fail "usage: json_smoke FILE [required-key | key=value ...]"
  in
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  match Telemetry.Json.of_string text with
  | Error msg -> fail "%s: invalid JSON: %s" path msg
  | Ok doc ->
    List.iter
      (fun check ->
        let key, expected =
          match String.index_opt check '=' with
          | Some i ->
            ( String.sub check 0 i,
              Some (String.sub check (i + 1) (String.length check - i - 1)) )
          | None -> (check, None)
        in
        let lookup =
          List.fold_left
            (fun j k -> Option.bind j (Telemetry.Json.member k))
            (Some doc)
            (String.split_on_char '.' key)
        in
        match (lookup, expected) with
        | None, _ -> fail "%s: missing required key %S" path key
        | Some _, None -> ()
        | Some v, Some expected ->
          let got = string_of_json v in
          if got <> expected then
            fail "%s: key %S is %S, expected %S" path key got expected)
      checks;
    Printf.printf "%s: ok (%d bytes)\n" path len
