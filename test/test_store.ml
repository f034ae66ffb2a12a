(* Tests for the multi-tier result store: sharded layout + flat-layout
   migration, the in-memory LRU tier, the read-only upstream tier with
   promotion, the append-only index (load, corruption, rebuild), the
   size-bounded LRU garbage collector and its crash-consistency under
   FAULTSIM kill points, the bounded quarantine, and the per-directory
   counter sidecars. *)

module R = Engine.Rcache
module FS = Engine.Faultsim
module J = Telemetry.Json

let fresh_dir () = Filename.temp_dir "polyufc_store_test" ""

let plan_of_string s =
  match FS.parse_plan s with
  | Ok p -> p
  | Error msg -> Alcotest.failf "bad fault plan in test: %s" msg

(* payload of a tunable size so byte watermarks are easy to hit *)
let payload i = J.Obj [ ("i", J.Int i); ("pad", J.Str (String.make 64 'p')) ]

let populate ?kind c n =
  List.init n (fun i ->
      let k = R.key [ ("entry", string_of_int i) ] in
      R.store ?kind c k (payload i);
      (k, payload i))

(* ---------- sharded layout + migration ---------- *)

let test_sharded_layout () =
  FS.suspended @@ fun () ->
  let c = R.create ~dir:(fresh_dir ()) () in
  let k = R.key [ ("t", "shard") ] in
  R.store c k (J.Int 1);
  let path = R.entry_path c k in
  Alcotest.(check bool) "entry at the sharded path" true (Sys.file_exists path);
  Alcotest.(check string) "shard dir is the first two hex chars"
    (String.sub k 0 2)
    (Filename.basename (Filename.dirname path))

let test_flat_migration () =
  FS.suspended @@ fun () ->
  (* build a flat-layout store by hand: what PR <= 9 left on disk *)
  let dir = fresh_dir () in
  let entries =
    List.init 5 (fun i ->
        let k = R.key [ ("flat", string_of_int i) ] in
        let payload = payload i in
        let doc =
          J.Obj
            [
              ("schema", J.Int R.schema_version);
              ( "checksum",
                J.Str (Digest.to_hex (Digest.string (J.to_string payload))) );
              ("payload", payload);
            ]
        in
        let oc = open_out_bin (Filename.concat dir (k ^ ".json")) in
        output_string oc (J.to_string doc);
        close_out oc;
        (k, J.to_string doc))
  in
  let c = R.create ~dir () in
  Alcotest.(check int) "all flat entries migrated" 5 (R.migrate c);
  List.iter
    (fun (k, original) ->
      Alcotest.(check bool) "flat path gone" false
        (Sys.file_exists (Filename.concat dir (k ^ ".json")));
      let ic = open_in_bin (R.entry_path c k) in
      let text = really_input_string ic (in_channel_length ic) in
      close_in ic;
      Alcotest.(check string) "migrated file byte-identical" original text;
      Alcotest.(check bool) "served after migration" true (R.find c k <> None))
    entries;
  Alcotest.(check int) "stats see every migrated entry" 5 (R.stats c).R.entries;
  (* a second open of the same dir has nothing left to migrate *)
  Alcotest.(check int) "migration is idempotent" 0
    (R.migrate (R.create ~dir ()))

(* ---------- memory tier ---------- *)

let test_mem_tier_lru () =
  FS.suspended @@ fun () ->
  let c = R.create ~dir:(fresh_dir ()) ~mem_entries:3 ~mem_bytes:max_int () in
  let stored = populate c 5 in
  (* capacity 3: only the 3 most recently stored survive in memory *)
  let m = R.mem_stats c in
  Alcotest.(check int) "mem tier holds at most 3" 3 m.R.entries;
  (* hits are served even for evicted keys (from disk), and every hit
     matches what was stored *)
  List.iter
    (fun (k, p) ->
      match R.find c k with
      | Some got ->
        Alcotest.(check string) "hit matches" (J.to_string p) (J.to_string got)
      | None -> Alcotest.fail "stored entry lost")
    stored

let test_mem_tier_serves_without_disk () =
  FS.suspended @@ fun () ->
  let dir = fresh_dir () in
  let c = R.create ~dir () in
  let k = R.key [ ("t", "memonly") ] in
  R.store c k (J.Int 9);
  (* wipe the disk behind the store's back: the mem tier still serves *)
  Sys.remove (R.entry_path c k);
  Alcotest.(check bool) "mem tier serves after disk loss" true
    (R.find c k = Some (J.Int 9))

(* ---------- upstream tier ---------- *)

let test_upstream_promotion () =
  FS.suspended @@ fun () ->
  let updir = fresh_dir () in
  let up = R.create ~dir:updir () in
  let k = R.key [ ("t", "upstream") ] in
  R.store up k (J.Int 42);
  let upstream_file = R.entry_path up k in
  let read_bytes path =
    let ic = open_in_bin path in
    let t = really_input_string ic (in_channel_length ic) in
    close_in ic;
    t
  in
  let upstream_bytes = read_bytes upstream_file in
  let local = R.create ~dir:(fresh_dir ()) ~upstream:updir () in
  let before = R.counts_for local in
  Alcotest.(check bool) "upstream hit served" true
    (R.find local k = Some (J.Int 42));
  let after = R.counts_for local in
  Alcotest.(check int) "upstream hit counted" (before.R.upstream_hits + 1)
    after.R.upstream_hits;
  Alcotest.(check int) "promotion counted" (before.R.promotions + 1)
    after.R.promotions;
  (* promoted into the local disk tier, byte-identical to the original *)
  Alcotest.(check bool) "promoted locally" true
    (Sys.file_exists (R.entry_path local k));
  Alcotest.(check string) "promoted file byte-identical" upstream_bytes
    (read_bytes (R.entry_path local k));
  (* nothing was written upstream *)
  Alcotest.(check int) "upstream untouched" 1 (R.stats up).R.entries;
  Alcotest.(check string) "upstream file unchanged" upstream_bytes
    (read_bytes upstream_file)

let test_upstream_corruption_is_a_miss () =
  FS.suspended @@ fun () ->
  let updir = fresh_dir () in
  let up = R.create ~dir:updir () in
  let k = R.key [ ("t", "upcorrupt") ] in
  R.store up k (J.Int 1);
  let oc = open_out_bin (R.entry_path up k) in
  output_string oc "{ not json";
  close_out oc;
  let local = R.create ~dir:(fresh_dir ()) ~upstream:updir () in
  Alcotest.(check bool) "corrupt upstream entry = miss" true
    (R.find local k = None);
  (* never quarantined into (or out of) someone else's store *)
  Alcotest.(check bool) "no quarantine dir upstream" false
    (Sys.file_exists (R.quarantine_dir up));
  Alcotest.(check bool) "corrupt upstream file left in place" true
    (Sys.file_exists (R.entry_path up k))

(* ---------- index ---------- *)

let test_stats_survive_reopen () =
  FS.suspended @@ fun () ->
  let dir = fresh_dir () in
  let c = R.create ~dir () in
  ignore (populate c 4);
  (* a kind no writer emits any more (chamber entries of earlier builds)
     is still indexed, counted and collected like any other *)
  ignore (populate ~kind:"symbolic/v1" c 2);
  let s = R.stats c in
  (* a fresh handle loads the index and sees the same census *)
  let c2 = R.create ~dir () in
  let s2 = R.stats c2 in
  Alcotest.(check int) "entries survive reopen" s.R.entries s2.R.entries;
  Alcotest.(check int) "bytes survive reopen" s.R.bytes s2.R.bytes;
  let kinds = R.stats_by_kind c2 in
  Alcotest.(check int) "numeric census"
    (* populate 4 then 2 reuse keys 0..: the symbolic stores overwrite
       entries 0 and 1, retagging them *)
    2
    (match List.assoc_opt R.kind_numeric kinds with
    | Some ks -> ks.R.entries
    | None -> 0);
  Alcotest.(check int) "symbolic census" 2
    (match List.assoc_opt "symbolic/v1" kinds with
    | Some ks -> ks.R.entries
    | None -> 0);
  let r = R.gc ~max_entries:0 c2 in
  Alcotest.(check int) "gc evicts every kind" 4 r.R.evicted;
  Alcotest.(check int) "store empty after gc" 0 (R.stats c2).R.entries

let test_index_corruption_rebuilds () =
  FS.suspended @@ fun () ->
  let dir = fresh_dir () in
  let c = R.create ~dir () in
  let stored = populate c 6 in
  (* scribble over the index *)
  let index = Filename.concat (Filename.concat dir "meta") "index" in
  Alcotest.(check bool) "index exists" true (Sys.file_exists index);
  let oc = open_out_bin index in
  output_string oc "polyufc-index/v1\ngarbage line\n+ zz nope\n";
  close_out oc;
  let before = (R.counts ()).R.index_rebuilds in
  let c2 = R.create ~dir () in
  Alcotest.(check int) "census recovered by rebuild" 6 (R.stats c2).R.entries;
  Alcotest.(check bool) "rebuild counted" true
    ((R.counts ()).R.index_rebuilds > before);
  List.iter
    (fun (k, p) ->
      Alcotest.(check bool) "hits identical after rebuild" true
        (match R.find c2 k with
        | Some got -> J.to_string got = J.to_string p
        | None -> false))
    stored

let test_index_append_fault_is_survived () =
  (* every index append torn mid-line: the store must keep serving, and
     a reopen must rebuild to the true census *)
  let dir = fresh_dir () in
  let stored =
    FS.with_plan (plan_of_string "rcache.index_corrupt:1:11") (fun () ->
        let c = R.create ~dir ~mem_entries:0 () in
        let stored = populate c 5 in
        List.iter
          (fun (k, p) ->
            Alcotest.(check bool) "serves under index chaos" true
              (match R.find c k with
              | Some got -> J.to_string got = J.to_string p
              | None -> false))
          stored;
        stored)
  in
  FS.suspended @@ fun () ->
  let c2 = R.create ~dir () in
  Alcotest.(check int) "reopen rebuilds the full census" 5
    (R.stats c2).R.entries;
  List.iter
    (fun (k, p) ->
      Alcotest.(check bool) "identical hits after rebuild" true
        (match R.find c2 k with
        | Some got -> J.to_string got = J.to_string p
        | None -> false))
    stored

(* ---------- GC ---------- *)

let test_gc_to_entry_watermark () =
  FS.suspended @@ fun () ->
  let c = R.create ~dir:(fresh_dir ()) ~mem_entries:0 () in
  let stored = populate c 10 in
  (* touch entries 0..4 so 5..9 are the LRU half *)
  List.iteri (fun i (k, _) -> if i < 5 then ignore (R.find c k)) stored;
  let r = R.gc ~max_entries:5 c in
  Alcotest.(check int) "evicted down to the watermark" 5 r.R.evicted;
  Alcotest.(check int) "live entries at the watermark" 5 r.R.live_entries;
  Alcotest.(check bool) "not interrupted" false r.R.interrupted;
  (* exactly the recently-touched half survived *)
  List.iteri
    (fun i (k, _) ->
      Alcotest.(check bool)
        (Printf.sprintf "entry %d %s" i (if i < 5 then "survives" else "evicted"))
        (i < 5)
        (R.find c k <> None))
    stored

let test_gc_to_byte_watermark () =
  FS.suspended @@ fun () ->
  let dir = fresh_dir () in
  let c = R.create ~dir ~mem_entries:0 () in
  ignore (populate c 12);
  let total = (R.stats c).R.bytes in
  let watermark = total / 3 in
  let r = R.gc ~max_bytes:watermark c in
  Alcotest.(check bool) "under the byte watermark" true
    (r.R.live_bytes <= watermark);
  Alcotest.(check bool) "evicted something" true (r.R.evicted > 0);
  (* the index census agrees with the disk after the sweep *)
  let on_disk = ref 0 in
  Array.iter
    (fun d ->
      let p = Filename.concat dir d in
      if Sys.is_directory p && d <> "meta" && d <> "quarantine" then
        on_disk := !on_disk + Array.length (Sys.readdir p))
    (Sys.readdir dir);
  Alcotest.(check int) "index = disk" !on_disk (R.stats c).R.entries

let test_gc_crash_is_recoverable () =
  (* a sweep killed after each file removal (before its index record):
     reopening must rebuild and serve exactly the survivors *)
  let dir = fresh_dir () in
  FS.suspended (fun () ->
      ignore (populate (R.create ~dir ~mem_entries:0 ()) 8));
  let stored_keys = List.init 8 (fun i -> R.key [ ("entry", string_of_int i) ]) in
  FS.with_plan (plan_of_string "rcache.gc_crash:1:13") (fun () ->
      let c = R.create ~dir ~mem_entries:0 () in
      let r = R.gc ~max_entries:2 c in
      Alcotest.(check bool) "sweep reports the interruption" true
        r.R.interrupted);
  FS.suspended @@ fun () ->
  let c2 = R.create ~dir ~mem_entries:0 () in
  (* exactly one file was removed before the kill point fired *)
  Alcotest.(check int) "one victim removed before the crash" 7
    (R.stats c2).R.entries;
  let served =
    List.filter (fun k -> R.find c2 k <> None) stored_keys |> List.length
  in
  Alcotest.(check int) "every survivor still serves" 7 served;
  (* and a clean GC finishes the job *)
  let r = R.gc ~max_entries:2 c2 in
  Alcotest.(check int) "resumed sweep reaches the watermark" 2 r.R.live_entries

let test_opportunistic_gc_on_store () =
  FS.suspended @@ fun () ->
  (* watermark ~3 entries of this payload size: storing 10 must keep the
     store bounded without any explicit gc call *)
  let entry_bytes = 120 in
  let c =
    R.create ~dir:(fresh_dir ()) ~mem_entries:0
      ~max_bytes:(3 * entry_bytes) ()
  in
  ignore (populate c 10);
  let s = R.stats c in
  Alcotest.(check bool)
    (Printf.sprintf "store stays bounded (%d bytes)" s.R.bytes)
    true
    (s.R.bytes <= 3 * entry_bytes);
  Alcotest.(check bool) "evictions happened" true
    ((R.counts ()).R.evictions > 0)

(* QCheck: for random stores/touches and a random entry watermark, GC
   keeps exactly a suffix of the LRU order — no entry is evicted while a
   less recently used one survives, and the survivor count matches the
   watermark *)
let qcheck_gc_lru =
  let gen =
    QCheck.Gen.(
      let* n_entries = int_range 1 20 in
      let* touches = list_size (int_range 0 30) (int_range 0 (n_entries - 1)) in
      let* watermark = int_range 1 20 in
      return (n_entries, touches, watermark))
  in
  let arb =
    QCheck.make
      ~print:(fun (n, touches, wm) ->
        Printf.sprintf "entries=%d touches=[%s] watermark=%d" n
          (String.concat ";" (List.map string_of_int touches))
          wm)
      gen
  in
  QCheck.Test.make ~name:"gc evicts exactly an LRU prefix, never above the cut"
    ~count:60 arb
    (fun (n_entries, touches, watermark) ->
      FS.suspended @@ fun () ->
      let c = R.create ~dir:(fresh_dir ()) ~mem_entries:0 () in
      let keys =
        Array.init n_entries (fun i -> R.key [ ("e", string_of_int i) ])
      in
      Array.iteri (fun i k -> R.store c k (payload i)) keys;
      (* last-use order: store order, then the touch tape *)
      let order = ref (List.init n_entries Fun.id) in
      List.iter
        (fun i ->
          ignore (R.find c keys.(i));
          order := List.filter (fun j -> j <> i) !order @ [ i ])
        touches;
      let r = R.gc ~max_entries:watermark c in
      let expected_live = min n_entries watermark in
      if r.R.live_entries <> expected_live then
        QCheck.Test.fail_reportf "live=%d, want %d" r.R.live_entries
          expected_live;
      (* survivors must be exactly the most-recently-used suffix *)
      let expected_evicted = n_entries - expected_live in
      List.iteri
        (fun pos i ->
          let survives = R.find c keys.(i) <> None in
          let should_survive = pos >= expected_evicted in
          if survives <> should_survive then
            QCheck.Test.fail_reportf
              "entry %d at LRU position %d: survives=%b, want %b" i pos
              survives should_survive)
        !order;
      true)

(* ---------- quarantine bound ---------- *)

let test_quarantine_bounded () =
  FS.suspended @@ fun () ->
  let dir = fresh_dir () in
  let c = R.create ~dir ~mem_entries:0 ~quarantine_keep:3 () in
  let before = (R.counts ()).R.quarantine_dropped in
  (* corrupt 6 entries one by one; each find quarantines one file *)
  List.iter
    (fun i ->
      let k = R.key [ ("q", string_of_int i) ] in
      R.store c k (payload i);
      let oc = open_out_bin (R.entry_path c k) in
      output_string oc "{ not json";
      close_out oc;
      Alcotest.(check bool) "corrupt = miss" true (R.find c k = None))
    [ 0; 1; 2; 3; 4; 5 ];
  let q = Sys.readdir (R.quarantine_dir c) in
  Alcotest.(check bool)
    (Printf.sprintf "quarantine bounded (%d files)" (Array.length q))
    true
    (Array.length q <= 3);
  Alcotest.(check bool) "drops counted" true
    ((R.counts ()).R.quarantine_dropped >= before + 3)

(* ---------- per-directory counters ---------- *)

let test_flush_counters_per_dir () =
  FS.suspended @@ fun () ->
  (* two stores in one process: each directory's sidecar must get its
     own events, not the union attributed to the last-used one *)
  let dir_a = fresh_dir () and dir_b = fresh_dir () in
  let a = R.create ~dir:dir_a ~mem_entries:0 () in
  let b = R.create ~dir:dir_b ~mem_entries:0 () in
  let ka = R.key [ ("t", "a") ] in
  let kb = R.key [ ("t", "b") ] in
  R.store a ka (J.Int 1);
  ignore (R.find a ka);
  (* dir_a: 1 store, 1 hit *)
  R.store b kb (J.Int 2);
  ignore (R.find b kb);
  ignore (R.find b (R.key [ ("t", "missing") ]));
  (* dir_b: 1 store, 1 hit, 1 miss *)
  R.flush_counters ();
  (* fresh handles read only the sidecars (process counters were zeroed
     by the flush) *)
  let ca = R.cumulative (R.create ~dir:dir_a ()) in
  let cb = R.cumulative (R.create ~dir:dir_b ()) in
  Alcotest.(check int) "dir A stores" 1 ca.R.stores;
  Alcotest.(check int) "dir A hits" 1 ca.R.hits;
  Alcotest.(check int) "dir A misses" 0 ca.R.misses;
  Alcotest.(check int) "dir B stores" 1 cb.R.stores;
  Alcotest.(check int) "dir B hits" 1 cb.R.hits;
  Alcotest.(check int) "dir B misses" 1 cb.R.misses;
  (* double flush must not double count *)
  R.flush_counters ();
  let ca2 = R.cumulative (R.create ~dir:dir_a ()) in
  Alcotest.(check int) "flush is idempotent" ca.R.hits ca2.R.hits

(* ---------- the shared log: bounded history, counters, no tree walk ---------- *)

let index_lines dir =
  let ic = open_in_bin (Filename.concat (Filename.concat dir "meta") "index") in
  let rec go n =
    match input_line ic with
    | _ -> go (n + 1)
    | exception End_of_file ->
      close_in ic;
      n
  in
  go 0

let test_short_lived_handles_stay_bounded () =
  FS.suspended @@ fun () ->
  (* each iteration is one warm process: open, one disk hit (a touch
     record), exit flush (a counter line); the log must not keep the
     history of every process that ever used the store *)
  let dir = fresh_dir () in
  let stored = populate (R.create ~dir ()) 3 in
  R.flush_counters ();
  let k, _ = List.hd stored in
  for _ = 1 to 500 do
    let c = R.create ~dir () in
    if R.find c k = None then Alcotest.fail "warm hit lost";
    R.flush_counters ()
  done;
  let live = 3 in
  let lines = index_lines dir in
  Alcotest.(check bool)
    (Printf.sprintf "index log bounded (%d lines)" lines)
    true
    (lines <= 64 + (4 * live) + 8);
  let c = R.create ~dir () in
  Alcotest.(check int) "entries intact" live (R.stats c).R.entries;
  let k = R.cumulative c in
  Alcotest.(check int) "every hit counted across compactions" 500 k.R.hits;
  Alcotest.(check int) "stores counted" 3 k.R.stores

let test_concurrent_flushes_lose_nothing () =
  FS.suspended @@ fun () ->
  let dir = fresh_dir () in
  R.store (R.create ~dir ()) (R.key [ ("t", "shared") ]) (J.Int 1);
  R.flush_counters ();
  let helper =
    Filename.concat (Filename.dirname Sys.executable_name) "store_flush_helper.exe"
  in
  (* without the suite's background fault plan, if any *)
  let env =
    Array.of_list
      (List.filter
         (fun v -> not (String.starts_with ~prefix:"FAULTSIM=" v))
         (Array.to_list (Unix.environment ())))
  in
  let spawn () =
    Unix.create_process_env helper [| helper; dir; "1000" |] env Unix.stdin
      Unix.stdout Unix.stderr
  in
  let pids = [ spawn (); spawn () ] in
  List.iter
    (fun pid ->
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> ()
      | _ -> Alcotest.fail "flush helper failed")
    pids;
  let k = R.cumulative (R.create ~dir ()) in
  Alcotest.(check int) "2 x 1000 concurrently flushed hits" 2000 k.R.hits;
  Alcotest.(check int) "no bad lines" 0 k.R.index_bad_lines

let test_find_only_never_walks_the_tree () =
  FS.suspended @@ fun () ->
  let dir = fresh_dir () in
  let stored = populate (R.create ~dir ()) 4 in
  (* zero this directory's process counters *)
  R.flush_counters ();
  let c = R.create ~dir ~mem_entries:0 () in
  List.iter
    (fun (k, _) -> Alcotest.(check bool) "hit" true (R.find c k <> None))
    stored;
  Alcotest.(check bool) "a miss" true (R.find c (R.key [ ("t", "none") ]) = None);
  Alcotest.(check int) "find-only: no tree walk" 0 (R.counts_for c).R.tree_scans;
  Alcotest.(check int) "stats cross-checks once" 4 (R.stats c).R.entries;
  ignore (R.stats c);
  Alcotest.(check int) "one walk per handle" 1 (R.counts_for c).R.tree_scans

let test_torn_add_rebuilt_by_stats () =
  let dir = fresh_dir () in
  let c = R.create ~dir ~mem_entries:0 () in
  let k3 = R.key [ ("t", "torn") ] in
  FS.suspended (fun () -> ignore (populate c 2));
  (* the entry file lands whole, its index record torn mid-line *)
  FS.with_plan (plan_of_string "rcache.index_corrupt:1:5") (fun () ->
      R.store c k3 (payload 3));
  FS.suspended @@ fun () ->
  let c2 = R.create ~dir ~mem_entries:0 () in
  let before = (R.counts_for c2).R.index_rebuilds in
  Alcotest.(check bool) "the tree serves the entry" true (R.find c2 k3 <> None);
  Alcotest.(check int) "a find does not cross-check" before
    (R.counts_for c2).R.index_rebuilds;
  Alcotest.(check int) "stats see the true census" 3 (R.stats c2).R.entries;
  Alcotest.(check bool) "stats rebuilt the index" true
    ((R.counts_for c2).R.index_rebuilds >= before + 1)

let test_concurrent_store_is_no_crash () =
  FS.suspended @@ fun () ->
  (* handle A opens, another handle (a second job of a parallel build)
     stores, then A stores: the other entry is no crash damage, and A's
     rewrite of nothing must not drop it from the log *)
  let dir = fresh_dir () in
  let k0, _ = List.hd (populate (R.create ~dir ()) 1) in
  R.flush_counters ();
  let a = R.create ~dir ~mem_entries:0 () in
  Alcotest.(check bool) "A opens on a hit" true (R.find a k0 <> None);
  let kb = R.key [ ("t", "other job") ] in
  R.store (R.create ~dir ()) kb (payload 1);
  R.store a (R.key [ ("t", "this job") ]) (payload 2);
  Alcotest.(check int) "no rebuild" 0 (R.counts_for a).R.index_rebuilds;
  Alcotest.(check int) "A counts the other job's entry" 3 (R.stats a).R.entries;
  let c = R.create ~dir () in
  Alcotest.(check int) "the log keeps all three" 3 (R.stats c).R.entries;
  Alcotest.(check int) "still no rebuild" 0 (R.counts_for c).R.index_rebuilds

let test_bad_header_keeps_counters () =
  FS.suspended @@ fun () ->
  (* a rebuild replaces the entry records from the shard tree, but the
     counter lines exist nowhere else *)
  let dir = fresh_dir () in
  let stored = populate (R.create ~dir ()) 3 in
  List.iter (fun (k, _) -> ignore (R.find (R.create ~dir ()) k)) stored;
  R.flush_counters ();
  let index = Filename.concat (Filename.concat dir "meta") "index" in
  let text = In_channel.with_open_bin index In_channel.input_all in
  let body = String.sub text 16 (String.length text - 16) in
  Out_channel.with_open_bin index (fun oc -> output_string oc ("polyufc-index/v0" ^ body));
  let c = R.create ~dir () in
  Alcotest.(check int) "census rebuilt" 3 (R.stats c).R.entries;
  Alcotest.(check bool) "rebuild counted" true ((R.counts_for c).R.index_rebuilds >= 1);
  R.flush_counters ();
  let k = R.cumulative (R.create ~dir ()) in
  Alcotest.(check (list int)) "hits and stores survive the rebuild" [ 3; 3 ]
    [ k.R.hits; k.R.stores ]

let test_torn_append_keeps_next_line () =
  (* a torn record has no newline: the counter line appended after it
     shares its line and must still count *)
  let dir = fresh_dir () in
  let c = R.create ~dir ~mem_entries:0 () in
  FS.suspended (fun () -> ignore (populate c 1));
  R.flush_counters ();
  FS.with_plan (plan_of_string "rcache.index_corrupt:1:3") (fun () ->
      R.store c (R.key [ ("t", "torn") ]) (payload 2);
      R.flush_counters ());
  FS.suspended @@ fun () ->
  let k = R.cumulative (R.create ~dir ()) in
  Alcotest.(check int) "both stores counted" 2 k.R.stores;
  Alcotest.(check bool) "the torn record counted as bad" true (k.R.index_bad_lines >= 1)

let test_parent_store_keeps_its_totals () =
  FS.suspended @@ fun () ->
  (* a store as the previous release left it: index records only, the
     cumulative counters in meta/counters.json *)
  let dir = fresh_dir () in
  let stored = populate (R.create ~dir ()) 2 in
  R.flush_counters ();
  let meta = Filename.concat dir "meta" in
  let write name text =
    let oc = open_out_bin (Filename.concat meta name) in
    output_string oc text;
    close_out oc
  in
  let line body =
    body ^ "#" ^ String.sub (Digest.to_hex (Digest.string body)) 0 8 ^ "
"
  in
  write "index"
    ("polyufc-index/v1
"
    ^ String.concat ""
        (List.mapi
           (fun i (k, _) ->
             let bytes = (Unix.stat (R.entry_path (R.create ~dir ()) k)).Unix.st_size in
             line (Printf.sprintf "+ %s numeric/v2 %d %d" k bytes (i + 1)))
           stored)
    ^ line (Printf.sprintf "~ %s 3" (fst (List.hd stored))));
  (try Sys.remove (Filename.concat meta "lock") with Sys_error _ -> ());
  write "counters.json"
    "{\"schema\":\"polyufc-cache-counters/v2\",\"hits\":7,\"misses\":3,\"stores\":2}\n";
  let c = R.create ~dir () in
  let k = R.cumulative c in
  Alcotest.(check (list int)) "sidecar totals read" [ 7; 3; 2 ]
    [ k.R.hits; k.R.misses; k.R.stores ];
  List.iter (fun (k, _) -> ignore (R.find c k)) stored;
  Alcotest.(check int) "entries intact, no rebuild" 2 (R.stats c).R.entries;
  Alcotest.(check int) "no rebuild" 0 (R.counts_for c).R.index_rebuilds;
  Alcotest.(check bool) "the sidecar is folded into the log" false
    (Sys.file_exists (Filename.concat meta "counters.json"));
  R.flush_counters ();
  let k = R.cumulative (R.create ~dir ()) in
  Alcotest.(check int) "sidecar + appended hits" 9 k.R.hits

let tests =
  [
    Alcotest.test_case "sharded entry layout" `Quick test_sharded_layout;
    Alcotest.test_case "flat layout migrated transparently" `Quick
      test_flat_migration;
    Alcotest.test_case "memory tier is a bounded LRU" `Quick test_mem_tier_lru;
    Alcotest.test_case "memory tier serves after disk loss" `Quick
      test_mem_tier_serves_without_disk;
    Alcotest.test_case "upstream hit is promoted, never written back" `Quick
      test_upstream_promotion;
    Alcotest.test_case "corrupt upstream entry is only a miss" `Quick
      test_upstream_corruption_is_a_miss;
    Alcotest.test_case "index: stats survive reopen without a scan" `Quick
      test_stats_survive_reopen;
    Alcotest.test_case "index: corruption rebuilds from the shard tree" `Quick
      test_index_corruption_rebuilds;
    Alcotest.test_case "index: torn appends survived, reopen rebuilds" `Quick
      test_index_append_fault_is_survived;
    Alcotest.test_case "gc: LRU eviction to an entry watermark" `Quick
      test_gc_to_entry_watermark;
    Alcotest.test_case "gc: eviction to a byte watermark" `Quick
      test_gc_to_byte_watermark;
    Alcotest.test_case "gc: kill -9 mid-sweep is recoverable" `Quick
      test_gc_crash_is_recoverable;
    Alcotest.test_case "gc: opportunistic trigger on store" `Quick
      test_opportunistic_gc_on_store;
    QCheck_alcotest.to_alcotest qcheck_gc_lru;
    Alcotest.test_case "quarantine keeps only the newest K" `Quick
      test_quarantine_bounded;
    Alcotest.test_case "counters flush to each directory's own sidecar" `Quick
      test_flush_counters_per_dir;
    Alcotest.test_case "log: 500 short-lived handles stay bounded" `Quick
      test_short_lived_handles_stay_bounded;
    Alcotest.test_case "log: concurrent counter flushes lose nothing" `Quick
      test_concurrent_flushes_lose_nothing;
    Alcotest.test_case "log: a find-only handle never walks the tree" `Quick
      test_find_only_never_walks_the_tree;
    Alcotest.test_case "log: a torn + append is rebuilt by stats" `Quick
      test_torn_add_rebuilt_by_stats;
    Alcotest.test_case "log: a concurrent store is no crash damage" `Quick
      test_concurrent_store_is_no_crash;
    Alcotest.test_case "log: a bad header keeps the counter lines" `Quick
      test_bad_header_keeps_counters;
    Alcotest.test_case "log: a torn append keeps the next line" `Quick
      test_torn_append_keeps_next_line;
    Alcotest.test_case "log: a parent-written store keeps its totals" `Quick
      test_parent_store_keeps_its_totals;
  ]
