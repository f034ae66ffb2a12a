(* Multi-tier, content-addressed result store.

   Three tiers front the same key space:

     1. an in-memory LRU (entry- and byte-bounded, shared by every
        request of a long-lived daemon),
     2. a two-level sharded on-disk tier — [<dir>/ab/<digest>.json],
        where [ab] is the first two hex characters of the digest, so no
        single directory ever accumulates millions of entries — with
        transparent migration from the pre-sharding flat layout on
        first open,
     3. an optional *read-only* upstream store ([POLYUFC_CACHE_UPSTREAM]
        or [--cache-upstream]): a pre-warmed store shipped with releases.
        Upstream hits are promoted into the local tiers; writes never go
        upstream.

   Entry files are unchanged from the flat era: {"schema": V,
   "checksum": <hex digest of payload>, "payload": <value>} — the file
   name addresses the key material, the embedded checksum detects
   truncated or bit-flipped payloads that still parse as JSON.

   A compact append-only index at [<dir>/meta/index] tracks every live
   entry (kind, bytes, and an atime-ish last-use sequence number) so
   [stats], [stats_by_kind] and the garbage collector never re-scan the
   entry tree.  Every index line carries its own checksum; a missing,
   torn or checksum-failing index — or one whose live count disagrees
   with the shard tree (the fingerprint of a crash between a file
   operation and its index record) — is rebuilt from the shard tree:
   counted, never fatal.  The index is an accelerator like everything
   else here; the shard tree is the truth.

   Garbage collection evicts least-recently-used entries until the
   store fits under [--cache-max-bytes] / [--cache-max-entries].  It
   runs when asked ([polyufc cache gc]), at daemon start, and
   opportunistically after a store that pushes the index totals over a
   watermark.  GC removes the entry file *before* appending the removal
   record, so a kill -9 mid-sweep leaves at worst a stale index — which
   the count check above repairs at the next handle's cross-check.

   A read that fails (I/O error, bad JSON, bad checksum) is retried once
   — a concurrent writer's rename can race the first read — and then the
   entry is quarantined to [<dir>/quarantine/] for post-mortem instead of
   being re-read forever or failing the analysis.  The quarantine keeps
   only the newest [quarantine_keep] files; older evidence is dropped
   and counted.

   Writes go through [Io.write_atomic] (tmp + fsync + rename, one retry
   on transient errors).  ENOSPC is not transient: it flips the disk
   tier to a degraded read-only mode — hits keep being served (and the
   memory tier keeps absorbing stores), on-disk stores become no-ops —
   because retrying writes on a full disk only burns time and log
   lines.  The flip is counted and warned once, never fatal. *)

module J = Telemetry.Json

(* 2: payload checksum added (PR 4); 1: initial layout.  The sharded
   directory layout (PR 10) does not touch the entry document, so the
   schema — and with it every existing key — survives the migration. *)
let schema_version = 2

let c_hit = Telemetry.counter "engine.cache.hit"
let c_miss = Telemetry.counter "engine.cache.miss"
let c_store = Telemetry.counter "engine.cache.store"
let c_corrupt = Telemetry.counter "engine.cache.corrupt"
let c_quarantined = Telemetry.counter "engine.cache.quarantined"
let c_quarantine_dropped = Telemetry.counter "engine.cache.quarantine_dropped"
let c_write_retry = Telemetry.counter "engine.cache_write_retries"
let c_readonly_flip = Telemetry.counter "engine.cache_readonly_flips"
let c_mem_hit = Telemetry.counter "engine.cache.mem.hit"
let c_mem_miss = Telemetry.counter "engine.cache.mem.miss"
let c_mem_evict = Telemetry.counter "engine.cache.mem.evict"
let c_disk_hit = Telemetry.counter "engine.cache.disk.hit"
let c_disk_miss = Telemetry.counter "engine.cache.disk.miss"
let c_upstream_hit = Telemetry.counter "engine.cache.upstream.hit"
let c_upstream_miss = Telemetry.counter "engine.cache.upstream.miss"
let c_promotion = Telemetry.counter "engine.cache.promotion"
let c_eviction = Telemetry.counter "engine.cache.eviction"
let c_gc_run = Telemetry.counter "engine.cache.gc_runs"
let c_gc_crash = Telemetry.counter "engine.cache.gc_crashes"
let c_migrated = Telemetry.counter "engine.cache.migrated"
let c_index_rebuild = Telemetry.counter "engine.cache.index_rebuilds"
let c_index_bad_line = Telemetry.counter "engine.cache.index_bad_lines"
let c_tree_scan = Telemetry.counter "engine.cache.tree_scans"

type counts = {
  hits : int;
  misses : int;
  stores : int;
  corrupt : int;
  quarantined : int;
  write_retries : int;
  readonly_flips : int;
  mem_hits : int;
  disk_hits : int;
  upstream_hits : int;
  promotions : int;
  evictions : int;
  mem_evictions : int;
  gc_runs : int;
  gc_crashes : int;
  migrated : int;
  index_rebuilds : int;
  index_bad_lines : int;
  quarantine_dropped : int;
  tree_scans : int;
}

(* Always-on per-directory counters: the CLI's `cache stats` and the
   tests must see hit/miss activity even when the telemetry registry is
   disabled, and a process touching two stores (a local tier promoting
   from an upstream, a test suite over many temp dirs) must attribute
   each event to the directory it happened in — not to whichever cache
   was created last. *)
type live = {
  l_hits : int Atomic.t;
  l_misses : int Atomic.t;
  l_stores : int Atomic.t;
  l_corrupt : int Atomic.t;
  l_quarantined : int Atomic.t;
  l_write_retries : int Atomic.t;
  l_readonly_flips : int Atomic.t;
  l_mem_hits : int Atomic.t;
  l_disk_hits : int Atomic.t;
  l_upstream_hits : int Atomic.t;
  l_promotions : int Atomic.t;
  l_evictions : int Atomic.t;
  l_mem_evictions : int Atomic.t;
  l_gc_runs : int Atomic.t;
  l_gc_crashes : int Atomic.t;
  l_migrated : int Atomic.t;
  l_index_rebuilds : int Atomic.t;
  l_index_bad_lines : int Atomic.t;
  l_quarantine_dropped : int Atomic.t;
  l_tree_scans : int Atomic.t;
}

let fresh_live () =
  {
    l_hits = Atomic.make 0;
    l_misses = Atomic.make 0;
    l_stores = Atomic.make 0;
    l_corrupt = Atomic.make 0;
    l_quarantined = Atomic.make 0;
    l_write_retries = Atomic.make 0;
    l_readonly_flips = Atomic.make 0;
    l_mem_hits = Atomic.make 0;
    l_disk_hits = Atomic.make 0;
    l_upstream_hits = Atomic.make 0;
    l_promotions = Atomic.make 0;
    l_evictions = Atomic.make 0;
    l_mem_evictions = Atomic.make 0;
    l_gc_runs = Atomic.make 0;
    l_gc_crashes = Atomic.make 0;
    l_migrated = Atomic.make 0;
    l_index_rebuilds = Atomic.make 0;
    l_index_bad_lines = Atomic.make 0;
    l_quarantine_dropped = Atomic.make 0;
    l_tree_scans = Atomic.make 0;
  }

(* dir -> live counters, one record per cache directory per process *)
let registry : (string, live) Hashtbl.t = Hashtbl.create 4
let registry_mutex = Mutex.create ()

let live_for dir =
  Mutex.protect registry_mutex (fun () ->
      match Hashtbl.find_opt registry dir with
      | Some l -> l
      | None ->
        let l = fresh_live () in
        Hashtbl.add registry dir l;
        l)

let bump telemetry_c process_c =
  Telemetry.tick telemetry_c;
  ignore (Atomic.fetch_and_add process_c 1)

(* the counter fields by name, in the order [cache stats] lists them *)
let count_fields =
  [
    ("hits", (fun c -> c.hits), fun c v -> { c with hits = v });
    ("misses", (fun c -> c.misses), fun c v -> { c with misses = v });
    ("stores", (fun c -> c.stores), fun c v -> { c with stores = v });
    ("corrupt", (fun c -> c.corrupt), fun c v -> { c with corrupt = v });
    ( "quarantined",
      (fun c -> c.quarantined),
      fun c v -> { c with quarantined = v } );
    ( "write_retries",
      (fun c -> c.write_retries),
      fun c v -> { c with write_retries = v } );
    ( "readonly_flips",
      (fun c -> c.readonly_flips),
      fun c v -> { c with readonly_flips = v } );
    ("mem_hits", (fun c -> c.mem_hits), fun c v -> { c with mem_hits = v });
    ("disk_hits", (fun c -> c.disk_hits), fun c v -> { c with disk_hits = v });
    ( "upstream_hits",
      (fun c -> c.upstream_hits),
      fun c v -> { c with upstream_hits = v } );
    ("promotions", (fun c -> c.promotions), fun c v -> { c with promotions = v });
    ("evictions", (fun c -> c.evictions), fun c v -> { c with evictions = v });
    ( "mem_evictions",
      (fun c -> c.mem_evictions),
      fun c v -> { c with mem_evictions = v } );
    ("gc_runs", (fun c -> c.gc_runs), fun c v -> { c with gc_runs = v });
    ("gc_crashes", (fun c -> c.gc_crashes), fun c v -> { c with gc_crashes = v });
    ("migrated", (fun c -> c.migrated), fun c v -> { c with migrated = v });
    ( "index_rebuilds",
      (fun c -> c.index_rebuilds),
      fun c v -> { c with index_rebuilds = v } );
    ( "index_bad_lines",
      (fun c -> c.index_bad_lines),
      fun c v -> { c with index_bad_lines = v } );
    ( "quarantine_dropped",
      (fun c -> c.quarantine_dropped),
      fun c v -> { c with quarantine_dropped = v } );
    ("tree_scans", (fun c -> c.tree_scans), fun c v -> { c with tree_scans = v });
  ]

let zero_counts =
  {
    hits = 0;
    misses = 0;
    stores = 0;
    corrupt = 0;
    quarantined = 0;
    write_retries = 0;
    readonly_flips = 0;
    mem_hits = 0;
    disk_hits = 0;
    upstream_hits = 0;
    promotions = 0;
    evictions = 0;
    mem_evictions = 0;
    gc_runs = 0;
    gc_crashes = 0;
    migrated = 0;
    index_rebuilds = 0;
    index_bad_lines = 0;
    quarantine_dropped = 0;
    tree_scans = 0;
  }

let live_pairs l =
  [
    ((fun c v -> { c with hits = v }), l.l_hits);
    ((fun c v -> { c with misses = v }), l.l_misses);
    ((fun c v -> { c with stores = v }), l.l_stores);
    ((fun c v -> { c with corrupt = v }), l.l_corrupt);
    ((fun c v -> { c with quarantined = v }), l.l_quarantined);
    ((fun c v -> { c with write_retries = v }), l.l_write_retries);
    ((fun c v -> { c with readonly_flips = v }), l.l_readonly_flips);
    ((fun c v -> { c with mem_hits = v }), l.l_mem_hits);
    ((fun c v -> { c with disk_hits = v }), l.l_disk_hits);
    ((fun c v -> { c with upstream_hits = v }), l.l_upstream_hits);
    ((fun c v -> { c with promotions = v }), l.l_promotions);
    ((fun c v -> { c with evictions = v }), l.l_evictions);
    ((fun c v -> { c with mem_evictions = v }), l.l_mem_evictions);
    ((fun c v -> { c with gc_runs = v }), l.l_gc_runs);
    ((fun c v -> { c with gc_crashes = v }), l.l_gc_crashes);
    ((fun c v -> { c with migrated = v }), l.l_migrated);
    ((fun c v -> { c with index_rebuilds = v }), l.l_index_rebuilds);
    ((fun c v -> { c with index_bad_lines = v }), l.l_index_bad_lines);
    ((fun c v -> { c with quarantine_dropped = v }), l.l_quarantine_dropped);
    ((fun c v -> { c with tree_scans = v }), l.l_tree_scans);
  ]

let snapshot_live l =
  List.fold_left (fun c (set, a) -> set c (Atomic.get a)) zero_counts
    (live_pairs l)

let add_counts a b =
  List.fold_left
    (fun c (_, get, set) -> set c (get a + get b))
    zero_counts count_fields

(* ------------------------------------------------------------------ *)
(* In-memory LRU tier                                                  *)
(* ------------------------------------------------------------------ *)

module Mem = struct
  type node = {
    nkey : string;
    npayload : J.t;
    nbytes : int;
    mutable prev : node option; (* toward MRU *)
    mutable next : node option; (* toward LRU *)
  }

  type t = {
    mu : Mutex.t;
    tbl : (string, node) Hashtbl.t;
    mutable head : node option; (* MRU *)
    mutable tail : node option; (* LRU *)
    mutable bytes : int;
    max_entries : int;
    max_bytes : int;
  }

  let create ~max_entries ~max_bytes =
    if max_entries <= 0 || max_bytes <= 0 then None
    else
      Some
        {
          mu = Mutex.create ();
          tbl = Hashtbl.create 64;
          head = None;
          tail = None;
          bytes = 0;
          max_entries;
          max_bytes;
        }

  let unlink m n =
    (match n.prev with
    | Some p -> p.next <- n.next
    | None -> m.head <- n.next);
    (match n.next with
    | Some s -> s.prev <- n.prev
    | None -> m.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front m n =
    n.next <- m.head;
    (match m.head with Some h -> h.prev <- Some n | None -> m.tail <- Some n);
    m.head <- Some n

  let drop m n =
    unlink m n;
    Hashtbl.remove m.tbl n.nkey;
    m.bytes <- m.bytes - n.nbytes

  let find m key =
    Mutex.protect m.mu (fun () ->
        match Hashtbl.find_opt m.tbl key with
        | None -> None
        | Some n ->
          unlink m n;
          push_front m n;
          Some n.npayload)

  (* evict from the LRU end until within bounds; an oversized payload
     can evict itself, which is the correct way to decline to cache it *)
  let put ~on_evict m key payload =
    let nbytes = String.length (J.to_string payload) in
    Mutex.protect m.mu (fun () ->
        (match Hashtbl.find_opt m.tbl key with Some n -> drop m n | None -> ());
        let n = { nkey = key; npayload = payload; nbytes; prev = None; next = None } in
        Hashtbl.replace m.tbl key n;
        push_front m n;
        m.bytes <- m.bytes + nbytes;
        while
          Hashtbl.length m.tbl > m.max_entries || m.bytes > m.max_bytes
        do
          match m.tail with
          | Some victim ->
            drop m victim;
            on_evict ()
          | None -> assert false
        done)

  let remove m key =
    Mutex.protect m.mu (fun () ->
        match Hashtbl.find_opt m.tbl key with
        | Some n -> drop m n
        | None -> ())

  let clear m =
    Mutex.protect m.mu (fun () ->
        Hashtbl.reset m.tbl;
        m.head <- None;
        m.tail <- None;
        m.bytes <- 0)

  let stats m =
    Mutex.protect m.mu (fun () -> (Hashtbl.length m.tbl, m.bytes))
end

(* ------------------------------------------------------------------ *)
(* The store                                                           *)
(* ------------------------------------------------------------------ *)

(* entry kinds: plain analysis results carry no marker and count as
   [kind_numeric]; the other kinds are tagged so `cache stats` can report
   them separately. *)
let kind_numeric = "numeric/v2"
let kind_roofline = "roofline/v1"
let kind_sim = "sim/v1"
let kind_tiling = "tiling/v1"

let kinds = [ kind_numeric; kind_roofline; kind_sim; kind_tiling ]

type ixent = {
  mutable x_kind : string;
  mutable x_bytes : int;
  mutable x_seq : int; (* atime-ish: the logical clock of the last use *)
}

type index = {
  mutable ix_tbl : (string, ixent) Hashtbl.t;
  mutable ix_bytes : int; (* sum of live entry bytes *)
  mutable ix_seq : int; (* logical clock, monotonic per store *)
  mutable ix_lines : int; (* record lines in the log, whoever wrote them *)
}

type t = {
  cache_dir : string;
  upstream : string option;
  read_only : bool Atomic.t;
  mem : Mem.t option;
  max_bytes : int option;
  max_entries : int option;
  quarantine_keep : int;
  ix_mu : Mutex.t;
  ix : index;
  opened : bool Atomic.t;
  open_mu : Mutex.t;
  live : live;
  mutable checked : bool; (* the shard-tree cross-check ran on this handle *)
  mutable last_migrated : int; (* entries moved by this handle's check *)
}

let default_dir () =
  match Sys.getenv_opt "POLYUFC_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> "_polyufc_cache"

(* sizes in the environment and on the CLI accept k/M/G suffixes *)
let parse_size s =
  let s = String.trim s in
  let n = String.length s in
  if n = 0 then None
  else
    let scale, digits =
      match s.[n - 1] with
      | 'k' | 'K' -> (1024, String.sub s 0 (n - 1))
      | 'm' | 'M' -> (1024 * 1024, String.sub s 0 (n - 1))
      | 'g' | 'G' -> (1024 * 1024 * 1024, String.sub s 0 (n - 1))
      | _ -> (1, s)
    in
    match int_of_string_opt (String.trim digits) with
    | Some v when v > 0 -> Some (v * scale)
    | _ -> None

let env_size name =
  Option.bind (Sys.getenv_opt name) parse_size

let default_upstream () =
  match Sys.getenv_opt "POLYUFC_CACHE_UPSTREAM" with
  | Some d when d <> "" -> Some d
  | _ -> None

let default_mem_entries = 512
let default_mem_bytes = 32 * 1024 * 1024
let default_quarantine_keep = 32

let create ?dir ?upstream ?(mem_entries = default_mem_entries)
    ?(mem_bytes = default_mem_bytes) ?max_bytes ?max_entries
    ?(quarantine_keep = default_quarantine_keep) () =
  let cache_dir = match dir with Some d -> d | None -> default_dir () in
  let upstream =
    match upstream with
    | Some u -> if u = cache_dir || u = "" then None else Some u
    | None -> (
      match default_upstream () with
      | Some u when u <> cache_dir -> Some u
      | _ -> None)
  in
  let max_bytes =
    match max_bytes with
    | Some _ -> max_bytes
    | None -> env_size "POLYUFC_CACHE_MAX_BYTES"
  in
  let max_entries =
    match max_entries with
    | Some _ -> max_entries
    | None -> env_size "POLYUFC_CACHE_MAX_ENTRIES"
  in
  {
    cache_dir;
    upstream;
    read_only = Atomic.make false;
    mem = Mem.create ~max_entries:mem_entries ~max_bytes:mem_bytes;
    max_bytes;
    max_entries;
    quarantine_keep = max 0 quarantine_keep;
    ix_mu = Mutex.create ();
    ix =
      {
        ix_tbl = Hashtbl.create 64;
        ix_bytes = 0;
        ix_seq = 0;
        ix_lines = 0;
      };
    opened = Atomic.make false;
    open_mu = Mutex.create ();
    live = live_for cache_dir;
    checked = false;
    last_migrated = 0;
  }

let dir t = t.cache_dir
let upstream t = t.upstream
let read_only t = Atomic.get t.read_only

let key ?(schema = schema_version) parts =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "polyufc-rcache/%d\n" schema);
  List.iter
    (fun (field, value) ->
      Buffer.add_string buf
        (Printf.sprintf "%d:%s=%d:" (String.length field) field
           (String.length value));
      Buffer.add_string buf value;
      Buffer.add_char buf '\n')
    parts;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let is_hex_name name =
  String.length name > 0
  && String.for_all
       (function '0' .. '9' | 'a' .. 'f' -> true | _ -> false)
       name

let is_entry_name f =
  Filename.check_suffix f ".json"
  && is_hex_name (Filename.chop_suffix f ".json")

let shard_of key = String.sub key 0 (min 2 (String.length key))

let entry_path_in dir key =
  Filename.concat (Filename.concat dir (shard_of key)) (key ^ ".json")

let flat_path_in dir key = Filename.concat dir (key ^ ".json")
let entry_path t key = entry_path_in t.cache_dir key
let quarantine_dir t = Filename.concat t.cache_dir "quarantine"
let meta_dir_of dir = Filename.concat dir "meta"
let index_path_of dir = Filename.concat (meta_dir_of dir) "index"
let lock_path_of dir = Filename.concat (meta_dir_of dir) "lock"

let warn fmt = Format.eprintf ("polyufc cache warning: " ^^ fmt ^^ "@.")

let mkdir_p dir =
  let rec go d =
    if d <> "" && d <> "." && d <> "/" && not (Sys.file_exists d) then begin
      go (Filename.dirname d);
      try Unix.mkdir d 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let read_file path =
  let ic = open_in_bin path in
  let text =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (* simulate a bad read (flaky medium, bit rot in the page cache): the
     on-disk entry may be fine, but this read of it is not *)
  if Faultsim.fire Faultsim.Rcache_read_corrupt && String.length text > 0 then begin
    let b = Bytes.of_string text in
    Bytes.set b (String.length text / 2)
      (Char.chr (Char.code (Bytes.get b (String.length text / 2)) lxor 0x20));
    Bytes.to_string b
  end
  else text

let payload_checksum payload = Digest.to_hex (Digest.string (J.to_string payload))

(* ------------------------------------------------------------------ *)
(* Index: append-only log with per-line checksums                      *)
(* ------------------------------------------------------------------ *)

(* Format (text lines):

     polyufc-index/v1
     + <key> <kind> <bytes> <seq>#<crc>
     ~ <key> <seq>#<crc>
     - <key>#<crc>
     c <counter>=<n> ...#<crc>

   <crc> is the first 8 hex chars of the MD5 of the line body.  A [c]
   line is one process's counter delta (its nonzero fields; unknown
   names are ignored); the store's cumulative counters are their sum.
   Appends are a single write(2) on an O_APPEND descriptor, so
   concurrent writers interleave whole lines; a line torn by a crash
   fails its checksum and is skipped (counted), and the record the next
   append glued onto its end is recovered.

   Every process shares one log: every line counts toward compaction,
   whoever wrote it, and the first process to find the log more than
   [64 + 4 × live] lines past one per live entry replaces it with a
   snapshot (one [+] line per live entry, the counter lines folded into
   one).  Appends hold a shared lock on [meta/lock] and a snapshot holds
   it exclusively, re-reading the log under it, so no line lands in a
   log that is being replaced and none is dropped by the fold. *)

let index_header = "polyufc-index/v1"
let line_crc body = String.sub (Digest.to_hex (Digest.string body)) 0 8

type ixop =
  [ `Add of string * string * int * int  (* key, kind, bytes, seq *)
  | `Touch of string * int
  | `Del of string ]

let record_body = function
  | `Add (key, kind, bytes, seq) ->
    Printf.sprintf "+ %s %s %d %d" key kind bytes seq
  | `Touch (key, seq) -> Printf.sprintf "~ %s %d" key seq
  | `Del key -> Printf.sprintf "- %s" key
  | `Counts c ->
    String.concat " "
      ("c"
      :: List.filter_map
           (fun (name, get, _) ->
             if get c = 0 then None else Some (Printf.sprintf "%s=%d" name (get c)))
           count_fields)

let record_line op =
  let body = record_body op in
  body ^ "#" ^ line_crc body ^ "\n"

let counts_of_fields fields =
  List.fold_left
    (fun acc field ->
      match (acc, String.index_opt field '=') with
      | None, _ | _, None -> None
      | Some c, Some i -> (
        let name = String.sub field 0 i in
        match int_of_string_opt (String.sub field (i + 1) (String.length field - i - 1)) with
        | Some v when v >= 0 -> (
          match List.find_opt (fun (n, _, _) -> n = name) count_fields with
          | Some (_, get, set) -> Some (set c (get c + v))
          | None -> Some c)
        | _ -> None))
    (Some zero_counts) fields

(* a checksummed line's record, or [None] for a torn, bit-flipped or
   unparsable one *)
let parse_record line =
  match String.rindex_opt line '#' with
  | None -> None
  | Some i -> (
    let body = String.sub line 0 i in
    if String.sub line (i + 1) (String.length line - i - 1) <> line_crc body then None
    else
      match String.split_on_char ' ' body with
      | [ "+"; key; kind; bytes; seq ] -> (
        match (int_of_string_opt bytes, int_of_string_opt seq) with
        | Some b, Some s when b >= 0 -> Some (`Add (key, kind, b, s))
        | _ -> None)
      | [ "~"; key; seq ] -> Option.map (fun s -> `Touch (key, s)) (int_of_string_opt seq)
      | [ "-"; key ] -> Some (`Del key)
      | "c" :: fields -> Option.map (fun c -> `Counts c) (counts_of_fields fields)
      | _ -> None)

(* A crash mid-append leaves a line without its newline, and the next
   append lands on the end of it.  The torn prefix is lost, but the
   record that follows it is whole: the first suffix of a bad line that
   starts like a record and passes its checksum. *)
let salvage_record line =
  let n = String.length line in
  let rec from i =
    if i >= n - 1 then None
    else if line.[i + 1] = ' ' && String.contains "+~-c" line.[i] then
      match parse_record (String.sub line i (n - i)) with
      | Some _ as r -> r
      | None -> from (i + 1)
    else from (i + 1)
  in
  from 1

(* apply a record to the in-memory table *)
let ix_apply ix (op : ixop) =
  match op with
  | `Add (key, kind, bytes, seq) ->
    (match Hashtbl.find_opt ix.ix_tbl key with
    | Some e ->
      ix.ix_bytes <- ix.ix_bytes - e.x_bytes + bytes;
      e.x_kind <- kind;
      e.x_bytes <- bytes;
      e.x_seq <- seq
    | None ->
      Hashtbl.replace ix.ix_tbl key { x_kind = kind; x_bytes = bytes; x_seq = seq };
      ix.ix_bytes <- ix.ix_bytes + bytes);
    if seq > ix.ix_seq then ix.ix_seq <- seq
  | `Touch (key, seq) ->
    (match Hashtbl.find_opt ix.ix_tbl key with
    | Some e -> e.x_seq <- seq
    | None -> ());
    if seq > ix.ix_seq then ix.ix_seq <- seq
  | `Del key -> (
    match Hashtbl.find_opt ix.ix_tbl key with
    | Some e ->
      ix.ix_bytes <- ix.ix_bytes - e.x_bytes;
      Hashtbl.remove ix.ix_tbl key
    | None -> ())

type log = {
  l_ix : index;  (* the table the log's records build *)
  l_counts : counts;  (* the sum of its counter lines *)
  l_bad : int;  (* lines skipped for a bad checksum or shape *)
}

(* read the whole log.  A missing or wrong header makes it [`Corrupt],
   carrying the sum of the counter lines that still pass their
   checksum: the entry records are rebuilt from the shard tree, but the
   store's counter history exists nowhere else. *)
let read_log dir =
  match open_in_bin (index_path_of dir) with
  | exception Sys_error _ -> Error `Missing
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let ix =
          {
            ix_tbl = Hashtbl.create 64;
            ix_bytes = 0;
            ix_seq = 0;
            ix_lines = 0;
          }
        in
        let counts = ref zero_counts and bad = ref 0 in
        let record line =
          (* two appenders racing to create the log both write the
             header: the second copy is no record *)
          if String.trim line <> "" && line <> index_header then begin
            ix.ix_lines <- ix.ix_lines + 1;
            let r =
              match parse_record line with
              | Some _ as r -> r
              | None ->
                incr bad;
                salvage_record line
            in
            match r with
            | Some (`Counts c) -> counts := add_counts !counts c
            | Some (#ixop as op) -> ix_apply ix op
            | None -> ()
          end
        in
        let header_ok =
          match input_line ic with
          | exception End_of_file -> false
          | header when header = index_header -> true
          | first ->
            record first;
            false
        in
        (try
           while true do
             record (input_line ic)
           done
         with End_of_file -> ());
        if header_ok then Ok { l_ix = ix; l_counts = !counts; l_bad = !bad }
        else Error (`Corrupt !counts))

(* the counter lines of whatever the log holds *)
let log_counts = function
  | Ok log -> log.l_counts
  | Error (`Corrupt counts) -> counts
  | Error `Missing -> zero_counts

(* take the log's table as this handle's *)
let ix_adopt ix log =
  ix.ix_tbl <- log.l_ix.ix_tbl;
  ix.ix_bytes <- log.l_ix.ix_bytes;
  ix.ix_seq <- max ix.ix_seq log.l_ix.ix_seq;
  ix.ix_lines <- log.l_ix.ix_lines

(* Appends and snapshots take [meta/lock] (shared / exclusive); POSIX
   locks never conflict within one process, so [log_mu] orders this
   process's own lock holders.  Closing the descriptor drops the lock. *)
let log_mu = Mutex.create ()

(* [~best_effort] runs [f] unlocked when the lock file cannot be
   opened (a store directory this process may not write): [f]'s own
   writes then fail the same way, and reading needs no lock *)
let with_log_lock ?(best_effort = false) dir mode f =
  Mutex.protect log_mu @@ fun () ->
  let path = lock_path_of dir in
  let flags = [ Unix.O_RDWR; Unix.O_CREAT; Unix.O_CLOEXEC ] in
  match
    try Unix.openfile path flags 0o644
    with Unix.Unix_error (Unix.ENOENT, _, _) ->
      mkdir_p (meta_dir_of dir);
      Unix.openfile path flags 0o644
  with
  | exception Unix.Unix_error _ when best_effort -> f ()
  | fd ->
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Unix.lockf fd (match mode with `Shared -> Unix.F_RLOCK | `Exclusive -> Unix.F_LOCK) 0;
        f ())

(* append one line in one write(2); the caller holds [meta/lock] *)
let append_line_locked dir line =
  let fd =
    Unix.openfile (index_path_of dir)
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT; Unix.O_CLOEXEC ]
      0o644
  in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      (* a fresh log needs its header before any record *)
      let text =
        if (Unix.fstat fd).Unix.st_size = 0 then index_header ^ "\n" ^ line
        else line
      in
      ignore (Unix.write_substring fd text 0 (String.length text)))

(* append one record under the shared lock; [Rcache_index_corrupt]
   simulates a crash mid-append of an entry record by tearing it in
   half (a torn counter line would only lose counts, which no recovery
   path restores) *)
let append_record dir op =
  let line = record_line op in
  let line =
    match op with
    | #ixop when Faultsim.fire Faultsim.Rcache_index_corrupt ->
      String.sub line 0 (String.length line / 2)
    | _ -> line
  in
  with_log_lock dir `Shared (fun () -> append_line_locked dir line)

(* --- unlocked internals: callers hold ix_mu ----------------------- *)

let ix_append_unlocked t op =
  ix_apply t.ix op;
  t.ix.ix_lines <- t.ix.ix_lines + 1;
  try append_record t.cache_dir op
  with Unix.Unix_error _ | Sys_error _ ->
    (* the index is advisory: a failed append leaves it stale, and the
       next cross-check against the shard tree rebuilds it *)
    ()

(* lines beyond one per live entry *)
let log_records ix = max 0 (ix.ix_lines - Hashtbl.length ix.ix_tbl)
let compaction_due ix = log_records ix > 64 + (4 * Hashtbl.length ix.ix_tbl)

(* Rewrite the log as one record per live entry plus one folded counter
   line, atomically, under the exclusive lock.  [~compacting:true]
   first takes in what other processes appended since this handle read
   the log and skips the rewrite if one of them already compacted it; a
   rebuild or a clear writes the table it holds. *)
let write_snapshot_locked t counts =
  let ix = t.ix in
  let entries =
    Hashtbl.fold (fun k e acc -> (k, e) :: acc) ix.ix_tbl []
    |> List.sort (fun (_, a) (_, b) -> compare a.x_seq b.x_seq)
  in
  let buf = Buffer.create (256 + (64 * List.length entries)) in
  Buffer.add_string buf (index_header ^ "\n");
  List.iter
    (fun (k, e) ->
      Buffer.add_string buf (record_line (`Add (k, e.x_kind, e.x_bytes, e.x_seq))))
    entries;
  let folded = counts <> zero_counts in
  if folded then Buffer.add_string buf (record_line (`Counts counts));
  Io.write_atomic ~fsync:false (index_path_of t.cache_dir) (Buffer.contents buf);
  ix.ix_lines <- List.length entries + if folded then 1 else 0

let ix_snapshot_unlocked ?(compacting = false) t =
  try
    with_log_lock t.cache_dir `Exclusive (fun () ->
        let log = read_log t.cache_dir in
        (match log with Ok log when compacting -> ix_adopt t.ix log | _ -> ());
        if (not compacting) || compaction_due t.ix then
          write_snapshot_locked t (log_counts log))
  with Unix.Unix_error _ | Sys_error _ -> ()

(* every entry file under the shard tree (and any flat stragglers),
   with its path — the ground truth the index approximates *)
let scan_entries t =
  bump c_tree_scan t.live.l_tree_scans;
  let dir = t.cache_dir in
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | names ->
    Array.fold_left
      (fun acc name ->
        let path = Filename.concat dir name in
        if String.length name = 2 && is_hex_name name && Sys.is_directory path
        then
          match Sys.readdir path with
          | exception Sys_error _ -> acc
          | files ->
            Array.fold_left
              (fun acc f ->
                if is_entry_name f then
                  (Filename.chop_suffix f ".json", Filename.concat path f)
                  :: acc
                else acc)
              acc files
        else if is_entry_name name then
          (Filename.chop_suffix name ".json", path) :: acc
        else acc)
      [] names

(* full rebuild from the scanned entries: stat + parse each to recover
   kind/bytes, order last-use by mtime so GC age survives the rebuild;
   the caller holds [meta/lock] exclusively *)
let ix_rebuild_locked t scanned counts =
  bump c_index_rebuild t.live.l_index_rebuilds;
  Telemetry.Event.warn "rcache.index_rebuild"
    ~fields:[ ("dir", J.Str t.cache_dir) ];
  let ix = t.ix in
  Hashtbl.reset ix.ix_tbl;
  ix.ix_bytes <- 0;
  ix.ix_seq <- 0;
  let entries =
    List.filter_map
      (fun (key, path) ->
        match Unix.stat path with
        | exception Unix.Unix_error _ -> None
        | st ->
          let kind =
            match read_file path with
            | exception (Sys_error _ | Unix.Unix_error _) -> "unreadable"
            | text -> (
              match J.of_string text with
              | Error _ -> "unreadable"
              | Ok doc -> (
                match J.member "kind" doc with
                | Some (J.Str k) -> k
                | _ -> kind_numeric))
          in
          Some (key, kind, st.Unix.st_size, st.Unix.st_mtime))
      scanned
    |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare a b)
  in
  List.iter
    (fun (key, kind, bytes, _) ->
      ix.ix_seq <- ix.ix_seq + 1;
      ix_apply ix (`Add (key, kind, bytes, ix.ix_seq)))
    entries;
  write_snapshot_locked t counts

(* ------------------------------------------------------------------ *)
(* Open: index load; the shard-tree cross-check runs later, once       *)
(* ------------------------------------------------------------------ *)

let migrate_flat_unlocked t =
  match Sys.readdir t.cache_dir with
  | exception Sys_error _ -> 0
  | names ->
    Array.fold_left
      (fun n f ->
        if is_entry_name f then begin
          let key = Filename.chop_suffix f ".json" in
          let src = Filename.concat t.cache_dir f in
          let dst = entry_path_in t.cache_dir key in
          match
            mkdir_p (Filename.dirname dst);
            Sys.rename src dst
          with
          | () ->
            bump c_migrated t.live.l_migrated;
            n + 1
          | exception (Sys_error _ | Unix.Unix_error _) ->
            (* e.g. a concurrent migrator won the rename: if the entry
               now exists sharded, drop the flat duplicate *)
            if Sys.file_exists dst then (try Sys.remove src with Sys_error _ -> ());
            n
        end
        else n)
      0 names

(* A store written before the counter lines keeps its totals in
   [meta/counters.json] (v1 and v2 documents: folding over whatever
   fields are present reads both); the cross-check folds them into the
   log once and removes the file.  Read without the fault sites: a
   simulated bad read here would be folded in for good. *)
let sidecar_path dir = Filename.concat (meta_dir_of dir) "counters.json"

let sidecar_counts dir =
  match In_channel.with_open_bin (sidecar_path dir) In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    Some
      (match J.of_string text with
      | Ok doc ->
        List.fold_left
          (fun c (name, _, set) ->
            match J.member name doc with
            | Some (J.Int v) when v >= 0 -> set c v
            | _ -> c)
          zero_counts count_fields
      | Error _ -> zero_counts)

(* The cross-check against the shard tree: the flat → sharded
   migration, then a count of the entry files.  A crash between a file
   operation and its index record leaves the counts disagreeing, and a
   rebuild repairs it.  It walks the whole tree, so it runs once per
   handle, before the first operation that reads or rewrites the index
   totals (store, stats, gc, a snapshot): a process that only finds
   never walks the tree.  It holds [meta/lock] exclusively and first
   re-reads the log, so what other processes stored since this handle
   opened is neither taken for crash damage nor dropped by a rewrite.
   [~force] rebuilds whatever the counts say (an unreadable log); a
   fresh store (no log, no entries) is no rebuild. *)
let ix_check_unlocked ?(force = false) t =
  if force || not t.checked then begin
    if not t.checked then begin
      t.checked <- true;
      let migrated = migrate_flat_unlocked t in
      t.last_migrated <- migrated;
      if migrated > 0 then
        Telemetry.Event.info "rcache.migrated"
          ~fields:[ ("dir", J.Str t.cache_dir); ("entries", J.Int migrated) ]
    end;
    let dir = t.cache_dir in
    try
      with_log_lock ~best_effort:true dir `Exclusive (fun () ->
          let log = read_log dir in
          (match log with Ok log -> ix_adopt t.ix log | Error _ -> ());
          let legacy = sidecar_counts dir in
          let scanned = scan_entries t in
          let fresh = scanned = [] && (match log with Error `Missing -> true | _ -> false) in
          if (force || Hashtbl.length t.ix.ix_tbl <> List.length scanned) && not fresh
          then
            ix_rebuild_locked t scanned
              (add_counts (log_counts log) (Option.value legacy ~default:zero_counts))
          else (
            match legacy with
            | Some c when c <> zero_counts ->
              append_line_locked dir (record_line (`Counts c));
              t.ix.ix_lines <- t.ix.ix_lines + 1
            | _ -> ());
          (* a crash before this removal counts the old totals twice;
             removing first would risk losing them *)
          if legacy <> None then Sys.remove (sidecar_path dir))
    with Unix.Unix_error _ | Sys_error _ -> ()
  end

let ix_compact_unlocked t =
  ix_check_unlocked t;
  if compaction_due t.ix then ix_snapshot_unlocked ~compacting:true t

let ix_load_unlocked t =
  match
    if Faultsim.fire Faultsim.Rcache_index_corrupt then Error (`Corrupt zero_counts)
    else read_log t.cache_dir
  with
  | Ok log ->
    ix_adopt t.ix log;
    ignore (Atomic.fetch_and_add t.live.l_index_bad_lines log.l_bad);
    Telemetry.add c_index_bad_line log.l_bad;
    if compaction_due t.ix then ix_compact_unlocked t
  | Error `Missing -> () (* the cross-check rebuilds if entries exist *)
  | Error (`Corrupt _) -> ix_check_unlocked ~force:true t

let open_store t =
  if not (Atomic.get t.opened) then
    Mutex.protect t.open_mu (fun () ->
        if not (Atomic.get t.opened) then begin
          Mutex.protect t.ix_mu (fun () -> ix_load_unlocked t);
          Atomic.set t.opened true
        end)

(* open, then cross-check: every operation on the index totals *)
let open_checked t =
  open_store t;
  Mutex.protect t.ix_mu (fun () -> ix_check_unlocked t)

(* ------------------------------------------------------------------ *)
(* Quarantine (bounded)                                                *)
(* ------------------------------------------------------------------ *)

(* keep only the newest [quarantine_keep] quarantined files: the
   quarantine is post-mortem evidence, not an archive, and an unbounded
   one fills the disk exactly when the store is already struggling *)
let prune_quarantine t =
  let qdir = quarantine_dir t in
  match Sys.readdir qdir with
  | exception Sys_error _ -> ()
  | files when Array.length files <= t.quarantine_keep -> ()
  | files ->
    let dated =
      Array.to_list files
      |> List.filter_map (fun f ->
             let p = Filename.concat qdir f in
             match Unix.stat p with
             | exception Unix.Unix_error _ -> None
             | st -> Some (st.Unix.st_mtime, f, p))
      |> List.sort compare (* oldest first; name breaks mtime ties *)
    in
    let excess = List.length dated - t.quarantine_keep in
    List.iteri
      (fun i (_, _, p) ->
        if i < excess then begin
          (try Sys.remove p with Sys_error _ -> ());
          bump c_quarantine_dropped t.live.l_quarantine_dropped
        end)
      dated

(* move a corrupt entry out of the addressable namespace so it can be
   inspected post-mortem and is never re-read; fall back to deleting it
   when the move itself fails (read-only quarantine dir, cross-device) *)
let quarantine t path why =
  bump c_corrupt t.live.l_corrupt;
  bump c_quarantined t.live.l_quarantined;
  Telemetry.Event.warn "rcache.quarantine"
    ~fields:[ ("entry", J.Str (Filename.basename path)); ("why", J.Str why) ];
  let qdir = quarantine_dir t in
  (match
     if not (Sys.file_exists qdir) then Unix.mkdir qdir 0o755;
     Sys.rename path (Filename.concat qdir (Filename.basename path))
   with
  | () -> warn "quarantined corrupt entry %s (%s)" path why
  | exception (Sys_error _ | Unix.Unix_error _) ->
    (try Sys.remove path with Sys_error _ -> ());
    warn "removed corrupt entry %s (%s; quarantine unavailable)" path why);
  prune_quarantine t;
  (* the slot is gone from disk; keep the index in agreement *)
  let key = Filename.chop_suffix (Filename.basename path) ".json" in
  Mutex.protect t.ix_mu (fun () ->
      if Hashtbl.mem t.ix.ix_tbl key then ix_append_unlocked t (`Del key))

(* ------------------------------------------------------------------ *)
(* Entry parsing                                                       *)
(* ------------------------------------------------------------------ *)

type parsed = Good of J.t * string | Stale | Bad of string

let parse_entry text =
  match J.of_string text with
  | Error msg -> Bad msg
  | Ok doc -> (
    match J.member "schema" doc with
    | Some (J.Int v) when v <> schema_version -> Stale
    | Some (J.Int _) -> (
      match (J.member "payload" doc, J.member "checksum" doc) with
      | Some payload, Some (J.Str sum) ->
        if String.equal (payload_checksum payload) sum then
          let kind =
            match J.member "kind" doc with
            | Some (J.Str k) -> k
            | _ -> kind_numeric
          in
          Good (payload, kind)
        else Bad "checksum mismatch"
      | Some _, _ -> Bad "missing checksum field"
      | None, _ -> Bad "missing payload field")
    | _ -> Bad "missing schema field")

(* one read of [path], with the one-retry-then-done policy *)
let read_entry path =
  if not (Sys.file_exists path) then None
  else
    let attempt () =
      match read_file path with
      | exception Sys_error msg -> Bad msg
      | text -> parse_entry text
    in
    Some
      (match attempt () with
      | Bad _ -> attempt () (* one retry: short read racing a writer *)
      | ok -> ok)

(* ------------------------------------------------------------------ *)
(* Store                                                               *)
(* ------------------------------------------------------------------ *)

(* ENOSPC means every further write will fail too: stop trying, keep
   serving hits.  One warning, one counted flip; stores become no-ops. *)
let flip_read_only t =
  if Atomic.compare_and_set t.read_only false true then begin
    bump c_readonly_flip t.live.l_readonly_flips;
    Telemetry.Event.warn "rcache.readonly_flip"
      ~fields:[ ("dir", J.Str t.cache_dir) ];
    warn "disk full: cache %s now read-only (existing entries still served)"
      t.cache_dir
  end

(* forward declaration to let [store] trigger the opportunistic GC *)
let rec_gc = ref (fun ?float_goal:(_ : float option) (_ : t) -> ())

let over_watermark t =
  Mutex.protect t.ix_mu (fun () ->
      (match t.max_bytes with
      | Some wm -> t.ix.ix_bytes > wm
      | None -> false)
      ||
      match t.max_entries with
      | Some wm -> Hashtbl.length t.ix.ix_tbl > wm
      | None -> false)

let store ?kind t key payload =
  (* cross-check before writing: a check between the file and its
     record would see the new file as a crash's leftover *)
  open_checked t;
  (* the memory tier takes every store, even when the disk is full or
     gone: a daemon on a dead disk keeps its working set warm *)
  (match t.mem with
  | Some m ->
    Mem.put m key payload ~on_evict:(fun () ->
        bump c_mem_evict t.live.l_mem_evictions)
  | None -> ());
  if not (Atomic.get t.read_only) then begin
    let doc =
      J.Obj
        ([
           ("schema", J.Int schema_version);
           ("checksum", J.Str (payload_checksum payload));
           ("payload", payload);
         ]
        @ match kind with Some k -> [ ("kind", J.Str k) ] | None -> [])
    in
    let text = J.to_string doc in
    (* a torn write lands a prefix of the entry: the atomic rename makes
       this impossible for real, so simulate the *outcome* (truncated
       bytes at the final path) to exercise detection + quarantine *)
    let text =
      if Faultsim.fire Faultsim.Rcache_torn_write then
        String.sub text 0 (String.length text / 2)
      else text
    in
    let path = entry_path t key in
    match
      mkdir_p (Filename.dirname path);
      if Faultsim.fire Faultsim.Rcache_enospc then
        raise (Unix.Unix_error (Unix.ENOSPC, "write", path));
      Io.write_atomic
        ~on_retry:(fun () ->
          bump c_write_retry t.live.l_write_retries;
          Telemetry.Event.info "rcache.write_retry"
            ~fields:[ ("entry", J.Str key) ])
        path text
    with
    | () ->
      bump c_store t.live.l_stores;
      let kind = Option.value kind ~default:kind_numeric in
      Mutex.protect t.ix_mu (fun () ->
          t.ix.ix_seq <- t.ix.ix_seq + 1;
          ix_append_unlocked t (`Add (key, kind, String.length text, t.ix.ix_seq));
          if compaction_due t.ix then ix_compact_unlocked t);
      if over_watermark t then !rec_gc ~float_goal:0.875 t
    | exception Unix.Unix_error (Unix.ENOSPC, _, _) -> flip_read_only t
    | exception (Sys_error msg | Unix.Unix_error (_, msg, _)) ->
      Telemetry.Event.warn "rcache.store_failed"
        ~fields:[ ("entry", J.Str key); ("why", J.Str msg) ];
      warn "cannot store entry %s (%s)" key msg
  end

(* ------------------------------------------------------------------ *)
(* Find: mem -> local disk -> upstream (with promotion)                *)
(* ------------------------------------------------------------------ *)

let touch t key =
  Mutex.protect t.ix_mu (fun () ->
      if Hashtbl.mem t.ix.ix_tbl key then begin
        t.ix.ix_seq <- t.ix.ix_seq + 1;
        ix_append_unlocked t (`Touch (key, t.ix.ix_seq));
        if compaction_due t.ix then ix_compact_unlocked t
      end)

let mem_put t key payload =
  match t.mem with
  | Some m ->
    Mem.put m key payload ~on_evict:(fun () ->
        bump c_mem_evict t.live.l_mem_evictions)
  | None -> ()

(* the local disk tier: sharded path first, flat path as a fallback for
   stores whose migration could not run (read-only filesystem) *)
let disk_find t key =
  let try_path path =
    match read_entry path with
    | None -> `Absent
    | Some (Good (payload, kind)) -> `Good (payload, kind)
    | Some Stale -> `Stale
    | Some (Bad why) -> `Bad (path, why)
  in
  match try_path (entry_path t key) with
  | `Absent -> try_path (flat_path_in t.cache_dir key)
  | r -> r

(* upstream is someone else's store: never write to it, never
   quarantine into it — corruption there is just a miss here *)
let upstream_find t up key =
  let try_path path =
    match read_entry path with
    | Some (Good (payload, kind)) -> Some (payload, kind)
    | Some (Bad why) ->
      bump c_corrupt t.live.l_corrupt;
      warn "ignoring corrupt upstream entry %s (%s)" path why;
      None
    | Some Stale | None -> None
  in
  match try_path (entry_path_in up key) with
  | Some r -> Some r
  | None -> try_path (flat_path_in up key)

let find t key =
  open_store t;
  match t.mem with
  | Some m when Mem.find m key <> None ->
    bump c_mem_hit t.live.l_mem_hits;
    bump c_hit t.live.l_hits;
    Mem.find m key
  | _ -> (
    Telemetry.tick c_mem_miss;
    match disk_find t key with
    | `Good (payload, _kind) ->
      bump c_disk_hit t.live.l_disk_hits;
      bump c_hit t.live.l_hits;
      mem_put t key payload;
      touch t key;
      Some payload
    | (`Absent | `Stale | `Bad _) as local -> (
      (match local with
      | `Bad (path, why) -> quarantine t path why
      | _ -> ());
      Telemetry.tick c_disk_miss;
      match t.upstream with
      | None ->
        bump c_miss t.live.l_misses;
        None
      | Some up -> (
        match upstream_find t up key with
        | Some (payload, kind) ->
          bump c_upstream_hit t.live.l_upstream_hits;
          bump c_hit t.live.l_hits;
          bump c_promotion t.live.l_promotions;
          Telemetry.Event.debug "rcache.promote"
            ~fields:[ ("entry", J.Str key) ];
          (* promotion: replay the upstream entry into the local tiers
             (kind preserved; the numeric default stays untagged so the
             promoted file is byte-identical to the upstream original)
             so the next lookup never leaves this box *)
          store ?kind:(if kind = kind_numeric then None else Some kind) t key
            payload;
          Some payload
        | None ->
          Telemetry.tick c_upstream_miss;
          bump c_miss t.live.l_misses;
          None)))

let find_or_add ?kind t ~key ~decode ~encode f =
  match find t key with
  | Some payload -> (
    match decode payload with
    | Some v -> v
    | None ->
      (* decodable JSON but not the expected shape; the store below
         overwrites (= repairs) the entry, no quarantine needed *)
      bump c_corrupt t.live.l_corrupt;
      (match t.mem with Some m -> Mem.remove m key | None -> ());
      warn "ignoring undecodable entry %s" key;
      let v = f () in
      store ?kind t key (encode v);
      v)
  | None ->
    let v = f () in
    store ?kind t key (encode v);
    v

(* ------------------------------------------------------------------ *)
(* Stats (index-sourced: no entry scan)                                *)
(* ------------------------------------------------------------------ *)

type stats = { entries : int; bytes : int }

let stats t =
  open_checked t;
  Mutex.protect t.ix_mu (fun () ->
      { entries = Hashtbl.length t.ix.ix_tbl; bytes = t.ix.ix_bytes })

let stats_by_kind t =
  open_checked t;
  Mutex.protect t.ix_mu (fun () ->
      let tbl = Hashtbl.create 4 in
      Hashtbl.iter
        (fun _ e ->
          let prev =
            Option.value
              (Hashtbl.find_opt tbl e.x_kind)
              ~default:{ entries = 0; bytes = 0 }
          in
          Hashtbl.replace tbl e.x_kind
            { entries = prev.entries + 1; bytes = prev.bytes + e.x_bytes })
        t.ix.ix_tbl;
      List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []))

let mem_stats t =
  match t.mem with
  | None -> { entries = 0; bytes = 0 }
  | Some m ->
    let entries, bytes = Mem.stats m in
    { entries; bytes }

type index_health = {
  indexed_entries : int;
  indexed_bytes : int;
  log_records : int;  (* log lines beyond one per live entry *)
  migrated : int;  (* flat entries moved by this handle's check *)
}

let index_health t =
  open_checked t;
  Mutex.protect t.ix_mu (fun () ->
      {
        indexed_entries = Hashtbl.length t.ix.ix_tbl;
        indexed_bytes = t.ix.ix_bytes;
        log_records = log_records t.ix;
        migrated = t.last_migrated;
      })

let migrate t =
  open_checked t;
  t.last_migrated

let clear t =
  open_store t;
  (match t.mem with Some m -> Mem.clear m | None -> ());
  Mutex.protect t.ix_mu (fun () ->
      let removed =
        List.fold_left
          (fun n (_, path) ->
            try
              Sys.remove path;
              n + 1
            with Sys_error _ -> n)
          0 (scan_entries t)
      in
      Hashtbl.reset t.ix.ix_tbl;
      t.ix.ix_bytes <- 0;
      if Sys.file_exists (index_path_of t.cache_dir) then
        ix_snapshot_unlocked t;
      removed)

(* ------------------------------------------------------------------ *)
(* Garbage collection                                                  *)
(* ------------------------------------------------------------------ *)

type gc_report = {
  examined : int;
  evicted : int;
  evicted_bytes : int;
  live_entries : int;
  live_bytes : int;
  interrupted : bool;  (* an injected gc_crash stopped the sweep *)
}

(* Evict least-recently-used entries until the store fits under the
   watermarks.  [goal] scales the targets (opportunistic GC under-shoots
   to 7/8 so the very next store does not immediately re-trigger).

   Crash ordering: the entry file is removed *before* the `-` record is
   appended.  A crash in between leaves a stale index row for a file
   that no longer exists — a miss if probed, and repaired wholesale by
   the open-time count check.  The opposite order could record a
   removal that never happened, silently hiding a live entry. *)
let gc_with ?(goal = 1.0) ?max_bytes ?max_entries t =
  open_checked t;
  let wm_bytes = match max_bytes with Some _ -> max_bytes | None -> t.max_bytes in
  let wm_entries =
    match max_entries with Some _ -> max_entries | None -> t.max_entries
  in
  let scale wm = int_of_float (goal *. float_of_int wm) in
  Mutex.protect t.ix_mu (fun () ->
      let live_entries () = Hashtbl.length t.ix.ix_tbl in
      let over () =
        (match wm_bytes with
        | Some wm -> t.ix.ix_bytes > scale wm
        | None -> false)
        ||
        match wm_entries with
        | Some wm -> live_entries () > scale wm
        | None -> false
      in
      if (wm_bytes = None && wm_entries = None) || not (over ()) then
        {
          examined = live_entries ();
          evicted = 0;
          evicted_bytes = 0;
          live_entries = live_entries ();
          live_bytes = t.ix.ix_bytes;
          interrupted = false;
        }
      else begin
        bump c_gc_run t.live.l_gc_runs;
        let victims =
          Hashtbl.fold (fun k e acc -> (k, e) :: acc) t.ix.ix_tbl []
          |> List.sort (fun (_, a) (_, b) -> compare a.x_seq b.x_seq)
        in
        let examined = List.length victims in
        let evicted = ref 0 and evicted_bytes = ref 0 in
        let interrupted = ref false in
        (try
           List.iter
             (fun (key, e) ->
               if not (over ()) then raise Exit;
               (try Sys.remove (entry_path t key) with Sys_error _ -> ());
               (try Sys.remove (flat_path_in t.cache_dir key)
                with Sys_error _ -> ());
               (* kill -9 lands here: file gone, removal unrecorded *)
               if Faultsim.fire Faultsim.Rcache_gc_crash then begin
                 bump c_gc_crash t.live.l_gc_crashes;
                 Telemetry.Event.warn "rcache.gc_crash"
                   ~fields:[ ("dir", J.Str t.cache_dir) ];
                 interrupted := true;
                 raise Exit
               end;
               ix_append_unlocked t (`Del key);
               (match t.mem with Some m -> Mem.remove m key | None -> ());
               bump c_eviction t.live.l_evictions;
               incr evicted;
               evicted_bytes := !evicted_bytes + e.x_bytes)
             victims
         with Exit -> ());
        if (not !interrupted) && compaction_due t.ix then ix_compact_unlocked t;
        Telemetry.Event.info "rcache.gc"
          ~fields:
            [
              ("dir", J.Str t.cache_dir);
              ("evicted", J.Int !evicted);
              ("evicted_bytes", J.Int !evicted_bytes);
              ("live_bytes", J.Int t.ix.ix_bytes);
            ];
        {
          examined;
          evicted = !evicted;
          evicted_bytes = !evicted_bytes;
          live_entries = live_entries ();
          live_bytes = t.ix.ix_bytes;
          interrupted = !interrupted;
        }
      end)

let gc ?max_bytes ?max_entries t = gc_with ?max_bytes ?max_entries t

let () =
  rec_gc :=
    fun ?float_goal t ->
      ignore (gc_with ?goal:float_goal t)

(* ------------------------------------------------------------------ *)
(* Cumulative counters across processes                                *)
(* ------------------------------------------------------------------ *)

(* The process counters die with the process, so a later
   [polyufc cache stats] would always report zeros.  On exit, a process
   that touched a cache appends each directory's counters to that
   directory's index log as one [c] line, and compaction folds those
   lines into one.  Appends never read what other processes wrote, so
   concurrent flushes lose nothing.  [cumulative] = the log's counter
   lines (a parent-written [meta/counters.json] among them once the
   cross-check has folded it in) + the current process, giving hit-rate
   numbers that survive restarts. *)

let counts_for t = snapshot_live t.live

let counts () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.fold (fun _ l acc -> add_counts acc (snapshot_live l)) registry
        zero_counts)

let count_list c = List.map (fun (name, get, _) -> (name, get c)) count_fields

let cumulative t =
  (* the cross-check folds a parent-written [counters.json] into the log *)
  open_checked t;
  add_counts (log_counts (read_log t.cache_dir)) (counts_for t)

let persist_mutex = Mutex.create ()

(* Counters accumulated since the last flush are appended to each
   directory's own log and then subtracted from that directory's
   atomics, so flushing is safe to do repeatedly (a long-lived daemon
   flushes on drain; at_exit then only persists whatever arrived after
   that) without double counting — and a process that touched several
   stores attributes each event to the directory it happened in. *)
let flush_counters () =
  Mutex.protect persist_mutex @@ fun () ->
  let dirs =
    Mutex.protect registry_mutex (fun () ->
        Hashtbl.fold (fun dir l acc -> (dir, l) :: acc) registry [])
  in
  List.iter
    (fun (dir, l) ->
      let now = snapshot_live l in
      if now <> zero_counts then begin
        (try append_record dir (`Counts now)
         with Sys_error _ | Unix.Unix_error _ -> ());
        (* subtract exactly what was persisted; increments racing this
           flush survive in the atomics for the next one *)
        List.iter2
          (fun (_, get, _) (_, a) -> ignore (Atomic.fetch_and_add a (- get now)))
          count_fields (live_pairs l)
      end)
    dirs

let () = at_exit flush_counters
