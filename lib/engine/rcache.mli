(** A persistent, content-addressed, multi-tier result store for PolyUFC
    analyses.

    Three tiers front one key space:

    + an in-memory LRU (entry- and byte-bounded; a long-lived daemon
      serves its working set without touching disk),
    + a two-level sharded on-disk tier — entries live at
      [<dir>/ab/<digest>.json] where [ab] is the digest's first two hex
      characters, so no directory ever holds millions of files.  A
      pre-sharding flat layout is migrated transparently on first open.
    + an optional {e read-only} upstream store ([POLYUFC_CACHE_UPSTREAM]
      or [--cache-upstream]): hits found there are promoted into the
      local tiers; writes never go upstream.

    Keys are hex digests of a canonical encoding of caller-supplied
    [(field, value)] parts plus the store's {!schema_version}, so a
    schema bump — or any change to the SCoP export, machine description
    or model parameters that feed the parts — addresses different
    entries.

    A compact append-only index at [<dir>/meta/index] tracks every live
    entry (kind, size, last-use order) and the store's cumulative
    counters, so {!stats}, {!stats_by_kind} and the garbage collector
    never re-scan the entry tree.  Every process appends to the same
    log and every line counts toward compaction, so the first process
    that finds the log more than [64 + 4 × live] lines past one per
    live entry rewrites it as a snapshot: a short-lived process reads a
    log bounded by the live entry count, whatever the store's history.
    Every index line carries a checksum; a missing, torn or corrupt
    index — or one that disagrees with the shard tree after a crash —
    is rebuilt from the tree: counted, never fatal.  That cross-check
    walks the tree once per handle, before its first {!store},
    {!stats}, {!gc}, {!cumulative} or snapshot, holding the log's lock
    and re-reading the log first, so what other processes stored since
    the open is no crash damage; a handle that only finds never walks
    it.  The index is an accelerator; the shard tree is the truth.

    {!gc} evicts least-recently-used entries until the store fits under
    [--cache-max-bytes] / [--cache-max-entries] (also read from
    [POLYUFC_CACHE_MAX_BYTES] / [POLYUFC_CACHE_MAX_ENTRIES]; sizes
    accept [k]/[M]/[G] suffixes).  GC runs when asked
    ([polyufc cache gc]), at daemon start, and opportunistically after a
    store crosses the watermark.  It removes entry files before
    recording the removal, so a kill -9 mid-sweep leaves at worst a
    stale index that the next open repairs.

    Robustness: entries are written atomically (temp file + fsync +
    rename, with one retry on transient I/O errors) and embed a payload
    checksum, so truncated or bit-flipped files are detected even when
    they still parse as JSON.  A failing read is retried once (a
    concurrent writer's rename can race it); an entry that is still
    unreadable is moved to [<cache-dir>/quarantine/] for post-mortem and
    treated as a miss (warned on stderr, counted) — never an error.  The
    quarantine keeps only the newest entries (default 32); older
    evidence is dropped and counted.  [ENOSPC] on a store flips the disk
    tier to a degraded {!read_only} mode: hits keep being served (and
    the memory tier keeps absorbing stores), further on-disk stores are
    silently skipped.  Lookups and stores are safe from concurrent pool
    workers and serve sessions.

    Per-tier hits/misses/evictions/promotions are mirrored into
    telemetry counters ([engine.cache.mem.hit], [engine.cache.disk.hit],
    [engine.cache.upstream.hit], [engine.cache.eviction], … — recorded
    when telemetry is enabled) and into always-on process-local counters
    exposed by {!counts}. *)

type t

val schema_version : int
(** Bump when the cached payload layout changes; invalidates every
    existing entry (old files fail the embedded version check and old
    keys are never derived again).  The sharded layout did {e not} bump
    it: entry documents are unchanged, so migration preserves every
    key. *)

val default_dir : unit -> string
(** [$POLYUFC_CACHE_DIR] or ["_polyufc_cache"]. *)

val parse_size : string -> int option
(** Parse a byte count with an optional [k]/[M]/[G] suffix
    (["64M"] → [67108864]).  [None] on anything else. *)

val create :
  ?dir:string ->
  ?upstream:string ->
  ?mem_entries:int ->
  ?mem_bytes:int ->
  ?max_bytes:int ->
  ?max_entries:int ->
  ?quarantine_keep:int ->
  unit ->
  t
(** No I/O happens until the first use.  [upstream] defaults to
    [POLYUFC_CACHE_UPSTREAM] (ignored if equal to the local dir);
    [max_bytes]/[max_entries] default to [POLYUFC_CACHE_MAX_BYTES] /
    [POLYUFC_CACHE_MAX_ENTRIES] (unset = unbounded); the memory tier
    defaults to 512 entries / 32 MiB ([mem_entries]/[mem_bytes] [<= 0]
    disables it); [quarantine_keep] defaults to 32. *)

val dir : t -> string

val upstream : t -> string option
(** The read-only upstream directory, if one is configured. *)

val read_only : t -> bool
(** True once a store hit [ENOSPC]; the disk tier then serves hits but
    skips every further store (the memory tier still absorbs them). *)

val key : ?schema:int -> (string * string) list -> string
(** Content address of the given parts (field order is significant; pass
    a fixed field layout).  [schema] defaults to {!schema_version} and is
    part of the digested content. *)

val entry_path : t -> string -> string
(** Where the entry for this key lives (or would live) in the sharded
    on-disk tier: [<dir>/<first-2-hex>/<key>.json]. *)

val quarantine_dir : t -> string
(** [<cache-dir>/quarantine], where corrupt entries are moved. *)

val find : t -> string -> Telemetry.Json.t option
(** Memory, then local disk, then upstream.  [None] on absence,
    corruption, or schema mismatch.  Corrupt local entries (unparsable,
    missing fields, checksum mismatch) are quarantined after one failed
    retry; corrupt upstream entries are just misses.  An upstream hit is
    promoted into the local tiers. *)

val store : ?kind:string -> t -> string -> Telemetry.Json.t -> unit
(** Atomic; creates the cache directory on first use.  The memory tier
    takes every store; the disk tier is skipped in {!read_only} mode.
    Transient I/O failures are retried once, persistent ones are
    warnings, [ENOSPC] flips {!read_only} (the cache is an accelerator,
    never a correctness dependency).  [kind] tags the entry document for
    {!stats_by_kind} (untagged = {!kind_numeric}).  May trigger an
    opportunistic {!gc} when the store crosses the watermark. *)

val find_or_add :
  ?kind:string ->
  t ->
  key:string ->
  decode:(Telemetry.Json.t -> 'a option) ->
  encode:('a -> Telemetry.Json.t) ->
  (unit -> 'a) ->
  'a
(** Memoize [f] under [key]; a [decode] returning [None] counts as a
    corrupt entry and falls back to computing.  [kind] tags the stored
    entry as in {!store}. *)

type stats = { entries : int; bytes : int }

val stats : t -> stats
(** Live entries and bytes in the on-disk tier, from the index (after
    the handle's one count cross-check against the shard tree; no entry
    is read unless that check rebuilds the index). *)

val kind_numeric : string
(** ["numeric/v2"]: the implicit kind of untagged analysis entries. *)

val kind_roofline : string
(** ["roofline/v1"]: a machine's fitted roofline constants
    ([Roofline.for_machine]), keyed on the machine fingerprint and the
    simulator version. *)

val kind_sim : string
(** ["sim/v1"]: the baseline and capped simulator outcomes of one
    [Flow.evaluate], keyed on the program, parameters, caps, governor
    interval, machine fingerprint and simulator version. *)

val kind_tiling : string
(** ["tiling/v1"]: a program's tiling plan ([Core.Analysis_cache.tile]),
    keyed on an exact digest of the program, the legality sizes and the
    tiler version. *)

val kinds : string list
(** Every kind tag above, in that order. *)

val stats_by_kind : t -> (string * stats) list
(** Entry census per kind tag, from the index (untagged entries count as
    {!kind_numeric}; files that were unreadable when indexed as
    ["unreadable"]). *)

val mem_stats : t -> stats
(** Occupancy of the in-memory tier ([{entries = 0; bytes = 0}] when the
    tier is disabled). *)

type index_health = {
  indexed_entries : int;
  indexed_bytes : int;
  log_records : int;
      (** index log lines beyond one per live entry, whoever wrote them;
          compaction keeps it at most [64 + 4 × live] (plus the lines
          appended since the last check) *)
  migrated : int;  (** flat entries sharded by this handle's check *)
}

val index_health : t -> index_health
(** For [cache stats]: how big the index log has grown and whether this
    open migrated a flat layout. *)

val migrate : t -> int
(** Run the open and the shard-tree cross-check (and with it the
    flat→sharded migration) now; returns how many flat entries were
    moved by this handle.  The check runs once per handle: a second
    call returns the same number without I/O.  Until it runs, a flat
    entry is still found at its flat path. *)

type gc_report = {
  examined : int;  (** live entries considered *)
  evicted : int;
  evicted_bytes : int;
  live_entries : int;  (** after the sweep *)
  live_bytes : int;
  interrupted : bool;  (** an injected [rcache.gc_crash] stopped the sweep *)
}

val gc : ?max_bytes:int -> ?max_entries:int -> t -> gc_report
(** Evict least-recently-used entries until the store fits under the
    given watermarks (defaulting to the store's configured ones; both
    unset = no-op).  Crash-consistent: entry files are removed before
    their index records, so an interrupted sweep leaves a store that
    reopens, rebuilds its index, and keeps serving the survivors. *)

val clear : t -> int
(** Remove every entry; returns how many were removed.  Quarantined
    files are kept (they are post-mortem evidence, not entries). *)

type counts = {
  hits : int;  (** total across tiers *)
  misses : int;
  stores : int;
  corrupt : int;
  quarantined : int;
  write_retries : int;  (** transient store failures that were retried *)
  readonly_flips : int;  (** caches flipped read-only by [ENOSPC] *)
  mem_hits : int;
  disk_hits : int;
  upstream_hits : int;
  promotions : int;  (** upstream hits replayed into the local tiers *)
  evictions : int;  (** on-disk entries removed by {!gc} *)
  mem_evictions : int;
  gc_runs : int;
  gc_crashes : int;  (** injected [rcache.gc_crash] firings honoured *)
  migrated : int;  (** flat entries moved to the sharded layout *)
  index_rebuilds : int;
  index_bad_lines : int;  (** index lines skipped for a bad checksum *)
  quarantine_dropped : int;  (** old quarantine files pruned *)
  tree_scans : int;  (** walks of the shard tree (cross-checks, clears) *)
}

val counts : unit -> counts
(** Process-wide counters since startup, summed over every cache
    directory this process touched (independent of telemetry
    enablement). *)

val counts_for : t -> counts
(** Like {!counts}, but only the events attributed to this store's
    directory. *)

val count_list : counts -> (string * int) list
(** Every field by its name, in declaration order. *)

val flush_counters : unit -> unit
(** Append the process counters accumulated since the last flush to
    each touched cache directory's own index log (one checksummed line
    in one [write(2)], so concurrent flushes from several processes
    never lose each other's counts), then zero them
    — so flushing repeatedly (or flushing and then exiting, where an
    [at_exit] flush also runs) never double-counts, and a process that
    touched several stores attributes each event to the directory it
    happened in.  The serve daemon calls this when a drain completes so
    cumulative hit rates survive even an unclean exit afterwards.
    No-op when no cache directory has been touched. *)

val cumulative : t -> counts
(** This directory's counters from the current process plus those
    persisted by previous processes that used the same cache directory.
    A process that touched a cache appends its counters to the index
    log at exit; compaction folds those lines into one, and a line that
    fails its checksum is skipped (counted in [index_bad_lines] by the
    processes that load it); a rebuild after a bad log header keeps the
    counter lines that still check.  Stores written before the counter
    lines keep their totals in [<dir>/meta/counters.json]: this call
    runs the handle's cross-check, which appends them to the log as one
    counter line and removes the file.  This is what lets [polyufc cache stats]
    report hit rates without having run the analysis itself. *)
