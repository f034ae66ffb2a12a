(** Zero-dependency instrumentation for the PolyUFC pipeline: hierarchical
    spans, monotonic counters and scalar histograms behind one global
    registry, exportable as Chrome trace_event JSON, machine-readable
    stats JSON, and pretty text. Disabled by default; disabled hot paths
    cost a single load+branch.

    The registry is domain-safe: counters are atomics, histogram and span
    recording synchronize on an internal mutex, and the open-span stack is
    domain-local, so spans recorded concurrently by {!Engine.Pool} workers
    nest within the worker's own spans (a worker's outermost span is a
    root).  [reset] zeroes shared state in place and must not race with
    concurrent recording. *)

(** Minimal JSON values: emitter with escaping, plus a strict parser used
    by tests and smoke checks. Non-finite floats serialize as [null]. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  val of_string : string -> (t, string) result
  val member : string -> t -> t option
  val to_list : t -> t list option
  val number : t -> float option

  val hex_float : float -> t
  (** [Str] of the ["%h"] rendering: a bit-exact float encoding
      (infinities included) for result-store payloads. *)

  val float_of_hex : t -> float option
  (** Inverse of {!hex_float}; plain numbers are accepted too. *)
end

type span = {
  id : int;
  parent : int;  (** -1 for a root span *)
  depth : int;
  name : string;
  start_us : float;  (** microseconds since the last [reset] *)
  dur_us : float;
  span_args : (string * string) list;
}

type counter
type gauge

(** {1 Registry control} *)

val enable : unit -> unit
val disable : unit -> unit
val is_enabled : unit -> bool

(** Zero all counters/histograms in place (pre-registered handles stay
    valid), drop recorded spans, and restart the trace clock. *)
val reset : unit -> unit

(** {1 Counters} *)

(** Find-or-create a named monotonic counter. Hot paths should call this
    once at module initialization and bump the handle with [tick]/[add]. *)
val counter : string -> counter

val tick : counter -> unit
val add : counter -> int -> unit

(** One-shot bump by name; does a table lookup, for cold paths only. *)
val count : ?by:int -> string -> unit

val counter_value : string -> int
val counters_snapshot : unit -> (string * int) list

(** {1 Gauges}

    A gauge is a level, not a rate: it moves both ways (in-flight
    requests, queue depth, connected clients) and exports its current
    value instead of a monotonic total — OpenMetrics type [gauge] rather
    than [counter].  Updates are atomic and domain-safe; like counters,
    a disabled update costs one load + branch, and {!reset} zeroes
    gauges in place. *)

(** Find-or-create a named gauge. *)
val gauge : string -> gauge

val set_gauge : gauge -> int -> unit
val incr_gauge : gauge -> unit
val decr_gauge : gauge -> unit
val gauge_value : string -> int
val gauges_snapshot : unit -> (string * int) list

(** {1 Histograms}

    Histograms are fixed-bucket log-linear (HDR-histogram style): each
    power-of-two binade is split into 16 equal-width sub-buckets, giving
    quantile estimates with at most ~3.1% relative error over the value
    range [2^-20, 2^40). Zero, negative and out-of-range observations
    land in underflow/overflow buckets whose estimates are pinned to the
    observed min/max, so {!quantile} is total on any non-empty
    histogram. NaN observations are dropped. *)

val observe : string -> float -> unit

(** Immutable snapshot of one histogram. [hist_buckets] lists only
    non-empty buckets as [(upper_bound, count)] in increasing bound
    order; the overflow bucket's bound is [infinity]. *)
type hist = {
  hist_count : int;
  hist_sum : float;
  hist_min : float;
  hist_max : float;
  hist_buckets : (float * int) list;
}

(** [(name, (count, sum, min, max))] for every histogram observed at
    least once. *)
val histograms_snapshot : unit -> (string * (int * float * float * float)) list

(** Full bucketed snapshots, sorted by name. *)
val histograms_detailed : unit -> (string * hist) list

val histogram_snapshot : string -> hist option

(** [quantile h q] is the nearest-rank quantile estimate for
    [q] in [0,1], clamped to the observed [min, max]. NaN when
    [h.hist_count = 0]. *)
val quantile : hist -> float -> float

(** {1 Spans} *)

(** [with_span name f] runs [f], recording a span around it when
    telemetry is enabled (a plain call otherwise). Exception-safe. *)
val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a

(** Like [with_span] but always measures, returning the wall-clock
    duration in {e seconds} alongside the result. The recorded span (when
    enabled) carries the same measurement. *)
val with_span_timed :
  ?args:(string * string) list -> string -> (unit -> 'a) -> 'a * float

(** Completed spans in chronological (start) order. *)
val spans : unit -> span list

(** Per-name rollup: [(name, (count, total_us))]. *)
val span_summary : unit -> (string * (int * float)) list

(** Spans entered but not yet closed, across all domains:
    [(id, name, start_us, domain)] sorted by id. Used by the flight
    recorder to capture in-progress work at crash time. *)
val open_spans : unit -> (int * string * float * int) list

(** Name of the innermost open span on the calling domain, if any. *)
val current_span_name : unit -> string option

(** {1 Run metadata} *)

(** Attribution block stamped into {!stats_json}, bench reports and
    crash dumps: timestamp (ISO-8601 UTC), git commit (resolved by
    reading [.git], [null] outside a work tree), hostname, pid, OCaml
    version, OS type, plus any fields added with {!set_meta}. *)
val run_meta : unit -> Json.t

(** [set_meta key v] adds (or replaces) an extra field in {!run_meta},
    e.g. the frontend's job count. *)
val set_meta : string -> Json.t -> unit

(** {1 Structured event log} *)

(** Leveled JSON-lines event log with a built-in flight recorder.

    Every event is a one-line JSON object
    [{"ts": ..., "level": ..., "event": ..., "domain": ..., "span": ...,
    <extra fields>}]. Events at or above the threshold level go to the
    configured sink; {e all} events (regardless of sink or level) are
    additionally recorded in a bounded in-memory ring consulted by the
    crash dumper. Emission is domain-safe.

    The sink can be armed without code via the [POLYUFC_LOG] environment
    variable ([FILE], [-] or [stderr]) and filtered via
    [POLYUFC_LOG_LEVEL] ([debug|info|warn|error], default [info]). *)
module Event : sig
  type level = Debug | Info | Warn | Error

  val level_of_string : string -> level option
  val level_name : level -> string

  (** Set the minimum level forwarded to the sink (ring recording is
      unaffected). *)
  val set_level : level -> unit

  (** Route events to a sink: [-] or [stderr] for standard error, [""],
      [off] or [null] to disable, anything else is opened (append,
      create) as a file. Replaces and closes any previous sink. *)
  val set_sink_path : string -> (unit, string) result

  (** Close the current sink (also installed as an [at_exit] hook). *)
  val close_sink : unit -> unit

  val emit : ?fields:(string * Json.t) list -> level -> string -> unit
  val debug : ?fields:(string * Json.t) list -> string -> unit
  val info : ?fields:(string * Json.t) list -> string -> unit
  val warn : ?fields:(string * Json.t) list -> string -> unit
  val error : ?fields:(string * Json.t) list -> string -> unit

  (** Flight-recorder contents, oldest first (at most the last 256
      events). *)
  val recent : unit -> Json.t list

  val clear_ring : unit -> unit
end

(** {1 Export} *)

(** Chrome trace_event JSON (load in chrome://tracing or Perfetto). *)
val trace_json : unit -> Json.t

val trace_to_string : unit -> string
val write_trace : string -> unit

(** Counters + gauges + histograms (with buckets and p50/p90/p99/p999) +
    span rollup + {!run_meta}, as one JSON object. *)
val stats_json : unit -> Json.t

(** Render a stats document (the {!stats_json} shape) as OpenMetrics /
    Prometheus text exposition: [polyufc_]-prefixed sanitized names,
    [# TYPE] metadata, counters as [_total], histograms as cumulative
    [_bucket{le="..."}] series plus [_sum]/[_count], run metadata as a
    [polyufc_build_info] gauge, terminated by [# EOF]. Errors if the
    document is not a JSON object. *)
val openmetrics_of_stats : Json.t -> (string, string) result

(** [openmetrics_of_stats (stats_json ())], raising [Invalid_argument]
    on malformed input (cannot happen for the live registry). *)
val to_openmetrics : unit -> string

val pp_tree : Format.formatter -> unit -> unit
val pp_stats : Format.formatter -> unit -> unit
