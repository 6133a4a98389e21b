(** Metric exposition: Prometheus text format and JSON.

    Renders everything the obs layer knows — telemetry counters and
    span aggregates, the named latency histograms, and the
    per-fingerprint registry — for scraping ({!prometheus}) or
    programmatic consumption ({!json}).  {!lint} is a standalone
    checker for the Prometheus text format, used by [sql2xq lint-prom]
    (which CI runs over the CLI's and a live [/metrics] exposition) and
    the test suite, so the renderer can never silently drift from the
    format. *)

(** {1 Gauges}

    Live values — queue depths, pool occupancy, in-flight counts — are
    exposed through registered read callbacks: the owner registers a
    closure over its own state, and every scrape calls it for the
    instant value.  Re-registering a name replaces the callback (a
    restarted server takes over); a callback that raises is skipped
    for that scrape. *)

val register_gauge : help:string -> string -> (unit -> int) -> unit
(** [register_gauge ~help name read] — [name] is sanitized into the
    [aqua_<name>] metric family (rendered with [# TYPE … gauge]). *)

val unregister_gauge : string -> unit

val gauge_values : unit -> (string * int) list
(** Current [(name, value)] per registered gauge, registration order,
    raising readers skipped. *)

val prometheus : unit -> string
(** Prometheus exposition (text format 0.0.4):
    - every telemetry counter as [aqua_<name>_total];
    - every registered gauge as [aqua_<name>] with [# TYPE … gauge];
    - span aggregates as [aqua_span_count_total{span=…}] /
      [aqua_span_duration_ns_total{span=…}];
    - each named histogram as the [aqua_latency_ns{op=…}] histogram
      family (cumulative [le] buckets from the sparse log-linear
      representation, plus [_sum]/[_count]);
    - per-fingerprint calls / rows / cache hits / errors-by-class
      counters and an [aqua_query_latency_ns{fp=…,stage=…}] summary
      (p50/p90/p99 quantiles). *)

val json : unit -> string
(** The same data as one JSON object:
    [{"counters":…,"gauges":…,"spans":…,"histograms":…,"fingerprints":…}]. *)

val lint : string -> string list
(** Problems found in a Prometheus text exposition (empty = valid):
    malformed lines, samples without a preceding [# TYPE], unknown
    metric types, duplicate [TYPE] declarations, malformed labels or
    values, histogram buckets out of order / non-cumulative / missing
    [le="+Inf"], and [_count] disagreeing with the [+Inf] bucket. *)
