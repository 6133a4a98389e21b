(** Lightweight telemetry: spans, counters and trace events.

    The layer is off by default and costs a single branch per probe when
    disabled, so it can stay permanently threaded through the translator
    stages, both XQuery engines, the SQL engine, the driver and the DSP
    server.  Enable it with {!set_enabled}, run a workload, then read the
    aggregate {!snapshot} or attach an NDJSON {!set_trace_sink} for
    per-span events. *)

(** {1 Switch and clock} *)

val set_enabled : bool -> unit
(** Turn the probes on or off (off by default).  Disabling does not clear
    accumulated data; use {!reset} for that. *)

val enabled : unit -> bool

val set_clock : (unit -> int64) -> unit
(** Install a nanosecond clock.  The default derives from
    [Unix.gettimeofday] monotonicized (a wall-clock step backwards
    returns the previous reading rather than going back in time);
    benchmarks may install a true monotonic source (e.g. bechamel's
    [Monotonic_clock.now]).  Span durations are clamped at 0 in any
    case, so a misbehaving installed clock can never record negative
    time. *)

val now_ns : unit -> int64
(** Read the installed clock (works even when disabled). *)

(** {1 Counters} *)

type counter

val counter : string -> counter
(** [counter name] returns the counter registered under [name], creating
    it on first use.  Counter names are unique; calling [counter] twice
    with the same name yields the same counter. *)

val incr : counter -> unit
(** No-op while disabled. *)

val add : counter -> int -> unit
(** No-op while disabled. *)

val value : counter -> int

val counters : unit -> (string * int) list
(** All registered counters in first-registration order. *)

(** Pre-registered counters used by the instrumented libraries. *)

val c_translations : counter       (* SQL statements translated *)
val c_rows_emitted : counter       (* tuples emitted by FLWOR clauses (xqeval) *)
val c_hash_join_builds : counter   (* hash tables built (both engines) *)
val c_hash_join_build_rows : counter (* rows inserted into hash tables *)
val c_hash_join_probes : counter   (* hash-table probes *)
val c_hash_join_collisions : counter (* insert-side bucket collisions (key already present) *)
val c_hash_join_reused : counter   (* hash-table builds skipped via reuse (xqeval) *)
val c_pushdown_rewrites : counter  (* predicates pushed down by the optimizer *)
val c_hash_join_rewrites : counter (* equi-joins rewritten to hash joins *)
val c_engine_rows_scanned : counter (* base-table rows scanned (sqlengine) *)
val c_engine_rows_joined : counter  (* rows produced by sqlengine joins *)
val c_cache_hits : counter         (* driver LRU translation-cache hits *)
val c_cache_misses : counter       (* driver LRU translation-cache misses *)
val c_resultset_rows : counter     (* rows materialized into driver result sets *)
val c_retry_attempts : counter     (* backend calls re-attempted after a transient fault *)
val c_retry_giveups : counter      (* retries exhausted; the fault propagated *)
val c_breaker_trips : counter      (* circuit breakers opened *)
val c_breaker_recoveries : counter (* breakers closed again from half-open *)
val c_breaker_rejections : counter (* calls rejected by an open breaker *)
val c_deadline_exceeded : counter  (* queries canceled by their deadline *)
val c_resource_exhausted : counter (* row/item/fuel governors tripped *)
val c_faults_injected : counter    (* failpoint faults fired *)
val c_fallbacks_unoptimized : counter (* server reran a statement on the interpreter after an engine fault *)
val c_scan_cache_hits : counter      (* materialized-scan cache hits (dsp) *)
val c_scan_cache_misses : counter    (* scan-cache misses (scan fetched and stored) *)
val c_scan_cache_evictions : counter (* entries evicted by the byte/row/entry budgets *)
val c_scan_cache_bytes : counter     (* resident scan-cache bytes (gauge: +insert/-evict) *)
val c_shared_scan_rewrites : counter (* repeated scans hoisted into a shared let *)
val c_batch_batches : counter        (* batches pushed by the vectorized pipeline *)
val c_batch_rows : counter           (* rows carried by those batches *)
val c_batch_filtered : counter       (* rows dropped by vectorized where filters *)
val c_col_batches : counter          (* columnar (struct-of-arrays) batches pushed *)
val c_col_rows : counter             (* rows carried by columnar batches *)
val c_col_pruned_columns : counter   (* column copies avoided by required-columns pruning *)
val c_col_kernel_updates : counter   (* per-tuple aggregation-kernel state updates *)
val c_col_projected_columns : counter  (* scan column vectors built for projection *)
val c_col_projection_hits : counter  (* scan column vectors served from the memo *)
val c_col_derived_columns : counter  (* derived cell columns built *)
val c_col_derived_hits : counter  (* derived cell columns served from the memo *)
val c_pool_borrows : counter         (* sessions handed out by the session pool *)
val c_pool_rejections : counter      (* borrows rejected: pool exhausted (53300) *)
val c_pool_waits : counter           (* borrows that had to wait for a release *)
val c_net_connections : counter      (* network connections accepted *)
val c_net_queries : counter          (* wire Query messages executed *)
val c_net_shed_queue : counter       (* connections shed: accept queue full (53300) *)
val c_net_shed_drain : counter       (* connections/queries shed while draining (57P01/57P03) *)
val c_net_shed_breaker : counter     (* queries fast-rejected on an open breaker (08006) *)
val c_net_protocol_errors : counter  (* malformed/oversized/unknown wire frames (08P01) *)
val c_net_io_timeouts : counter      (* sessions torn down by a read/write deadline *)
val c_net_drains : counter           (* graceful drain sequences completed *)
val c_net_stat_queries : counter     (* aqua_stat_* virtual-table queries answered *)
val c_net_traces_sampled : counter   (* wire queries whose trace was head-sampled *)

(** {1 Per-clause row accounting}

    The xqeval FLWOR pipeline registers one counter per plan node (clause)
    it streams tuples through, labelled by clause kind and variable.
    {!clause_rows} returns them in first-seen order, which for a single
    query is pipeline order — the skeleton of an EXPLAIN ANALYZE tree. *)

val clause_counter : string -> counter
val clause_rows : unit -> (string * int) list

(** {1 Spans} *)

val with_span : string -> (unit -> 'a) -> 'a
(** [with_span name f] times [f ()] and aggregates the duration under
    [name].  Spans nest; the current depth is recorded on each trace
    event.  When disabled this is just [f ()].  The span is closed (and
    traced) even if [f] raises. *)

val span_stats : unit -> (string * int * int64) list
(** [(name, count, total_ns)] per span name, first-seen order. *)

val span_total_ns : string -> int64
(** Total nanoseconds accumulated under one span name (0 if unknown). *)

val set_span_observer : (string -> int64 -> unit) option -> unit
(** When set, every span close (telemetry enabled) also calls the
    observer with the span name and its clamped duration.  The obs
    layer installs its histogram recorder here. *)

(** {1 Trace context}

    A per-query trace id installed by the wire frontend (or any other
    entry point) for the duration of one statement.  The context is
    domain-local, so concurrent sessions on different worker domains
    never see each other's ids, and it travels implicitly through the
    whole stack — session pool, driver, translator, both engines, DSP
    calls — without parameter threading.  While a context is
    installed, every span and trace-event NDJSON line carries a
    ["trace"] field, and emission honors the context's head-based
    sampling decision: an unsampled query still feeds every aggregate
    (counters, span totals, histograms, stats, recorder) but emits no
    per-event lines. *)

val with_trace : id:string -> sampled:bool -> (unit -> 'a) -> 'a
(** Install a trace context around [f] (restored on exit, also on
    exception).  Nested installs shadow and restore. *)

val current_trace : unit -> (string * bool) option
(** The installed [(trace id, sampled)] context, if any. *)

val current_trace_id : unit -> string option
(** Just the id — what the flight recorder stamps on events. *)

(** {1 Tracing} *)

val set_trace_sink : (string -> unit) option -> unit
(** When set (and telemetry is enabled), every span close emits one
    NDJSON line to the sink:
    [{"ev":"span","name":...,"depth":N,"start_ns":...,"dur_ns":...}]
    — with a [,"trace":id] field after [name] when a trace context is
    installed, and suppressed entirely when the context says
    unsampled. *)

val trace_event : string -> (string * string) list -> unit
(** [trace_event ev fields] emits a custom NDJSON line
    [{"ev":ev, field:value, ...}] to the sink, if any.  Values are
    emitted as JSON strings. *)

(** {1 Snapshot} *)

type metrics = {
  translations : int;
  parse_ns : int64;
  semantic_ns : int64;
  generate_ns : int64;
  rows_emitted : int;
  hash_join_builds : int;
  hash_join_build_rows : int;
  hash_join_probes : int;
  hash_join_collisions : int;
  hash_join_reused : int;
  pushdown_rewrites : int;
  hash_join_rewrites : int;
  engine_rows_scanned : int;
  engine_rows_joined : int;
  cache_hits : int;
  cache_misses : int;
  resultset_rows : int;
  ds_calls : int;          (** DSP data-service function invocations *)
  ds_call_ns : int64;      (** total latency across those invocations *)
  scan_cache_hits : int;
  scan_cache_misses : int;
  scan_cache_evictions : int;
  scan_cache_bytes : int;  (** resident bytes at snapshot time *)
  shared_scan_rewrites : int;
  batch_batches : int;     (** batches pushed by the vectorized pipeline *)
  batch_rows : int;        (** rows carried by those batches *)
  batch_filtered : int;    (** rows dropped by vectorized where filters *)
  columnar_batches : int;  (** columnar (struct-of-arrays) batches pushed *)
  columnar_rows : int;     (** rows carried by columnar batches *)
  columnar_pruned_columns : int;
      (** column copies avoided by required-columns pruning *)
  columnar_kernel_updates : int;
      (** per-tuple aggregation-kernel state updates *)
}

val snapshot : unit -> metrics

val metrics_to_json : metrics -> string
(** One-line JSON object, schema documented in DESIGN.md §8. *)

val reset : unit -> unit
(** Zero all counters, span aggregates and clause-row records.  Does not
    change the enabled flag, clock or trace sink — and does not touch
    the {!c_scan_cache_bytes} gauge, whose value tracks bytes still
    resident in live scan caches (zeroing it mid-life would let later
    evictions drive it negative). *)

(** {1 JSON string escaping} *)

val json_escape : string -> string
(** Escape a string for inclusion inside JSON double quotes. *)
