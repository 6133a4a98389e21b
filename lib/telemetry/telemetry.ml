(* Spans, counters and NDJSON trace events.  Everything here must be
   cheap when disabled: every probe is a single [if !enabled_flag]
   branch, so the layer can stay threaded through the hot paths of both
   engines permanently.

   Domain safety (DESIGN.md §13): counters are [Atomic.t] ints, so
   concurrent recorders from N domains lose no increments and [reset]
   cannot race a recorder into a torn read; the name->counter
   registries and the span aggregates are guarded by one module mutex
   (registration and span close are cold paths); the span nesting
   depth is domain-local.  The [enabled]/clock/sink switches remain
   plain refs — they are configuration, flipped while the system is
   quiescent, and a stale read of a monotone flag is benign. *)

module Mcore = Aqua_multicore.Mcore

let enabled_flag = ref false
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

(* The stdlib has no monotonic clock; [Unix.gettimeofday] is the best
   dependency-free default, but the wall clock can step backwards (NTP
   slew, VM suspend).  The default is therefore monotonicized: a read
   below the previous one returns the previous one, so intervals taken
   through it are never negative.  Benchmarks install a true monotonic
   source via [set_clock].  The floor is an Atomic so concurrent reads
   from N domains keep it monotone instead of racing it backwards. *)
let default_clock =
  let last = Atomic.make Int64.min_int in
  fun () ->
    let t = Int64.of_float (Unix.gettimeofday () *. 1e9) in
    let rec advance () =
      let prev = Atomic.get last in
      if Int64.compare t prev > 0 then
        if Atomic.compare_and_set last prev t then t else advance ()
      else prev
    in
    advance ()

let clock = ref default_clock
let set_clock f = clock := f
let now_ns () = !clock ()

(* One lock for every registry in this module: counter and clause
   tables, span aggregates.  Hot-path increments never take it — only
   registration (first use of a name) and span close do. *)
let registry_lock = Mcore.Mutex.create ()

(* Counters ---------------------------------------------------------- *)

type counter = { name : string; count : int Atomic.t }

(* Registration order matters for reporting, so keep a reverse-ordered
   list alongside the by-name table. *)
let counter_table : (string, counter) Hashtbl.t = Hashtbl.create 64
let counter_order : counter list ref = ref []

let counter name =
  Mcore.Mutex.protect registry_lock @@ fun () ->
  match Hashtbl.find_opt counter_table name with
  | Some c -> c
  | None ->
      let c = { name; count = Atomic.make 0 } in
      Hashtbl.add counter_table name c;
      counter_order := c :: !counter_order;
      c

let incr c = if !enabled_flag then ignore (Atomic.fetch_and_add c.count 1)
let add c n = if !enabled_flag then ignore (Atomic.fetch_and_add c.count n)
let value c = Atomic.get c.count

let counters () =
  let order =
    Mcore.Mutex.protect registry_lock (fun () -> !counter_order)
  in
  List.rev_map (fun c -> (c.name, Atomic.get c.count)) order

let c_translations = counter "translator.translations"
let c_rows_emitted = counter "xqeval.rows_emitted"
let c_hash_join_builds = counter "hash_join.builds"
let c_hash_join_build_rows = counter "hash_join.build_rows"
let c_hash_join_probes = counter "hash_join.probes"
let c_hash_join_collisions = counter "hash_join.collisions"
let c_hash_join_reused = counter "hash_join.build_reused"
let c_pushdown_rewrites = counter "optimize.pushdown_rewrites"
let c_hash_join_rewrites = counter "optimize.hash_join_rewrites"
let c_engine_rows_scanned = counter "sqlengine.rows_scanned"
let c_engine_rows_joined = counter "sqlengine.rows_joined"
let c_cache_hits = counter "driver.cache_hits"
let c_cache_misses = counter "driver.cache_misses"
let c_resultset_rows = counter "driver.resultset_rows"
let c_retry_attempts = counter "resilience.retry_attempts"
let c_retry_giveups = counter "resilience.retry_giveups"
let c_breaker_trips = counter "resilience.breaker_trips"
let c_breaker_recoveries = counter "resilience.breaker_recoveries"
let c_breaker_rejections = counter "resilience.breaker_rejections"
let c_deadline_exceeded = counter "resilience.deadline_exceeded"
let c_resource_exhausted = counter "resilience.resource_exhausted"
let c_faults_injected = counter "resilience.faults_injected"
let c_fallbacks_unoptimized = counter "driver.fallbacks_unoptimized"
let c_scan_cache_hits = counter "scan_cache.hits"
let c_scan_cache_misses = counter "scan_cache.misses"
let c_scan_cache_evictions = counter "scan_cache.evictions"
let c_batch_filtered = counter "xqeval.batch.filtered"
let c_col_batches = counter "xqeval.columnar.batches"
let c_col_rows = counter "xqeval.columnar.rows"
let c_batch_rows = c_col_rows
let c_col_pruned_columns = counter "xqeval.columnar.pruned_columns"
let c_col_kernel_updates = counter "xqeval.columnar.kernel_updates"
let c_col_projected_columns = counter "xqeval.columnar.projected_columns"
let c_col_projection_hits = counter "xqeval.columnar.projection_hits"
let c_col_derived_columns = counter "xqeval.columnar.derived_columns"
let c_col_derived_hits = counter "xqeval.columnar.derived_hits"
let c_pool_borrows = counter "session_pool.borrows"
let c_pool_rejections = counter "session_pool.rejections"
let c_pool_waits = counter "session_pool.waits"
let c_net_connections = counter "net.connections"
let c_net_queries = counter "net.queries"
let c_net_shed_queue = counter "net.shed_queue"
let c_net_shed_drain = counter "net.shed_drain"
let c_net_shed_breaker = counter "net.shed_breaker"
let c_net_protocol_errors = counter "net.protocol_errors"
let c_net_io_timeouts = counter "net.io_timeouts"
let c_net_drains = counter "net.drains"
let c_net_stat_queries = counter "net.stat_queries"
let c_net_traces_sampled = counter "net.traces_sampled"

(* Per-clause row accounting ----------------------------------------- *)

(* Clause counters live in their own namespace so a generic counter and
   a plan node can never collide, and so [reset] can drop them entirely
   (the set of labels is query-dependent). *)
let clause_table : (string, counter) Hashtbl.t = Hashtbl.create 16
let clause_order : counter list ref = ref []

let clause_counter label =
  Mcore.Mutex.protect registry_lock @@ fun () ->
  match Hashtbl.find_opt clause_table label with
  | Some c -> c
  | None ->
      let c = { name = label; count = Atomic.make 0 } in
      Hashtbl.add clause_table label c;
      clause_order := c :: !clause_order;
      c

let clause_rows () =
  let order = Mcore.Mutex.protect registry_lock (fun () -> !clause_order) in
  List.rev_map (fun c -> (c.name, Atomic.get c.count)) order

(* JSON escaping ------------------------------------------------------ *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Trace context ------------------------------------------------------ *)

(* A per-query trace context, installed by the wire frontend for the
   duration of one statement and read anywhere down the stack — the
   driver, the translator stages, xqeval, the DSP server — without
   threading a parameter through every layer.  Domain-local: two
   sessions on different worker domains each see only their own
   context.  [sampled] is the head-based sampling decision; span and
   trace-event NDJSON emission honors it (an unsampled query's spans
   still feed the aggregate registries — only the per-event lines are
   suppressed). *)
type trace_ctx = { trace_id : string; sampled : bool }

let trace_ctx_key : trace_ctx option Mcore.Dls.key =
  Mcore.Dls.new_key (fun () -> None)

let with_trace ~id ~sampled f =
  let prev = Mcore.Dls.get trace_ctx_key in
  Mcore.Dls.set trace_ctx_key (Some { trace_id = id; sampled });
  Fun.protect ~finally:(fun () -> Mcore.Dls.set trace_ctx_key prev) f

let current_trace () =
  match Mcore.Dls.get trace_ctx_key with
  | Some c -> Some (c.trace_id, c.sampled)
  | None -> None

let current_trace_id () =
  match Mcore.Dls.get trace_ctx_key with
  | Some c -> Some c.trace_id
  | None -> None

(* Emission policy: no context (CLI runs, startup work) keeps the
   legacy behavior — everything emits; a context emits only when
   sampled. *)
let trace_emitting () =
  match Mcore.Dls.get trace_ctx_key with
  | Some c -> c.sampled
  | None -> true

(* [,"trace":"<id>"] when a context is installed, [""] otherwise. *)
let trace_field () =
  match Mcore.Dls.get trace_ctx_key with
  | Some c -> Printf.sprintf ",\"trace\":\"%s\"" (json_escape c.trace_id)
  | None -> ""

(* Tracing ------------------------------------------------------------ *)

let trace_sink : (string -> unit) option ref = ref None
let set_trace_sink s = trace_sink := s

(* Concurrent spans emit whole lines under a lock so the NDJSON stream
   never interleaves two domains' events inside one line. *)
let trace_lock = Mcore.Mutex.create ()

let emit_line line =
  match !trace_sink with
  | Some sink -> Mcore.Mutex.protect trace_lock (fun () -> sink line)
  | None -> ()

let trace_event ev fields =
  if !enabled_flag && !trace_sink <> None && trace_emitting () then begin
    let buf = Buffer.create 64 in
    Buffer.add_string buf (Printf.sprintf "{\"ev\":\"%s\"" (json_escape ev));
    Buffer.add_string buf (trace_field ());
    List.iter
      (fun (k, v) ->
        Buffer.add_string buf
          (Printf.sprintf ",\"%s\":\"%s\"" (json_escape k) (json_escape v)))
      fields;
    Buffer.add_char buf '}';
    emit_line (Buffer.contents buf)
  end

(* Spans -------------------------------------------------------------- *)

(* A hook observing every span close (name, clamped duration); the obs
   layer installs a histogram recorder here so that per-span latency
   distributions never require telemetry itself to know about
   histograms (no dependency cycle). *)
let span_observer : (string -> int64 -> unit) option ref = ref None
let set_span_observer f = span_observer := f

type span_agg = { span_name : string; mutable n : int; mutable total_ns : int64 }

let span_table : (string, span_agg) Hashtbl.t = Hashtbl.create 32
let span_order : span_agg list ref = ref []

(* Span nesting depth is per-domain: two sessions' spans are unrelated
   and must not see each other's nesting. *)
let span_depth_key = Mcore.Dls.new_key (fun () -> 0)

let span_agg name =
  match Hashtbl.find_opt span_table name with
  | Some a -> a
  | None ->
      let a = { span_name = name; n = 0; total_ns = 0L } in
      Hashtbl.add span_table name a;
      span_order := a :: !span_order;
      a

let with_span name f =
  if not !enabled_flag then f ()
  else begin
    let start = now_ns () in
    let depth = Mcore.Dls.get span_depth_key in
    Mcore.Dls.set span_depth_key (depth + 1);
    let finish () =
      Mcore.Dls.set span_depth_key depth;
      (* an installed clock may still step backwards (the default one
         cannot); a span must never record a negative duration *)
      let dur = Int64.sub (now_ns ()) start in
      let dur = if Int64.compare dur 0L < 0 then 0L else dur in
      Mcore.Mutex.protect registry_lock (fun () ->
          let a = span_agg name in
          a.n <- a.n + 1;
          a.total_ns <- Int64.add a.total_ns dur);
      (match !span_observer with Some f -> f name dur | None -> ());
      if !trace_sink <> None && trace_emitting () then
        emit_line
          (Printf.sprintf
             "{\"ev\":\"span\",\"name\":\"%s\"%s,\"depth\":%d,\"start_ns\":%Ld,\"dur_ns\":%Ld}"
             (json_escape name) (trace_field ()) depth start dur)
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

let span_stats () =
  Mcore.Mutex.protect registry_lock @@ fun () ->
  List.rev_map (fun a -> (a.span_name, a.n, a.total_ns)) !span_order

let span_total_ns name =
  Mcore.Mutex.protect registry_lock @@ fun () ->
  match Hashtbl.find_opt span_table name with
  | Some a -> a.total_ns
  | None -> 0L

let reset () =
  Mcore.Mutex.protect registry_lock @@ fun () ->
  Hashtbl.iter (fun _ c -> Atomic.set c.count 0) counter_table;
  Hashtbl.reset clause_table;
  clause_order := [];
  Hashtbl.reset span_table;
  span_order := [];
  Mcore.Dls.set span_depth_key 0
