(** The in-process stand-in for the AquaLogic DSP server: compiles the
    prolog of an XQuery (its schema imports) into a function resolver
    over the application's data services and evaluates the body.

    Physical data-service functions return their backing table as a
    flat element sequence; logical functions evaluate their XQuery
    bodies, resolving their own imports recursively. *)

type t

val create :
  ?optimize:bool ->
  ?retry:Aqua_resilience.Retry.policy ->
  ?breaker:Aqua_resilience.Breaker.config ->
  ?scan_cache:bool ->
  Artifact.application ->
  t
(** [optimize] (default [true]) chooses the engine for every query and
    data-service body this server evaluates: the {!Aqua_xqeval.Optimize}
    pass (predicate pushdown, hash equi-joins, streaming pipeline), then
    the compiled columnar engine ({!Aqua_xqeval.Compile});
    [~optimize:false] runs the plan as written on the naive nested-loop
    interpreter ({!Aqua_xqeval.Eval}), the differential-testing oracle
    ({!prepare} still compiles, from the unoptimized plan).  On both, an
    unknown function or variable, or a [where] before its binding,
    raises {!Aqua_xqeval.Error.Dynamic_error}.

    Graceful degradation lives here and nowhere else: on an optimizing
    server, an {!engine_fault} anywhere in a statement (nested logical
    bodies included) reruns the whole statement once on the interpreter
    over the unoptimized plan, counted as [driver.fallbacks_unoptimized]
    and traced as a ["fallback"] event.  {!execute} (and its text and
    XML forms), {!execute_prepared} and {!call_function} all degrade.
    A query error is not an engine fault: it runs once and propagates.

    Each statement reads one state of the data: {!execute} (and its
    forms), {!execute_prepared} and {!call_function} run in a read view
    ({!Artifact.read_view}) that pins every physical table when the
    statement starts.  Every call of a table in the statement, from a
    logical body or from the interpreter rerun too, returns the rows of
    the pinned version.

    [scan_cache] (default [true]) enables the cross-query {!Scan_cache}
    serving parameterless data-service calls at the statement's pinned
    versions (revision-checked, so metadata changes invalidate
    automatically), and serving every call of a physical table in one
    statement the list its first call got, even when the cache does not
    admit it; off, every call materializes afresh, the
    no-materialization oracle.  Physical scans are shared by both
    engines, so a rerun reuses the scans the faulted run materialized;
    logical entries are keyed by the engine that evaluated them, so the
    rerun never inherits logical rows from the compiled engine.

    Every data-service function invocation runs through a
    per-function circuit breaker ([breaker], default
    {!Aqua_resilience.Breaker.default_config}); root invocations are
    additionally retried with backoff on transient failures ([retry],
    default {!Aqua_resilience.Retry.default_policy} — pass
    {!Aqua_resilience.Retry.no_retry} to disable): an injected fault
    that is not an {!engine_fault}.  An engine fault is never retried
    on the engine that raised it; it reruns the statement on the
    interpreter. *)

val engine_fault : exn -> bool
(** Whether an exception out of the compiled engine is a fault of the
    engine rather than an answer to the query.  Answers are a
    {!Aqua_xqeval.Error.Dynamic_error}, the cast and type errors
    ({!Aqua_xml.Atomic.Cast_error}, {!Aqua_relational.Value.Type_error})
    both engines raise for a query's values, an
    {!Aqua_resilience.Sqlstate.Error}, a budget or breaker trip,
    [Out_of_memory] and an injected fault outside the [xqeval.*] sites;
    anything else ([Not_found], [Stack_overflow], an injected
    [xqeval.*] fault, ...) is a fault. *)

val fallbacks : unit -> int
(** The statements this process has rerun on the interpreter after an
    {!engine_fault}, counted whether or not telemetry is on (the
    [driver.fallbacks_unoptimized] counter counts them while it is). *)

val application : t -> Artifact.application

val physical_fns :
  Artifact.application -> Aqua_xquery.Ast.schema_import list -> string -> bool
(** [physical_fns app imports qname]: whether the prefixed name resolves,
    under the schema [imports], to a physical data-service function — a
    table scan, which returns only row elements (a logical function
    evaluates an arbitrary body).  The server passes it to the optimizer
    as [node_fns] for every query and data-service body it evaluates or
    prepares. *)

val scan_cache : t -> Scan_cache.t
(** The server's materialized scan cache (possibly disabled). *)

val breakers : t -> Aqua_resilience.Breaker.t list
(** The per-function circuit breakers created so far, sorted by
    function label ("path/service:function"). *)

val execute :
  ?bindings:(string * Aqua_xml.Item.sequence) list ->
  t ->
  Aqua_xquery.Ast.query ->
  Aqua_xml.Item.sequence
(** [bindings] provides external variables (prepared-statement
    parameters, bound as [$param1 ..]).
    @raise Aqua_xqeval.Error.Dynamic_error on unresolvable function
    names or dynamic evaluation errors
    @raise Aqua_resilience.Sqlstate.Error (54001) when the
    data-service call depth is exceeded — the message carries the full
    invocation chain ("path/service:function -> ...") *)

val execute_text :
  ?bindings:(string * Aqua_xml.Item.sequence) list ->
  t ->
  string ->
  Aqua_xml.Item.sequence
(** Parses XQuery text (prolog + body) and executes it — the "compile
    and execute" entry point of the real server.
    @raise Aqua_xquery.Parser.Parse_error on malformed query text
    @raise Aqua_xqeval.Error.Dynamic_error on evaluation errors *)

val execute_to_xml :
  ?bindings:(string * Aqua_xml.Item.sequence) list ->
  t ->
  Aqua_xquery.Ast.query ->
  string
(** [execute] followed by serialization — the "ship XML to the client"
    transport of paper section 4. *)

val execute_to_text :
  ?bindings:(string * Aqua_xml.Item.sequence) list ->
  t ->
  Aqua_xquery.Ast.query ->
  string
(** [execute] for a wrapper query that already returns the
    text-encoded row stream: {!text_of_sequence} of its result. *)

val text_of_sequence : Aqua_xml.Item.sequence -> string
(** The text transport's payload: a single atomic's lexical form as is
    (the compiled text writer's one string is not copied), otherwise
    the concatenation of the items' lexical forms.
    @raise Aqua_xqeval.Error.Dynamic_error on a node. *)

type prepared
(** A query compiled once (via {!Aqua_xqeval.Compile}) for repeated
    execution — the server-side compilation step of the platform.  It
    keeps the query too, so a faulted run can be rerun on the
    interpreter; {!shape} explains the compiled plan. *)

val prepare :
  ?vars:string list -> t -> Aqua_xquery.Ast.query -> prepared
(** [vars] declares external variables the query expects at execution
    (e.g. ["param1"] for prepared statements).  The plan is the
    optimized one on an optimizing server and the plan as written on an
    [~optimize:false] one; both run on the compiled engine.
    @raise Aqua_xqeval.Compile.Compile_error on unknown functions or
    variables. *)

val prepare_lazy :
  ?vars:string list -> t -> Aqua_xquery.Ast.query -> prepared
(** [execute] kept for repeated runs: {!execute_prepared} of it is
    [execute ~bindings] of the query, but an optimizing server compiles
    it once, on its first execution and inside the engine-fault
    boundary (a compile error raises the
    {!Aqua_xqeval.Error.Dynamic_error} [execute] raises; a compile-time
    engine fault reruns on the interpreter and leaves the plan to be
    compiled next time).  On an [~optimize:false] server it runs on the
    interpreter, as [execute] does.  Safe to run from several domains
    at once. *)

val shape : prepared -> string list
(** {!Aqua_xqeval.Compile.shape} of the prepared plan: the compiled
    engine's per-operator decisions (compiling a {!prepare_lazy} plan
    that has not run yet).
    @raise Aqua_xqeval.Compile.Compile_error as {!prepare} does. *)

val execute_prepared :
  ?bindings:(string * Aqua_xml.Item.sequence) list ->
  prepared ->
  Aqua_xml.Item.sequence
(** Runs the compiled plan.  On an optimizing server an {!engine_fault}
    reruns the query once on the interpreter; on an [~optimize:false]
    server the compiled plan's outcome is final.
    @raise Aqua_xqeval.Error.Dynamic_error on dynamic errors. *)

val call_function :
  t ->
  path:string ->
  name:string ->
  fn:string ->
  Aqua_xml.Item.sequence list ->
  Aqua_xml.Item.sequence
(** Directly invoke a data-service function (used for stored-procedure
    style access to parameterized functions).
    @raise Aqua_xqeval.Error.Dynamic_error if the service or function
    does not exist. *)
