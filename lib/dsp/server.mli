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
  ?cache:Scan_cache.t ->
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
    raises {!Aqua_xqeval.Error.Dynamic_error}.  Logical scan-cache entries are keyed
    by that flag, so interpreter and compiled servers sharing one cache
    never serve each other's logical rows.

    [scan_cache] (default [true]) enables scan materialization at both
    levels: the optimizer's per-plan scan-sharing hoist and the
    cross-query {!Scan_cache} serving parameterless data-service calls
    (revision-checked, so metadata changes invalidate automatically).
    [cache] supplies an existing cache instance instead — used by the
    driver to share one store between its optimized and fallback
    servers, so a rerun after an optimized-plan crash reuses already
    materialized scans.  When [cache] is given its own enabled flag
    governs and [scan_cache] is ignored.

    Every data-service function invocation runs through a
    per-function circuit breaker ([breaker], default
    {!Aqua_resilience.Breaker.default_config}); root invocations are
    additionally retried with backoff on transient failures ([retry],
    default {!Aqua_resilience.Retry.default_policy} — pass
    {!Aqua_resilience.Retry.no_retry} to disable). *)

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
    text-encoded row stream: concatenates the resulting string
    sequence. *)

type prepared = Aqua_xqeval.Compile.compiled
(** A query compiled once (via {!Aqua_xqeval.Compile}) for repeated
    execution — the server-side compilation step of the platform;
    {!Aqua_xqeval.Compile.shape} explains it. *)

val prepare :
  ?vars:string list -> t -> Aqua_xquery.Ast.query -> prepared
(** [vars] declares external variables the query expects at execution
    (e.g. ["param1"] for prepared statements).
    @raise Aqua_xqeval.Compile.Compile_error on unknown functions or
    variables. *)

val execute_prepared :
  ?bindings:(string * Aqua_xml.Item.sequence) list ->
  prepared ->
  Aqua_xml.Item.sequence
(** @raise Aqua_xqeval.Error.Dynamic_error on dynamic errors. *)

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
