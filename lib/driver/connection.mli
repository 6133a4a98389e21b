(** The JDBC-style driver connection (paper Figure 1): SQL in, result
    sets out, against an in-process DSP server.

    Both result transports of section 4 are implemented and the wire
    boundary is simulated honestly — the XML transport serializes the
    server's result and re-parses it client-side; the text transport
    executes the string-join wrapper query and decodes the delimited
    text — so their relative cost can be benchmarked (experiment P1). *)

type t

type transport =
  | Xml   (** materialize XML, parse client-side *)
  | Text  (** section-4 delimiter-encoded text *)

(** The bounded LRU used for the plan cache, exposed for direct
    testing.  [add] replaces an entry already under the key.  Stamps are compacted (preserving recency order) when the
    internal clock reaches [stamp_limit], so a long-lived connection
    can never overflow the counter. *)
module Lru : sig
  type 'a t

  val create : ?stamp_limit:int -> enabled:bool -> int -> 'a t
  (** [create ~enabled capacity]; [stamp_limit] defaults to
      [max_int - 1]. *)

  val find : 'a t -> string -> 'a option
  val add : 'a t -> string -> 'a -> unit
  val length : 'a t -> int
  val clock : 'a t -> int
  val clear : 'a t -> unit
end

val connect :
  ?transport:transport ->
  ?translation_cache:bool ->
  ?optimize:bool ->
  ?scan_cache:bool ->
  ?limits:Aqua_resilience.Budget.limits ->
  Aqua_dsp.Artifact.application ->
  t
(** [transport] defaults to [Text] (the shipping configuration).
    Catalog answers are cached ({!metadata_cache}).  [translation_cache]
    (default [true]) keeps a bounded LRU (128 entries) of plans keyed by
    statement shape with literals lifted ({!Aqua_obs.Fingerprint.key},
    DESIGN.md section 17): a statement that differs from a cached one
    only in the values of literals used as constants reuses its
    translation and its compiled plan, binding its own literals; one
    that differs in a literal the plan holds by value (a LIKE
    pattern, an ORDER BY position, a DATE literal) replaces it.  With
    [~translation_cache:false] every statement is translated and
    executed afresh.  [optimize] (default [true]) enables the XQuery-side
    optimizer (predicate pushdown, hash equi-joins, streaming
    pipeline) on the server this connection talks to and executes the
    optimized plans through the compiled columnar engine;
    [~optimize:false] executes queries through the interpreter, the
    differential oracle, over the unoptimized plan ({!Prepared}
    statements too).  Graceful degradation is the
    server's: see {!Aqua_dsp.Server.create}.  [scan_cache]
    (default [true]) serves physical scans from the elements each
    table keeps per version and logical results from the server's
    version-aware {!Aqua_dsp.Scan_cache}, so repeated parameterless
    data-service calls are built once across queries and statements.
    [limits] (default
    {!Aqua_resilience.Budget.no_limits}) is the per-query budget
    installed around every [execute_query]. *)

val transport : t -> transport
val set_transport : t -> transport -> unit
val server : t -> Aqua_dsp.Server.t
val application : t -> Aqua_dsp.Artifact.application
val translator_env : t -> Aqua_translator.Semantic.env
val metadata_cache : t -> Aqua_dsp.Metadata.Cache.t

val limits : t -> Aqua_resilience.Budget.limits
val set_limits : t -> Aqua_resilience.Budget.limits -> unit
(** The per-query budget installed around every [execute_query] /
    [Prepared.execute_query] on this connection. *)

val scan_cache : t -> Aqua_dsp.Scan_cache.t
(** The server's materialized scan cache (disabled when connected with
    [~scan_cache:false]). *)

val invalidate : t -> unit
(** Flush the plan cache, the metadata cache and the
    materialized scan cache.  Also happens automatically when the
    application's {!Aqua_dsp.Artifact.revision} changes (a service
    added after connect), so stale plans are never served.  The
    scan cache also checks each entry against the versions of the
    tables it read, so a row insert invalidates only the results that
    read its table, without touching the metadata-only caches.  A
    physical table's elements are kept by the table, per version, and
    no flush drops them. *)

val translate : t -> string -> Aqua_translator.Translator.t
(** Translation only (no execution): equal to
    [Translator.translate env sql], served from the plan cache when
    enabled (the cached plan with this statement's literals put back).
    @raise Aqua_translator.Errors.Error *)

val translation_cache_size : t -> int
(** Number of cached plans currently held. *)

val clear_translation_cache : t -> unit

val execute_query :
  ?key:Aqua_obs.Fingerprint.key ->
  ?limits:Aqua_resilience.Budget.limits ->
  t ->
  string ->
  Result_set.t
(** Translate, execute on the server, decode through the connection's
    transport — the full pipeline, from a cached plan when there is
    one.  [key] is the statement's {!Aqua_obs.Fingerprint.key}, for a
    caller that has lexed it already (the wire server); the key pass
    runs otherwise.  Runs under the connection's budget
    (or [limits], when given — the session pool passes each session's
    own budget here) with every failure mapped through {!Sql_error}.
    A compiled-engine fault is rerun once on the interpreter by the
    server ({!Aqua_dsp.Server.engine_fault}); a query error runs once.
    @raise Aqua_resilience.Sqlstate.Error with a stable SQLSTATE code
    (see {!Sql_error}) on any failure *)

val execute_concurrent :
  ?domains:int -> t -> string list -> (Result_set.t, exn) result list
(** Execute a batch of statements across [domains] OCaml domains (default
    [min (Mcore.num_cores ()) (length sqls)], at least 1) all sharing
    this connection — one translation cache, one metadata cache, one
    materialized scan cache, one plan cache.  Statements are dealt round-robin over the
    domains; the results list is in input order, each statement's
    outcome captured independently so one failure does not mask the
    rest.  On a pre-5.0 build the domains shim runs the workers
    sequentially: same results, no parallelism. *)

val item_of_value : Aqua_relational.Value.t -> Aqua_xml.Item.sequence
(** A parameter's value as the sequence bound to its external: [Null]
    is the empty sequence. *)

(** Prepared statements with ['?'] parameters. *)
module Prepared : sig
  type stmt

  val prepare : t -> string -> stmt
  (** Takes the statement's plan from the connection's plan cache (or
      makes one, the cache's miss path); execution binds the
      parameters beside the statement's literals.  Only the transport
      that runs is compiled, on its first execution. *)

  val parameter_count : stmt -> int
  val set_value : stmt -> int -> Aqua_relational.Value.t -> unit
  val set_int : stmt -> int -> int -> unit
  val set_string : stmt -> int -> string -> unit
  val set_float : stmt -> int -> float -> unit
  val set_null : stmt -> int -> unit
  val clear_parameters : stmt -> unit

  val execute_query : stmt -> Result_set.t
  (** Runs the statement's plan, degrading like
      {!execute_query} on an optimizing connection.
      @raise Invalid_argument if a parameter is unbound.
      @raise Aqua_resilience.Sqlstate.Error on any other failure. *)
end

(** Catalog metadata through the Figure-2 artifact mapping. *)
module Database_metadata : sig
  val catalog : t -> string
  val schemas : t -> string list
  val tables : t -> Aqua_dsp.Metadata.table list

  val columns :
    t -> table:string -> Aqua_relational.Schema.column list option

  val procedures :
    t -> (Aqua_dsp.Metadata.table * Aqua_dsp.Artifact.parameter list) list
  (** Parameterized data-service functions, exposed as callable
      stored procedures. *)
end
