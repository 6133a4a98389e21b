(** Cross-query materialized scan cache for parameterless data-service
    calls.

    Keyed by the invocation label ("path/service:function", plus an
    evaluator-flavor suffix for logical bodies — the server owns the
    key format).  Each entry records its {!source}: the table versions
    it was materialized from.  An entry is served only while each of
    those tables is still at its recorded version, so an insert
    invalidates only what read its table; a metadata change (an
    {!Artifact.revision} bump) empties the whole cache.  Tables are
    append-only, so a stale physical scan is a prefix of the current
    one: {!lookup} hands it back ({!Stale}) for the server to extend by
    the new rows.  Capacity is bounded by entry count, resident bytes
    and a per-entry row cap, with LRU eviction.  Budget accounting is
    the server's job: [Server.invoke] charges the served row count to
    the ambient {!Aqua_resilience.Budget} item governor at serve time,
    identically for hits and misses, so caching cannot evade
    result-size governors and a query admitted cold is never rejected
    warm.

    Global telemetry counters ([scan_cache.hits/misses/evictions] and
    the [scan_cache.bytes] resident gauge) move on every operation;
    [stats] exposes per-instance figures for tests and the CLI. *)

type t

val create :
  ?enabled:bool ->
  ?max_entries:int ->
  ?max_bytes:int ->
  ?max_rows:int ->
  Artifact.application ->
  t
(** A fresh cache bound to [app]'s metadata revision.  [enabled]
    (default [true]): a disabled instance misses every lookup, stores
    nothing and moves no counters — the differential-testing oracle.
    Defaults: 64 entries, 8 MiB resident, 100k rows per entry (larger
    results are served but never cached). *)

val enabled : t -> bool

(** What an entry was materialized from. *)
type source =
  | Scan of Aqua_relational.Table.t * int
      (** a physical scan: its table, at this version *)
  | View of (Aqua_relational.Table.t * int) list
      (** a logical result: every table its evaluation read, each at
          the version it read *)

type lookup =
  | Hit of Aqua_xml.Item.sequence
  | Stale of { seq : Aqua_xml.Item.sequence; version : int; bytes : int }
      (** a physical scan of its table at [version], now stale and
          dropped: the current scan is [seq] followed by the rows after
          [version]; [bytes] is [seq]'s resident estimate *)
  | Miss

val lookup : t -> string -> lookup
(** Version-checked lookup.  A hit refreshes the entry's LRU stamp and
    reports its source to the enclosing {!collect}; a stale entry is
    dropped (an invalidation) and counts as a miss.  Budget accounting
    happens at the serve site, not here. *)

val store : ?bytes:int -> t -> string -> source -> Aqua_xml.Item.sequence -> unit
(** Admit a materialized result read from [source] and report [source]
    to the enclosing {!collect}.  A no-op when disabled, when a current
    entry is already resident under the key (a stale one is replaced),
    or when the result exceeds the per-entry row or byte cap; then
    evicts LRU entries until within budget.  [bytes], when given, is
    the result's resident estimate (an extended scan knows it from its
    prefix). *)

val sequence_bytes : Aqua_xml.Item.sequence -> int
(** The resident estimate {!store} charges for a sequence. *)

val collect : (unit -> 'a) -> 'a * source
(** [collect f] runs [f] and returns, with its result, the {!View} of
    every table version served from or stored into a cache on this
    domain while it ran: a logical body's dependencies.  Collections
    nest; an inner one reports to the outer through its [store]. *)

val flush : t -> unit
(** Drop every entry (counted as invalidations, not evictions) —
    called by the driver's invalidation machinery alongside the
    translation cache. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** capacity evictions only *)
  invalidations : int;  (** entries dropped as stale or flushed *)
  entries : int;
  bytes : int;  (** resident estimate *)
}

val stats : t -> stats
