(** Cross-query materialized scan cache for parameterless data-service
    calls.

    Keyed by the invocation label ("path/service:function", plus an
    evaluator-flavor suffix for logical bodies — the server owns the
    key format) and the application's data revision: any
    [Artifact.data_revision] change — a metadata mutation or a row
    inserted into any physical table — flushes the whole cache before
    the next lookup or store, so a stale scan is never served.
    Capacity is bounded by entry count, resident bytes and a per-entry
    row cap, with LRU eviction.  Budget accounting is the server's
    job: [Server.invoke] charges the served row count to the ambient
    {!Aqua_resilience.Budget} item governor at serve time, identically
    for hits and misses, so caching cannot evade result-size governors
    and a query admitted cold is never rejected warm.

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
(** A fresh cache bound to [app]'s revision counter.  [enabled]
    (default [true]): a disabled instance misses every lookup, stores
    nothing and moves no counters — the differential-testing oracle.
    Defaults: 64 entries, 8 MiB resident, 100k rows per entry (larger
    results are served but never cached). *)

val enabled : t -> bool

val find : t -> string -> Aqua_xml.Item.sequence option
(** Revision-checked lookup; a hit refreshes the entry's LRU stamp.
    Budget accounting happens at the serve site, not here. *)

val store : t -> string -> Aqua_xml.Item.sequence -> unit
(** Admit a materialized scan (no-op when disabled, when the key is
    already resident, or when the result exceeds the per-entry row or
    byte cap), then evict LRU entries until within budget. *)

val flush : t -> unit
(** Drop every entry (counted as invalidations, not evictions) —
    called by the driver's invalidation machinery alongside the
    translation cache. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;  (** capacity evictions only *)
  invalidations : int;  (** entries dropped by a revision change *)
  entries : int;
  bytes : int;  (** resident estimate *)
}

val stats : t -> stats
