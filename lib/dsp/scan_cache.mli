(** Cross-query materialized cache for parameterless logical
    data-service calls, and the counter of physical scans.

    Keyed by the invocation label ("path/service:function" plus an
    evaluator-flavor suffix — the server owns the key format).  Each
    entry records its {!source}: the table versions it was materialized
    from, compared with the versions the statement's read view pinned
    ({!Aqua_relational.Table.version}).  An insert invalidates only
    what read its table; a metadata change (an {!Artifact.revision}
    bump) empties the whole cache.  A physical function's answer is
    not an entry: each version's element list is built and kept on the
    table itself ({!Aqua_relational.Table.items}), and the server only
    reports those serves here ({!scanned}).  Capacity is bounded by
    entry count, resident bytes and a per-entry row cap, with LRU
    eviction.  Budget accounting is the server's job: [Server.invoke]
    charges the served row count to the ambient
    {!Aqua_resilience.Budget} item governor at serve time, identically
    for hits and misses, so caching cannot evade result-size governors
    and a query admitted cold is never rejected warm.

    Global telemetry counters ([scan_cache.hits/misses/evictions]) move
    on every operation; [stats] exposes per-instance figures for tests,
    the CLI and the [scan_cache.bytes] gauge. *)

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

type source = (Aqua_relational.Table.t * int) list
(** What an entry was materialized from: every table its evaluation
    read, each at the version it read. *)

val lookup : t -> string -> Aqua_xml.Item.sequence option
(** Lookup at the pinned versions.  An entry at them is a hit; one
    ahead of them is a miss and stays; one behind them is dropped (an
    invalidation) and counts as a miss.  A hit refreshes the entry's
    LRU stamp and reports its source to the enclosing {!collect}.
    Budget accounting happens at the serve site, not here. *)

val scanned : t -> Aqua_relational.Table.t -> hit:bool -> unit
(** Count one serve of a physical table's elements at its pinned
    version — a hit when they were built already — and report it to
    the enclosing {!collect}.  A no-op when disabled. *)

val store : t -> string -> source -> Aqua_xml.Item.sequence -> unit
(** Admit a materialized result read from [source] and report [source]
    to the enclosing {!collect}.  A no-op when disabled, when the entry
    resident under the key read no table at an older version than
    [source] (one that did is replaced), or when the result exceeds the
    per-entry row or byte cap; then evicts LRU entries until within
    budget. *)

val collect : (unit -> 'a) -> 'a * source
(** [collect f] runs [f] and returns, with its result, every table
    version served, scanned or stored on this domain while it ran: a logical body's dependencies.  Collections
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
