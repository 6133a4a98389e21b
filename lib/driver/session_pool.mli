(** Bounded session pool over one shared {!Connection.t}.

    The admission layer of concurrent serving: a fixed number of
    sessions — each with its own per-query {!Aqua_resilience.Budget}
    limits — multiplexed onto one connection (one translation cache,
    one metadata cache, one materialized scan cache).  When every
    session is out, a borrow either parks on a condition variable
    until a release broadcasts (re-checking its deadline at every
    wakeup) or fails fast with SQLSTATE 53300 (too_many_connections),
    so overload surfaces as a typed, bounded error instead of an
    unbounded queue.

    The pool lock covers only borrow/release bookkeeping; queries run
    outside it on the domain-safe connection. *)

type t

type session

val create : ?capacity:int -> ?limits:Aqua_resilience.Budget.limits ->
  Connection.t -> t
(** [capacity] defaults to 8 (clamped to >= 1); [limits] seeds every
    session's budget and defaults to the connection's own limits. *)

val connection : t -> Connection.t
val capacity : t -> int

val session_id : session -> int

val borrow : ?wait_ms:int -> t -> session
(** Take a session.  With [wait_ms <= 0] (default) an empty pool fails
    immediately; otherwise the borrow blocks up to [wait_ms]
    milliseconds for a release (deadline expiry is observed at the
    next release broadcast; on the pre-5.0 shim the wait degrades to
    a bounded spin).
    @raise Aqua_resilience.Sqlstate.Error with SQLSTATE 53300 when no
    session becomes available *)

val release : t -> session -> unit

val with_session : ?wait_ms:int -> t -> (session -> 'a) -> 'a
(** Borrow, run, release (also on exception). *)

val execute :
  ?key:Aqua_obs.Fingerprint.key -> ?wait_ms:int -> t -> string -> Result_set.t
(** [with_session] around [Connection.execute_query ?key
    ~limits:(session's)]. *)

val execute_concurrent :
  ?domains:int -> ?wait_ms:int -> t -> string list ->
  (Result_set.t, exn) result list
(** Drain a batch of statements with [domains] domains (default
    [min (num_cores) (length sqls)]), each statement executed under a
    freshly borrowed session, so the pool capacity — not the domain
    count — is the admission limit.  Results are in input order with
    per-statement outcomes captured independently.  Sequential (same
    results) on a pre-5.0 build. *)

type stats = {
  capacity : int;
  in_use : int;
  borrows : int;      (** successful borrows *)
  rejections : int;   (** borrows that raised 53300 *)
  waits : int;        (** borrows that had to spin for a release *)
  peak_in_use : int;  (** high-water mark of concurrently held sessions *)
}

val stats : t -> stats
