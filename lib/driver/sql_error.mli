(** The driver boundary's error taxonomy.

    [Connection.execute_query] and friends funnel every failure of the
    translate/execute/decode pipeline through {!wrap}, so clients see
    one exception type, {!Aqua_resilience.Sqlstate.Error}, with a
    stable SQLSTATE code:

    - 57014 — query canceled (deadline exceeded)
    - 53400 — configured limit exceeded (row governor)
    - 53000 — insufficient resources (item/fuel governors)
    - 08006 — connection failure (transient backend fault)
    - 08004 — connection rejected (circuit breaker open)
    - 08P01 — protocol violation (result decode error)
    - 54001 — statement too complex (data-service call cycle)
    - 42xxx / 0A000 / 21000 — translation errors by
      {!Aqua_translator.Errors.kind}, messages carrying the source
      position
    - 38000 — external routine exception (dynamic evaluation error,
      including a cast or type error on a query's values)
    - XX000 — internal error (compile or generated-XQuery parse
      failure; condition ["engine fault"] for any other exception) *)

val classify : exn -> Aqua_resilience.Sqlstate.t
(** The SQLSTATE-coded form of a pipeline exception.  Total: an
    exception outside the taxonomy above (e.g. [Invalid_argument],
    [Not_found]) maps to XX000 with condition ["engine fault"] and the
    exception's [Printexc.to_string]. *)

val degradable : exn -> bool
(** {!Aqua_dsp.Server.engine_fault}, the one degradation decision,
    which the server makes. *)

val wrap : (unit -> 'a) -> 'a
(** Run [f], re-raising any exception as
    {!Aqua_resilience.Sqlstate.Error} ({!classify}). *)
