(** Per-query budgets: a wall-clock deadline plus resource governors.

    A budget bounds one query end to end: wall-clock time (read through
    the pluggable {!Aqua_core.Telemetry} clock), output rows,
    materialized items (hash-join builds, engine scans) and evaluator
    steps ("fuel").  {!with_budget} installs the budget dynamically for
    the extent of the query; the evaluation loops of xqeval, the SQL
    engine and the driver's result-set decoder call the [step]/[tick_*]
    probes cooperatively.  When no budget is installed each probe costs
    one ref read. *)

type limits = {
  timeout_ns : int64 option;
  max_rows : int option;
  max_items : int option;
  max_fuel : int option;
}

val no_limits : limits

val limits :
  ?timeout_ms:int ->
  ?max_rows:int ->
  ?max_items:int ->
  ?max_fuel:int ->
  unit ->
  limits

type resource = Deadline | Rows | Items | Fuel

type violation = { resource : resource; limit : int64 }
(** [limit] is the configured bound: nanoseconds for [Deadline], a
    count for the others. *)

exception Exceeded of violation

val to_sqlstate : violation -> Sqlstate.t
(** [Deadline] maps to 57014 (query canceled), [Rows] to 53400
    (configured limit exceeded), [Items] and [Fuel] to 53000
    (insufficient resources). *)

val with_budget : limits -> (unit -> 'a) -> 'a
(** Installs a fresh budget for the extent of [f] (previous budget
    restored on exit, even on exception).  [no_limits] installs
    nothing.  @raise Exceeded from within [f] when a governor trips. *)

val active : unit -> bool
(** True when a budget is currently installed. *)

(** {1 Cooperative probes} *)

val step : unit -> unit
(** One evaluator step: counts fuel and checks the deadline every 64th
    step (the clock is not read on every call). *)

val steps : int -> unit
(** [steps n] charges [n] evaluator steps at once — the batch
    evaluator's per-batch probe.  Equivalent to [n] calls to {!step}
    for fuel accounting, with at most one deadline clock read. *)

val tick_rows : int -> unit
(** Count [n] output rows against [max_rows] and check the deadline. *)

val tick_items : int -> unit
(** Count [n] materialized items against [max_items] and check the
    deadline. *)

val check_now : unit -> unit
(** Immediate deadline check (one clock read). *)
