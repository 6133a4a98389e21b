(** Fault-injection failpoints.

    Instrumented layers call {!hit} at their failure-prone boundaries
    (a data-service invocation, a FLWOR clause, a table scan, the wire
    decoder).  A schedule armed from a spec string — or the
    [AQUA_FAILPOINTS] environment variable — decides deterministically
    whether each hit raises {!Injected}, injects latency, or passes.
    Disarmed (the default) every [hit] costs a single ref read.

    Spec grammar: semicolon-separated [site=action] entries, where
    action is one of
    - [fail] — fail every hit
    - [fail(N)] — fail the first N hits (a transient fault that heals)
    - [at(N)] — fail exactly on the N-th hit
    - [delay(50ms)] — inject latency ([ns]/[us]/[ms]/[s] suffixes)
    - [flaky(0.3)] — fail each hit with seeded probability 0.3

    Example: ["dsp.invoke=fail(2);engine.scan=delay(1ms)"]. *)

val catalog : string list
(** The documented failpoint sites (DESIGN.md §9).  {!hit} accepts any
    name; this list is what the differential fault suite iterates. *)

type action =
  | Fail of int option  (** fail the first [n] hits; [None] = every hit *)
  | Fail_at of int  (** fail exactly on the [n]-th hit (1-based) *)
  | Delay of int64  (** inject this much latency (ns), then pass *)
  | Flaky of float  (** fail each hit with this seeded probability *)

exception Injected of { site : string; hit : int }
(** The injected fault — classified as a transient backend failure
    (SQLSTATE 08006) at the driver boundary. *)

exception Spec_error of string

val arm : ?seed:int -> string -> unit
(** Parse a spec and arm its sites (replacing any previous schedule).
    [seed] drives the [flaky] action.  An empty spec disarms.
    @raise Spec_error on a malformed spec. *)

val arm_from_env : unit -> bool
(** Arm from [AQUA_FAILPOINTS] (seed from [AQUA_FAILPOINTS_SEED]);
    returns whether anything was armed.
    @raise Spec_error on a malformed spec. *)

val disarm : unit -> unit

val hit : string -> unit
(** Announce one pass through a named site.  No-op unless armed.
    @raise Injected when the armed schedule fires. *)

