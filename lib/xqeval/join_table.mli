(** Hash-join build/probe machinery shared by {!Eval} and {!Compile}.

    Builds a hash table over the build side's items keyed by
    [Atomic.hash_key], with secondary keys covering the cross-type
    equalities of [Atomic.compare_values] (untyped-vs-typed, date vs
    midnight dateTime) that a single key cannot express. *)

type t = {
  items : Aqua_xml.Item.t array;  (** build side, in source order *)
  tbl : (string, int * bool) Hashtbl.t;
  poison : bool;
  any_nonempty : bool;
  seen_stamp : int array;
      (** probe dedup scratch (one cell per build row), reused across
          probes instead of allocating a seen table per call *)
  mutable stamp : int;
}

val build :
  Aqua_xml.Item.t array ->
  key_of:(Aqua_xml.Item.t -> Aqua_xml.Item.sequence) ->
  value_cmp:bool ->
  t
(** [build items ~key_of ~value_cmp] hashes every item of [items] by
    the atomized [key_of] result.  The table's [items] is [items]
    itself, not a copy; callers must not mutate it.  With [value_cmp] the cardinality
    flags of XQuery value comparison are recorded instead of indexing
    multi-atom keys. *)

val probe : t -> value_cmp:bool -> Aqua_xml.Atomic.t list -> int list
(** Matching build rows for one probe key, sorted ascending (build
    order), deduplicated; counts one probe.  @raise Error.Dynamic_error
    on the value comparison cardinality violation, exactly where the
    nested loop's [value_compare] would. *)

val matches : t -> value_cmp:bool -> Aqua_xml.Atomic.t list -> int list
(** {!probe} without counting it, for a caller that counts its probe
    rows itself (the compiled engine's probes by value id). *)

val probe_batch :
  t ->
  value_cmp:bool ->
  rows:int ->
  atoms_of:(int -> Aqua_xml.Atomic.t list) ->
  emit:(int -> int -> unit) ->
  unit
(** Probe a whole selection vector in one call: for probe rows
    [0 .. rows-1], [emit i row] fires per match in (probe row,
    ascending build row) order.  Identical matches, errors and counter
    movement to [rows] sequential {!probe} calls, without the per-row
    closure allocation on the probe side. *)
