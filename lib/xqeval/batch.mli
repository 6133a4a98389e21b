(** Batch size and layout for the compiled FLWOR pipeline.

    The compiled evaluator ({!Compile}) pushes fixed-size batches of
    tuples through each clause operator, laid out as struct-of-arrays
    ({!columns}).  The batch size defaults to 1024 and can be seeded
    from the [AQUA_BATCH_SIZE] environment variable; the test suite
    overrides it with {!set_size} to cover partial final batches.
    Compiled pipelines read the size at invocation time, so a change
    takes effect on the next execution. *)

val size : unit -> int
(** The current batch size (>= 1). *)

val set_size : int -> unit
(** Override the batch size; values below 1 are clamped to 1. *)

(** {1 Struct-of-arrays batches}

    One value vector per bound variable slot plus a selection vector.
    Buffers are pooled and reused, so cells outside the current fill
    hold stale garbage by design: readers must go through [sel]. *)

type columns = {
  mutable cols : Aqua_xml.Item.sequence array array;
      (** [cols.(slot)] is the value vector for that variable slot, or
          {!no_column} if the slot was pruned / never written here. *)
  mutable sel : int array;  (** selected row indices; length >= [cap] *)
  mutable n : int;  (** live rows: [sel.(0 .. n-1)] are valid *)
  mutable cap : int;  (** row capacity of each allocated column *)
}

val no_column : Aqua_xml.Item.sequence array
(** Sentinel for an unallocated column (physical equality test). *)

val make_columns : slots:int -> cap:int -> columns
(** Fresh empty batch with an identity selection vector. *)

val ensure_columns : columns -> slots:int -> cap:int -> unit
(** Re-shape a pooled buffer for a plan with [slots] variable slots and
    [cap]-row batches, resetting it to empty. *)

val column : columns -> int -> Aqua_xml.Item.sequence array
(** The value vector for a slot, allocating it on first use. *)
