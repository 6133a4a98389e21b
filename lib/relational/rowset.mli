(** Materialized query results: a schema plus rows, with the multiset
    and list comparisons used by the differential test oracle. *)

type t = {
  schema : Schema.t;
  rows : Value.t array list;
}

val make : Schema.t -> Value.t array list -> t

val equal_as_lists : t -> t -> bool
(** Same rows in the same order (use when ORDER BY fixes the order). *)

val equal_as_multisets : t -> t -> bool
(** Same rows regardless of order (SQL result semantics without
    ORDER BY). *)

val sorted_under_order_by : keys:int list -> t -> t -> bool
(** Order-insensitive except on the listed key columns: both rowsets
    must be equal as multisets, and the projections to [keys] must be
    equal as lists.  This is the right notion of equality for an
    ORDER BY whose keys do not form a total order. *)

val diff_summary : t -> t -> string option
(** [None] when multiset-equal; otherwise a short human-readable
    description of the first discrepancy, for test failure messages. *)

val to_string : t -> string
(** Tabular rendering for CLI/examples. *)
