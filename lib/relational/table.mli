(** In-memory relational tables — the physical sources behind the
    platform's physical data services.

    Rows are only appended (there is no update or delete), so a table's
    data version is its row count: the table at version [v] is exactly
    its first [v] rows, and a reader holding version [v] can catch up
    by reading the rows from [v] on. *)

type snapshot
(** The rows and the version as one published value: a reader never
    pairs one version with another version's rows. *)

type t = private {
  name : string;
  schema : Schema.t;
  state : snapshot Atomic.t;
}

val create : string -> Schema.t -> t

val insert : t -> Value.t list -> unit
(** Appends one row and bumps the version by one; safe against
    concurrent readers and inserters.
    @raise Value.Type_error if the row does not match the schema. *)

val insert_all : t -> Value.t list list -> unit

val snapshot : t -> snapshot
(** The table as of now. *)

val snapshot_version : snapshot -> int
(** The snapshot's row count, which is its data version. *)

val version : t -> int
(** Current data version: the row count (0 for a fresh table). *)

val cardinality : t -> int
(** Same as {!version}, O(1). *)

val rows_since : ?since:int -> snapshot -> Value.t array list
(** The snapshot's rows after its first [since] (default 0), in
    insertion order; O(rows returned). *)

val rows : t -> Value.t array list
(** All rows in insertion order. *)

val flat_xml_since :
  ?ns_prefix:string -> ?since:int -> t -> snapshot -> Aqua_xml.Node.t list
(** {!to_flat_xml} of the snapshot's rows after its first [since]. *)

val to_flat_xml : ?ns_prefix:string -> t -> Aqua_xml.Node.t list
(** Serializes the table the way a physical data-service function
    returns it: one element per row named after the table (Example 1 of
    the paper), with one simple-typed child element per non-null
    column.  NULL columns are omitted (absent element). *)
