(** In-memory relational tables — the physical sources behind the
    platform's physical data services.

    Rows are only appended (there is no update or delete), so a table's
    data version is its row count: the table at version [v] is exactly
    its first [v] rows.  Each version is one snapshot, and a snapshot
    builds its row list ({!rows}) and its row elements ({!items}) once,
    on their first read, and keeps them. *)

type snapshot
(** The rows and the version as one published value: a reader never
    pairs one version with another version's rows. *)

type lists
(** The newest snapshots with their lists built, and the lock that
    builds them. *)

type t = private {
  name : string;
  schema : Schema.t;
  state : snapshot Atomic.t;
  lists : lists;
}

val create : string -> Schema.t -> t

val insert : t -> Value.t list -> unit
(** Appends one row and bumps the version by one; safe against
    concurrent readers and inserters.
    @raise Value.Type_error if the row does not match the schema. *)

val insert_all : t -> Value.t list list -> unit

type view
(** A read view: one state of a set of tables.  While one is open on a
    domain, every read of a table it pins reads it there. *)

val pin : t list -> view
(** The tables as of now, read at one moment: a row inserted before
    another is pinned whenever the other is.  No row is copied.  The
    read is retried while an insert into one of [tables] completes
    during it; inserts into other tables never delay it. *)

val within : view -> (unit -> 'a) -> 'a
(** [within v f] runs [f] in the read view [v], or in the one already
    open on this domain: a nested statement keeps its statement's. *)

val version : t -> int
(** Data version in the open read view, or as of now: the row count
    (0 for a fresh table). *)

val cardinality : t -> int
(** Same as {!version}, O(1). *)

val rows : t -> Value.t array list
(** The rows at {!version}, in insertion order.  Every call at one
    version returns the same list ([==]).  The first call at a version
    builds it from the newest version already built: extended by the
    new rows when that version is behind, its first rows when ahead. *)

val items : t -> Aqua_xml.Item.sequence
(** The physical data-service function's answer at {!version}: one row
    element per row, as {!to_flat_xml} builds them, kept and built like
    {!rows}.  A version extended from an older one shares that
    version's elements, physically. *)

val built_items : t -> Aqua_xml.Item.sequence option
(** {!items}, when they are built already. *)

val to_flat_xml : ?ns_prefix:string -> t -> Aqua_xml.Node.t list
(** Serializes the table at {!version} the way a physical data-service
    function returns it, in fresh elements: one element per row named
    after the table (Example 1 of the paper), with one simple-typed
    child element per non-null column.  NULL columns are omitted
    (absent element). *)
