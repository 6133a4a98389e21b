(** Cross-invocation memo of scan sources: projected columns, derived
    cell columns with their value ids and probe results, and hash-join
    build tables.

    Different plans read the same scans: [adhoc] statements that miss
    the plan cache, the cache-off oracle, and logical data-service
    bodies compiled per call.  A memo inside one compiled closure would
    serve only that plan, so the memo is keyed by the source itself.  A
    closed source (no free variables, as for a reusable build or a
    projected scan) evaluates to the same sequence in every tuple and,
    because a table keeps one element list per version
    ([Table.items]), across invocations — the physically same list
    until its table grows.  Everything derived from the list alone is
    therefore memoized against its physical identity.  Lists and nodes
    are immutable, so a hit serves exactly what a rebuild would.

    A table only grows by appending, and its next version's list is the
    older list's items followed by the new rows'.  So on an identity
    miss a kept entry whose source is a strict prefix of the new one,
    item by item physically, is extended instead of rebuilt: equal items
    have equal cells, so only the new rows are read.  The new entry
    takes the predecessor's columns and cells (the predecessor leaves
    the memo), and each column catches up by the new rows when it is
    next read.  A fresh materialization shares no item with a kept
    source and simply misses.

    Per source the memo keeps:
    - projected columns: for a step name, {!children_matching} of every
      row, so a scan column read is an array index;
    - derived cell columns: for a (step, cell expression) pair, the
      expression's value on every row's cell ([Optimize.derive]), plus,
      built on first use, each value's group-key component, kernel
      reading and value id (extended with the column), and the probe
      results of the column's value ids against build tables;
    - build tables keyed by the build-key AST and the value_cmp flag,
      when the build key reads nothing but the join variable
      ([Optimize.reusable_build]); an extended entry rebuilds them on
      first use.

    The memo is a short move-to-front list, domain-local, bounded by
    entry count and by {!projected_cells_max} projected and derived
    cells (value ids and probe results included); a source whose own
    columns exceed the cell bound is served but not retained.  A
    projected column built only to derive from is not retained either:
    once its derived columns exist nothing reads it.  Stale entries age
    out by eviction. *)

(** {1 Path steps} *)

val step_matcher : string -> string -> bool
(** [step_matcher name] tests an element name against a child step
    ([*] matches any; a prefixed name also matches by local name). *)

val children_matching :
  (string -> bool) -> Aqua_xml.Item.t -> Aqua_xml.Item.sequence
(** The element children of a node a step matcher accepts.
    @raise Error.Dynamic_error on an atomic value. *)

(** {1 Derived cell columns} *)

type intern

type ids = private {
  id_of : int array;  (** by row *)
  ix : intern;
  nids : int;  (** every id in [id_of] is below it *)
}
(** Dense value ids of a derived column: one id per distinct cell
    value, numbered in order of first appearance.  Equal single atoms
    share an id, so do all empty cells; a multi-atom cell and an error
    cell each get their own.  Ids refine both keyings that read them:
    two rows with one id hold the same value, hence the same group-key
    component and the same probe result (the reverse does not hold:
    [Integer 5] and [Double 5.0] share a component under two ids). *)

type jmemo = private {
  jm_table : Join_table.t;
  mutable jm_rows : int list array;
      (** matches by probe value id, {!unprobed} until filled *)
}
(** One build table's matches by probe value id.  Keyed by the table's
    physical identity, which also fixes the comparison: a rebuilt table
    (its source grew) starts a new memo. *)

val unprobed : int list

type dcol = private {
  dc_vals : Aqua_xml.Item.sequence array;
      (** the cell expression's value by scan row; an error cell is
          read through {!read_cell} *)
  dc_err : bool;  (** some row holds an error cell *)
  mutable dc_keys : string array;
  mutable dc_cells : Kernels.cells option;
  mutable dc_ids : ids option;
  mutable dc_joins : jmemo list;
}
(** A derived cell column; the mutable fields are built on first use
    through {!keys}, {!cells}, {!ids} and {!join_memo}. *)

val no_dcol : dcol
(** The empty column, a placeholder until an expander publishes one. *)

val read_cell :
  (Aqua_xml.Item.sequence -> Aqua_xml.Item.sequence) ->
  Aqua_xml.Item.sequence ->
  Aqua_xml.Item.sequence
(** [read_cell derive v] is [v], except that an error cell re-runs
    [derive] on the row's cell to raise the same exception an
    unmemoized evaluation would. *)

val keys : dcol -> string array
(** Group-key components by row, interned. *)

val cells : dcol -> Kernels.cells
(** Kernel readings by row. *)

val ids : dcol -> ids
(** Value ids by row, counted against the cell bound when built. *)

val join_memo : dcol -> Join_table.t -> jmemo option
(** The column's probe results against a build table, or [None] the
    first time the pair is seen: a column probed once against a table
    pays for no ids and no memo.  At most a few tables per column. *)

(** {1 Sources} *)

type entry
(** A source and what is memoized from it. *)

val entry : retain:bool -> Aqua_xml.Item.sequence -> entry
(** The memo entry of a closed source; with [~retain:false] a transient
    one that reads the same way and is never kept. *)

val columns : entry -> string list -> Aqua_xml.Item.sequence array array
(** The projected columns of the given steps, indexed by position in
    the source.  A column that lags the source is extended by the new
    rows; it counts as a hit. *)

type spec = string * Aqua_xquery.Ast.expr * int * (Aqua_xml.Item.sequence -> Aqua_xml.Item.sequence)
(** A derived column: its step, its cell expression, the expression's
    [Hashtbl.hash] and its evaluator over one cell. *)

val derived : entry -> spec array -> dcol array
(** The derived cell columns of the given specs.  A hit also counts as
    a projection hit: it is a scan column served from the memo. *)

val join_table :
  reusable:bool ->
  entry ->
  Aqua_xquery.Ast.expr ->
  bool ->
  key_of:(Aqua_xml.Item.t -> Aqua_xml.Item.sequence) ->
  Join_table.t
(** [join_table ~reusable e build_key value_cmp ~key_of]: the build
    table of one hash-join invocation, indexing the entry's items (so
    its rows line up with {!columns}).  A [reusable] build is kept with
    the entry and reused. *)

val rows_upto : int -> Aqua_xml.Item.sequence array
(** Row positions as cells ([[xs:integer r]]) for at least [n] rows,
    shared by every source: a tuple carries its scan row this way to
    the kernels and group keys that read derived columns. *)

val row_of : Aqua_xml.Item.sequence -> int
(** The row position a {!rows_upto} cell holds. *)

(** {1 Bounds} *)

val projected_cells_max : int
(** Bound on the projected and derived column cells (rows times
    columns) the domain's memo retains. *)

val src_derived_cap : int
(** Derived columns kept per source; past it the least recently used
    one leaves. *)

val retained : unit -> int
(** Cells the calling domain's memo retains now. *)
