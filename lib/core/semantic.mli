(** Stage two of the translation (paper section 3.4): semantic
    validation against data-service metadata and computation of every
    (sub)query's output schema — wildcard expansion, alias resolution,
    grouping-rule enforcement, set-operation compatibility.

    {!resolve} returns what it found as a resolved statement: each
    query spec's FROM views, expanded select items, grouping columns
    and the statement's ORDER BY targets; each column reference's
    resolution; the type of each operand stage three casts or guards
    by.  Stage three ({!Generate}), EXPLAIN and the baseline SQL
    engine's ORDER BY read it and resolve nothing themselves. *)

type env = {
  lookup_table :
    Aqua_sql.Ast.table_name -> Aqua_sql.Ast.pos -> Aqua_dsp.Metadata.table;
}

val env_of_application : Aqua_dsp.Artifact.application -> env
(** Direct metadata lookups. *)

val env_of_cache : Aqua_dsp.Metadata.Cache.t -> env
(** Lookups through the driver's metadata cache (fetch on miss). *)

(** {2 The resolved statement} *)

type source =
  | Table of Aqua_dsp.Metadata.table
  | Derived of Aqua_sql.Ast.query

(** A FROM item in the shape stage three binds it. *)
type from =
  | Leaf of Scope.view * source  (** a table or derived table *)
  | Inner of from * from * Aqua_sql.Ast.expr option
      (** an inner join (with its ON condition) or a cross join: the
          views of both sides stay separate *)
  | Outer of {
      left : from;
      right : from;
      cond : Aqua_sql.Ast.expr;
      full : bool;  (** FULL, else LEFT *)
      view : Scope.view;
    }
      (** an outer-join tree, flattened into one view whose record
          carries every column of both sides as [T.C] (paper Example
          10); a RIGHT join appears as LEFT with its sides swapped *)

type spec = {
  from : from list;
  views : Scope.view list;  (** every view [from] binds, in order *)
  scope : Scope.t;  (** the scope the spec's clauses resolve in *)
  items : (Outcol.t * Aqua_sql.Ast.expr) list;
      (** output columns with the select expressions producing them;
          wildcards expanded into (resolved) column references *)
  grouped : bool;  (** GROUP BY, HAVING, or aggregates in the select list *)
  group_by : Scope.resolution list;  (** the grouping columns *)
}

type order_key =
  | Output of int
      (** the 0-based output column; of an ungrouped, non-distinct
          query, a key given by position *)
  | Key of Aqua_sql.Ast.expr
      (** an expression over the scope of an ungrouped, non-distinct
          query: an output label's select expression, or the key *)

type t

val resolve : env -> Aqua_sql.Ast.statement -> t
(** Validates the statement.
    @raise Errors.Error on any semantic error. *)

val statement : t -> Aqua_sql.Ast.statement

val order_by : t -> (order_key * bool) list
(** The ORDER BY targets, with their descending flags. *)

val spec : t -> Aqua_sql.Ast.query_spec -> spec
(** The resolution of one of the statement's query specs (by physical
    identity: the top-level one, a derived table's, a subquery's). *)

val column : t -> Aqua_sql.Ast.expr -> Scope.resolution
(** The resolution of one of the statement's column references,
    including those wildcard expansion made. *)

val info : t -> Aqua_sql.Ast.expr -> Typer.info
(** The type of a literal, a column reference, or an operand noted by
    {!Typer.env.note}. *)

(** {2 For stage three and the baseline SQL engine} *)

val table_view : Aqua_dsp.Metadata.table -> alias:string option -> Scope.view
val derived_view : Outcol.t list -> alias:string -> Scope.view

val set_columns : Outcol.t list -> Outcol.t list -> Outcol.t list
(** A set operation's output columns from its validated sides' (as
    many on each side): the left side's names, a numeric column
    promoted over both sides (SQL-92), nullable if either side is.
    Stage two types the operation by it, and so do stage three and the
    engine. *)

val is_grouped : Aqua_sql.Ast.query_spec -> bool

val select_items :
  env -> Scope.t -> Aqua_sql.Ast.query_spec -> (Outcol.t * Aqua_sql.Ast.expr) list
(** A spec's expanded select list over the given scope. *)
