(** Name scopes for column resolution.

    Each query spec opens a scope holding one view per FROM item (the
    paper's resultset nodes); resolution walks outward through parent
    scopes, which is how correlated subqueries see their outer query's
    columns.  Views are made by {!view}, which case-folds their alias
    and columns' labels once; stage three binds each view, by {!view.id},
    to the XQuery row variable its rows are iterated with. *)

type vcol = private {
  label : string;  (** the SQL-visible column name *)
  qualifier : string option;
      (** alias the column may be qualified with; survives join
          flattening so [T.C] keeps resolving inside a materialized
          join view *)
  element : string;  (** child element name in this view's rows *)
  ty : Aqua_relational.Sql_type.t;
  nullable : bool;
  key : string;  (** [label], case-folded *)
  qualifier_key : string option;  (** [qualifier], case-folded *)
}

type view = private {
  id : int;  (** unique among the views of a process *)
  alias : string option;
  alias_key : string option;  (** [alias], case-folded *)
  cols : vcol list;  (** in the order of the view's rows *)
  lookup : vcol list;
      (** the same columns in SQL order, which ambiguity is reported
          in; differs from [cols] only under a RIGHT OUTER JOIN, whose
          record puts the right side first *)
}

val col :
  ?qualifier:string ->
  element:string ->
  ty:Aqua_relational.Sql_type.t ->
  nullable:bool ->
  string ->
  vcol

val view : ?alias:string -> ?lookup:vcol list -> vcol list -> view

val qualified_cols : nullable:bool -> view -> vcol list
(** The view's columns as a join record carries them: qualified by the
    view's alias, element [T.C]; all nullable on a null-extended side
    ([~nullable:true]). *)

type t

val root : t
(** The empty outermost scope. *)

val push : t -> view list -> t
(** A child scope with the given views. *)

type resolution = {
  res_view : view;
  res_col : vcol;
  res_depth : int;  (** 0 = current scope, >0 = correlated *)
}

type error =
  | Not_found_in_scope
  | Ambiguous of string list  (** descriptions of the candidates *)

val resolve : t -> ?qualifier:string -> string -> (resolution, error) result
(** Case-insensitive resolution of a (possibly qualified) column
    reference; ambiguity within one scope level is an error, shadowing
    across levels is not. *)

val star_columns : t -> (view * vcol) list
(** All columns of the scope's own views in FROM order ([SELECT *]),
    each view's in SQL ({!view.lookup}) order. *)

val qualified_star_columns : t -> string -> (view * vcol) list
(** Columns matching [alias.*], in the same order. *)
