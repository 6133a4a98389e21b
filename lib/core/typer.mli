(** Expression datatype computation (paper section 3.5 (v)): bottom-up
    inference of the SQL type and nullability of every expression,
    applying SQL-92 promotion; drives cast generation and the
    metadata-informed elision of null guards. *)

type info = {
  ty : Aqua_relational.Sql_type.t;
  nullable : bool;
  known : bool;  (** [false] for parameters and bare NULLs — suppresses casts *)
}

val known : Aqua_relational.Sql_type.t -> bool -> info
val unknown : info

type env = {
  column : Aqua_sql.Ast.expr -> info;  (** resolves a column reference *)
  query_schema : Aqua_sql.Ast.query -> Outcol.t list;
      (** computes (and validates) a subquery's output columns *)
  note : Aqua_sql.Ast.expr -> info -> unit;
      (** told the type of every operand of a comparison, BETWEEN, IN
          list, LIKE argument and function argument that is neither a
          literal nor a column: the operands stage three casts or
          null-guards by type *)
}

val literal : Aqua_sql.Ast.literal -> info

val infer : env -> Aqua_sql.Ast.expr -> info
(** Checks every subexpression, the WHEN conditions of a CASE
    included.
    @raise Errors.Error on type mismatches, unknown functions, or
    invalid subqueries. *)
