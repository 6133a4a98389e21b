(** SQL-92 SELECT recursive-descent parser (paper stage one).

    Syntactically invalid SQL is rejected immediately with a
    positioned [Parse_error]; all semantic checks are deferred to the
    translator's later stages, exactly as the paper prescribes. *)

exception Parse_error of { pos : Ast.pos; message : string }

val parse : string -> Ast.statement
(** @raise Parse_error on syntax errors (also wraps lexical errors). *)

val parse_expression : string -> Ast.expr
(** Parses a standalone scalar expression — used by tests. *)

type numbering = {
  values : Ast.literal array;
      (** every numeric and string literal token, in text order: the
          literal with ordinal [k] is [values.(k)].  A [Lit] node built
          from such a token holds that very block, so a literal's
          ordinal is found by physical identity; literals read as
          something else (ORDER BY positions, type lengths, the string
          of a DATE literal) have an ordinal but no [Lit] node. *)
  params : int;  (** ['?'] parameters, numbered [1 .. params] *)
}

val parse_numbered : string -> Ast.statement * numbering
(** [parse], with what it numbered: the literal tokens by ordinal and
    the parameters.  The driver's plan cache lifts literals by
    ordinal. *)
