(** The SQL-92 to XQuery translator — the paper's core contribution.

    [translate] runs the three stages of section 3.4:
    stage one parses the SQL and captures contexts, stage two validates
    it against data-service metadata and restructures (wildcard
    expansion, alias and position resolution), stage three serializes
    every resultset node into XQuery and assembles the final query.

    {[
      let env = Aqua_translator.Semantic.env_of_application app in
      let t = Aqua_translator.Translator.translate env
                "SELECT CUSTOMERID ID FROM CUSTOMERS WHERE CUSTOMERID > 10" in
      print_string (Aqua_xquery.Pretty.query_to_string t.xquery)
    ]} *)

type t = {
  statement : Aqua_sql.Ast.statement;  (** stage-one AST *)
  xquery : Aqua_xquery.Ast.query;      (** RECORDSET-of-RECORDs query *)
  columns : Outcol.t list;             (** computed result schema *)
}

val translate :
  ?style:Generate.style -> Semantic.env -> string -> t
(** @raise Errors.Error on syntax or semantic errors. *)

val translate_result :
  ?style:Generate.style -> Semantic.env -> string -> (t, Errors.t) result

val translate_statement :
  ?style:Generate.style -> Semantic.env -> Aqua_sql.Ast.statement -> t
(** Stages two and three only, for callers that already parsed. *)

(** {2 Lifted translations}

    The driver's plan cache serves one translation to every statement
    that differs only in the values of literals used as opaque
    constants (DESIGN.md section 17). *)

type lifted = {
  plan : t;
      (** the translation with those literals lifted: its [xquery]
          reads them as externals, bound by {!bindings} *)
  literals : Aqua_sql.Ast.literal array;
      (** every literal token's block, in text order (by ordinal) *)
  externals : Generate.lifted list;
  pinned : int list;
      (** the ordinals of the literals the plan holds by value: ORDER
          BY positions, type lengths, DATE/TIME/TIMESTAMP strings, a
          constant LIKE pattern *)
  params : int;  (** the statement's ['?'] parameters *)
}

val translate_lifted : Semantic.env -> Aqua_sql.Lexer.located list -> lifted
(** The three stages once, with lifting, over the text the tokens were
    lexed from.  Counts one translation, as {!translate} does.
    @raise Errors.Error on syntax or semantic errors. *)

val reusable : lifted -> Aqua_sql.Ast.literal array -> bool
(** Whether the plan answers a statement whose literals are [values]:
    same count, and the pinned ones equal.  (That the rest of the
    statement matches is the caller's key.) *)

val instantiate : lifted -> Aqua_sql.Ast.literal array -> Aqua_xquery.Ast.query
(** The plan with [values] put back: for the statement those literals
    come from, equal to [(translate env sql).xquery]. *)

val bindings :
  lifted -> Aqua_sql.Ast.literal array -> (string * Aqua_xml.Item.sequence) list
(** The externals' values for the literals [values]. *)

val for_text_transport : t -> Aqua_xquery.Ast.query
(** Wraps the translated query for the text-encoded result transport
    of paper section 4. *)

val to_string : t -> string
(** Pretty-printed XQuery text. *)
