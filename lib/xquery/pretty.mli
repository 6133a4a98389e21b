(** Serialization of XQuery ASTs to query text in the style of the
    paper's examples: FLWORs with one clause per line, constructor
    content in curly braces, comparisons parenthesized. *)

val expr_to_string : Ast.expr -> string
val query_to_string : Ast.query -> string
