(** The result-handling wrapper of paper section 4.

    Instead of shipping XML, the translated query is wrapped in an
    outer query emitting the rows as delimited text via
    [fn:string-join]: each row starts with ['>'] and columns are
    separated by ['<'] — safe because every value passes through
    [fn-bea:xml-escape], after which data can contain neither
    character (the paper's [>987654<Acme Widget Stores] sample relies
    on the same property).  SQL NULL is encoded by [fn-bea:if-empty]
    as a NUL byte, which escaped data can never contain. *)

val row_prefix : string
val column_separator : string
val null_marker : string

val wrap : Aqua_xquery.Ast.query -> Outcol.t list -> Aqua_xquery.Ast.query
(** Wraps a RECORDSET-producing query for the text transport. *)

exception Decode_error of string

val unescape : string -> string
(** Inverse of [fn-bea:xml-escape].
    @raise Decode_error on malformed references. *)

val decode :
  columns:Outcol.t list -> string -> Aqua_relational.Value.t array list
(** Decodes the wire text in one pass into rows of values, one per
    column: [Value.Null] for the NULL marker, [Value.of_string] of the
    column's type over the unescaped cell otherwise.
    @raise Decode_error on malformed input or arity mismatches.
    @raise Aqua_relational.Value.Type_error on a cell its column's type
    does not parse. *)
