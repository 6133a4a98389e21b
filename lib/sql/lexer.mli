(** SQL-92 lexical analysis (paper stage one, first half). *)

type token =
  | Ident of string        (** unquoted identifier or keyword, as written *)
  | Quoted_ident of string (** ["..."]-delimited identifier, exact *)
  | String_lit of string   (** ['...'] with [''] escapes decoded *)
  | Int_lit of int
  | Num_lit of float * string (** value, original spelling *)
  | Punct of string        (** operators and delimiters, e.g. ["<="] *)
  | Eof

type located = {
  token : token;
  pos : Ast.pos;
}

exception Lex_error of { pos : Ast.pos; message : string }

val tokens : string -> located list
(** The tokens as a list, which the parser walks: an array of more than
    256 tokens would be allocated in the major heap, a step in the cost
    of every long statement.
    @raise Lex_error as {!tokenize}. *)

val tokenize : string -> located array
(** @raise Lex_error on an unrecognized character or unterminated
    literal. The result always ends with an [Eof] token. *)

val token_to_string : token -> string
