(** SQL-92 lexical analysis (paper stage one, first half): the only
    code that reads SQL characters.  The plan key and fingerprint of
    [Aqua_obs.Fingerprint] and the parser all read its tokens. *)

type token =
  | Ident of string        (** unquoted identifier or keyword, as written *)
  | Quoted_ident of string (** ["..."]-delimited identifier, exact *)
  | String_lit of string   (** ['...'] with [''] escapes decoded *)
  | Int_lit of int
  | Num_lit of float * string (** value, original spelling *)
  | Punct of string        (** operators and delimiters, e.g. ["<="] *)
  | Error of string
      (** a lexical error, with its message: an unexpected character
          (the token covers it), or a zero-width token where an
          unterminated string, quoted identifier or block comment
          meets the end of the text, or where an exponent sign without
          digits ends a number (scanning resumes at the [e]) *)
  | Eof

type located = {
  token : token;
  pos : Ast.pos;  (** where the token starts: an error's position *)
  offset : int;  (** byte offset of the token's first character *)
  len : int;  (** bytes the token covers, quotes included *)
  literal : Ast.literal option;
      (** for a literal token, its value, made once: the parser's
          [Lit] node holds this very block *)
}

val tokens : string -> located list
(** The tokens as a list, which the parser walks (an array of more than
    256 tokens would be allocated in the major heap, a step in the cost
    of every long statement).  Never raises: a lexical error is an
    [Error] token, and an unterminated string or quoted identifier is
    also its token, holding the rest of the text.  The list always ends
    with an [Eof] token. *)

val first_error : located list -> (Ast.pos * string) option
(** The position and message of the first [Error] token. *)

val token_to_string : token -> string
