(** SQL query-shape fingerprints (pg_stat_statements style).

    {!normalize} reduces a SQL text to its shape: literals become [?],
    keywords and identifiers are case-folded to upper case, whitespace
    collapses to single separators, and [IN]-lists of literals
    collapse to [IN (?)] — so the ad-hoc SQL a reporting tool
    regenerates with different constants, casing or layout lands on
    one stable key.  {!digest} is a 64-bit FNV-1a hash of the
    normalized text in fixed-width hex, usable as a metric label.

    Shapes are read off the tokens of {!Aqua_sql.Lexer.tokens}, which
    never raises (a lexical error is a token too), without parsing: so
    even SQL the translator rejects still fingerprints — errors
    aggregate by shape too. *)

val normalize : string -> string
(** The canonical shape text.  Quoted identifiers ["..."] keep their
    case; string literals ['...'] (with [''] escapes) and numeric
    literals (including decimals and exponents) become [?]. *)

val digest : string -> string
(** 16 lowercase hex characters: FNV-1a 64 over [normalize sql]. *)

val fingerprint : string -> string * string
(** [(digest, normalized)] computed in one pass over the input. *)

(** {2 The plan key}

    The driver's plan cache keys statements by their token sequence
    with every numeric or string literal replaced by its class, takes
    the literal values from the same tokens, and on a miss parses
    those tokens. *)

type literal = {
  cls : char;
      (** ['i'] integer (fits an OCaml int, no dot or exponent),
          ['n'] exact decimal, ['e'] approximate (with an exponent),
          ['s'] string *)
  text : string;  (** a number's spelling; a string's unescaped value *)
  pos : int;  (** byte offset of the literal's first character *)
  len : int;  (** bytes the literal spans, quotes included *)
  value : Aqua_sql.Ast.literal;
      (** the token's block, which the parser's [Lit] node holds *)
}

type key = {
  digest : string;  (** as {!fingerprint} *)
  shape : string;  (** as {!fingerprint} *)
  plan : string option;
      (** The token sequence, comments and whitespace dropped, tokens
          as written (identifiers not case-folded, IN-lists at their
          arity), each literal replaced by its class, so two texts with
          one plan key lex alike but for their literals' values.
          [None] when a token is a lexical error. *)
  literals : literal array;  (** every literal, in text order *)
  tokens : Aqua_sql.Lexer.located list;  (** what the key was read from *)
}

val key : string -> key
(** One lexical pass: [(key s).digest, (key s).shape] is
    [fingerprint s], byte for byte. *)
