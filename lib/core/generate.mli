(** Stage three of the translation (paper sections 3.4.3 and 3.5):
    serializes the resolved statement stage two returns into XQuery,
    resolving no name and inferring no type itself; every resultset node
    translating itself — tables into [for] clauses over data-service
    functions, derived tables into [let]-bound RECORDSETs, outer joins
    into the if-empty pattern of Example 10, grouping into the BEA
    group-by extension, set operations into membership patterns.

    Boolean predicates are translated with an explicit polarity so SQL
    three-valued logic maps onto XQuery two-valued logic: positive
    polarity is "p is TRUE", negative "p is FALSE"; negation flips the
    polarity rather than emitting [fn:not], which would conflate
    UNKNOWN with FALSE. *)

type style =
  | Patterned
      (** the paper's emission: metadata-informed null-guard elision,
          direct partition paths for plain-column aggregates, constant
          LIKE specialization *)
  | Naive
      (** always guard, always iterate, never specialize — the
          ablation baseline of benchmark P5 *)

type output = {
  query : Aqua_xquery.Ast.query;
  columns : Outcol.t list;
}

val generate : ?style:style -> Semantic.t -> output
(** Serializes a resolved statement: binds its views to XQuery row
    variables and reads every column's resolution and every operand's
    type from stage two.  Raises no translation error. *)

type lifted = {
  var : string;  (** the external: [litK], or [litK_T] for a cast to xs:T *)
  ordinal : int;  (** the literal's ordinal ({!Aqua_sql.Parser.literals}) *)
  cast : string option;
      (** the xs: cast applied to the literal when it is bound (one that
          cannot fail on the literal's class) *)
}

val generate_lifted :
  literals:Aqua_sql.Ast.literal array -> Semantic.t -> output * lifted list
(** [generate] (patterned style) with every literal of [literals]
    ({!Aqua_sql.Parser.numbering}[.values], matched by identity) that is
    used as an opaque constant (wherever [generate] emits the literal's
    value or an xs: cast of it) emitted as a read of an external
    variable, listed in the second component.  Any other use of a literal (a constant LIKE
    pattern) reads its value, so the plan holds it as written.
    Substituting each external's value back gives [generate]'s query
    exactly. *)

val instantiate :
  lifted list ->
  Aqua_sql.Ast.literal array ->
  Aqua_xquery.Ast.query ->
  Aqua_xquery.Ast.query
(** [instantiate lifted values q]: the lifted plan [q] with each
    external replaced by the expression [generate] emits for literal
    [values.(ordinal)]. *)

val bindings :
  lifted list ->
  Aqua_sql.Ast.literal array ->
  (string * Aqua_xml.Item.sequence) list
(** Each external's value for the literals [values]: the literal, cast
    (by the interpreter's own cast code) where the external names a
    cast.
    @raise Aqua_xqeval.Error.Dynamic_error if a cast fails (never for
    the literal classes the generator lifts casts for). *)
