(** The XQuery interpreter: the reference semantics of the engine.

    Implements the dynamic semantics of the fragment emitted by the
    translator: FLWOR tuple streams (with the BEA group-by extension),
    path navigation with positional and boolean predicates, element
    construction with sequence-content normalization, general and
    value comparisons, quantifiers, and the function library of
    {!Functions} extended with caller-supplied external functions
    (the data-service functions of the platform).

    It walks the plan it is given, as written, with the naive
    nested-loop semantics; it neither optimizes nor compiles.  The
    compiled engine ({!Compile}) is differentially tested against it,
    over the unoptimized plan and over {!Optimize}'s rewrite of it. *)

type external_fn = Aqua_xml.Item.sequence list -> Aqua_xml.Item.sequence

type context
(** Dynamic evaluation context: variable bindings plus the resolver
    for non-built-in function names. *)

val context : ?resolve:(string -> external_fn option) -> unit -> context
(** A fresh context. [resolve] is consulted for any function name not
    found in the built-in library (e.g. ["ns0:CUSTOMERS"]). *)

val bind : context -> string -> Aqua_xml.Item.sequence -> context
(** Binds a variable (name without the ['$']). *)

val eval : context -> Aqua_xquery.Ast.expr -> Aqua_xml.Item.sequence
(** Interprets an expression.  A [where] clause referencing a variable
    bound only by a later clause of the same FLWOR raises a clear
    error naming the variable, before anything is evaluated.
    @raise Error.Dynamic_error on dynamic errors (unknown variable or
    function, type mismatches, cast failures). *)

(** {1 Operator semantics shared with the compiled engine} *)

val cmp_holds : Aqua_xquery.Ast.cmp -> int -> bool
(** Whether a three-way comparison result satisfies the operator. *)

val general_compare :
  Aqua_xquery.Ast.cmp -> Aqua_xml.Item.sequence -> Aqua_xml.Item.sequence ->
  bool
(** Existential comparison over the atomized operands. *)

val value_compare :
  Aqua_xquery.Ast.cmp -> Aqua_xml.Item.sequence -> Aqua_xml.Item.sequence ->
  Aqua_xml.Item.sequence
(** Singleton comparison, empty on an empty operand. *)

val arith_atomic :
  Aqua_xquery.Ast.arith -> Aqua_xml.Atomic.t -> Aqua_xml.Atomic.t ->
  Aqua_xml.Atomic.t
(** Arithmetic: untyped operands cast to [xs:double], then integer,
    decimal and double promotion. *)
