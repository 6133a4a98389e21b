(** The built-in XQuery function library: the [fn:] functions and
    [fn-bea:] extensions the translator emits, plus the [xs:] type
    constructor functions used for casts. *)

type impl = Aqua_xml.Item.sequence list -> Aqua_xml.Item.sequence

val lookup : string -> impl option
(** Look up a built-in by its qualified name, e.g. ["fn:string-join"].
    The implementation raises {!Error.Dynamic_error} on arity or type
    mismatches. *)

val names : unit -> string list
(** All registered built-in names (for diagnostics and docs). *)

val normalize_content : Aqua_xml.Item.sequence -> Aqua_xml.Node.t list
(** XQuery element-content normalization: adjacent atomic values are
    joined with a single space into one text node; nodes are kept. *)

val content_data : Aqua_xml.Item.sequence -> Aqua_xml.Item.sequence
(** [content_data seq] is [fn:data(<E>{seq}</E>)] without building the
    element: exactly one [xs:untypedAtomic] whose lexical form is the
    string-value the constructor would store ([""] for the empty
    sequence, atomics joined with single spaces).  Registered as the
    built-in {!content_data_name}, which the optimizer's constructor
    fusion emits. *)

val content_data_name : string
(** ["aqua:content-data"]. *)

val hoisted_name : string
(** ["aqua:hoisted"]: the built-in the optimizer wraps around a closed
    subexpression it hoisted ({!Optimize.expr}).  Its value is its
    argument's; the compiled engine evaluates that argument at most once
    per run, on first demand, and memoizes the value or the error. *)

val numeric_of_atomic : string -> Aqua_xml.Atomic.t -> float
(** The numeric promotion used by [fn:sum]/[fn:avg]: numerics cast to
    double, untyped values parsed, anything else raises
    {!Error.Dynamic_error} attributed to [name].  Exposed so the
    columnar aggregation kernels ({!Kernels}) fold with exactly the
    same coercions and error messages as the one-shot implementations
    here. *)

val untype_extremum : Aqua_xml.Atomic.t -> Aqua_xml.Atomic.t
(** The [fn:min]/[fn:max] reading of one atom: an untyped value that
    is an xs:double ({!Aqua_xml.Atomic.scan_double}) becomes a double,
    any other untyped value a string; typed atoms pass through.  Shared
    with the columnar min/max kernels. *)

val like_match : ?escape:char -> pattern:string -> string -> bool
(** SQL LIKE semantics ([%], [_], optional escape character); the
    engine behind [fn-bea:like], shared with the baseline SQL engine.
    @raise Error.Dynamic_error on a malformed pattern. *)

val xml_escape : string -> string
(** The [fn-bea:xml-escape] algorithm: escapes [&], [<], [>] and
    C0 control characters other than tab, LF and CR as numeric
    character references, so that the escaped text can never contain
    the driver's row/column delimiter characters.  Returns [s] itself
    when no byte needs escaping. *)

val xml_escape_into : Buffer.t -> string -> unit
(** [xml_escape_into buf s] appends [xml_escape s] to [buf]; the
    compiled text writer ({!Compile}) escapes each cell this way. *)

val opt_atomic : string -> Aqua_xml.Item.sequence -> Aqua_xml.Atomic.t option
(** [opt_atomic name seq] atomizes [seq] to at most one atom, raising
    {!Error.Dynamic_error} ["<name> expects at most one atomic value"]
    on more: the argument check of [fn-bea:serialize-atomic] and other
    single-valued built-ins. *)
