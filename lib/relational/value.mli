(** SQL values, including NULL, with the three-valued-logic comparison
    helpers both engines share. *)

type t =
  | Null
  | Int of int          (** SMALLINT/INTEGER/BIGINT *)
  | Num of float        (** DECIMAL/REAL/DOUBLE *)
  | Str of string       (** CHAR/VARCHAR *)
  | Bool of bool
  | Date of Aqua_xml.Atomic.date
  | Time of Aqua_xml.Atomic.time
  | Timestamp of Aqua_xml.Atomic.timestamp

type bool3 = True | False | Unknown
(** SQL three-valued logic. *)

exception Type_error of string

val is_null : t -> bool

val to_string : t -> string
(** Lexical form used in flat XML results; [Null] has no lexical form.
    @raise Type_error on [Null]. *)

val to_display : t -> string
(** Human-oriented rendering, [Null] printed as ["NULL"]. *)

val of_string : Sql_type.t -> string -> t
(** Decodes a cell's lexical form by its column type, through
    {!Aqua_xml.Atomic}'s scanners: the INTEGER family as [xs:integer],
    DECIMAL/REAL/DOUBLE as [xs:double] (the printer may write an
    exponent, [INF] or [NaN]), BOOLEAN as [xs:boolean], the datetime
    types by their XSD forms.
    @raise Type_error on malformed input. *)

val atomic : t -> Aqua_xml.Atomic.t
(** The matching atomic value: [Num] as [xs:double].
    @raise Type_error on [Null]. *)

val of_atomic : Aqua_xml.Atomic.t -> t

val compare_sql : t -> t -> int
(** Total order treating [Null] as smallest (used for sorting with
    NULLS FIRST semantics); non-null values compare as
    [Atomic.compare_values] of their atomics.
    @raise Type_error on incomparable non-null values. *)

val compare3 : t -> t -> bool3 * int
(** Comparison under 3VL: [Unknown] when either side is null, otherwise
    [True] paired with the ordering result. *)

val equal3 : t -> t -> bool3

val and3 : bool3 -> bool3 -> bool3
val or3 : bool3 -> bool3 -> bool3
val not3 : bool3 -> bool3
val of_bool : bool -> bool3
val is_true : bool3 -> bool

val group_key : t -> string
(** Key for GROUP BY / DISTINCT hashing: [Atomic.hash_key] of the
    matching atomic.  SQL considers two nulls identical for grouping, so
    [Null] gets its own stable key. *)

val pp : Format.formatter -> t -> unit
