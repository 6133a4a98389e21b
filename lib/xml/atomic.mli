(** Atomic values of the XQuery data model.

    The subset implemented is the one the SQL-92 translator can emit:
    strings, integers, decimals, doubles, booleans and the date/time
    family, plus [Untyped] for values obtained by atomizing schema-less
    element content (XQuery's [xs:untypedAtomic]). *)

type date = { year : int; month : int; day : int }
type time = { hour : int; minute : int; second : int }
type timestamp = { date : date; time : time }

type t =
  | Untyped of string
  | String of string
  | Integer of int
  | Decimal of float
  | Double of float
  | Boolean of bool
  | Date of date
  | Time of time
  | Timestamp of timestamp

exception Cast_error of string
(** Raised by the [cast_*] functions on invalid lexical input. *)

val type_name : t -> string
(** XML Schema type name, e.g. ["xs:integer"]. *)

val to_lexical : t -> string
(** Canonical lexical form (what [fn:string] returns). *)

val float_to_lexical : float -> string
(** The lexical form of an [xs:double]/[xs:decimal] value, the only
    float printer: an integral value below 1e18 in magnitude as its
    integer digits, infinities and NaN as [INF], [-INF] and [NaN],
    anything else as C's [%.12g]. *)

val add_int : Buffer.t -> int -> unit
(** [add_int buf i] appends [string_of_int i] without building it. *)

val date_to_string : date -> string
val time_to_string : time -> string
val timestamp_to_string : timestamp -> string

val date_of_string : string -> date
(** Parses ["YYYY-MM-DD"]. @raise Cast_error on bad input. *)

val time_of_string : string -> time
(** Parses ["HH:MM:SS"]. @raise Cast_error on bad input. *)

val timestamp_of_string : string -> timestamp
(** Parses ["YYYY-MM-DDTHH:MM:SS"] (a space separator is also accepted).
    @raise Cast_error on bad input. *)

(** {2 Lexical spaces}

    The only readers of a number or a boolean out of data text, one per
    XML Schema 1.0 Part 2 type, [None] outside its lexical space.  XSD
    whitespace (space, tab, CR, LF) may surround the value; hexadecimal,
    underscores, [infinity] and [nan] are not numbers. *)

val scan_integer : string -> int option
(** [xs:integer] (3.3.13); [None] too when the value does not fit an
    int. *)

val scan_decimal : string -> float option
(** [xs:decimal] (3.2.3): digits with at most one dot; also an
    exponent, which [float_to_lexical] writes for small and large
    values; no [INF] or [NaN]. *)

val scan_double : string -> float option
(** [xs:double] (3.2.5): a decimal with an optional exponent, or [INF],
    [-INF], [NaN]; every untyped-to-number reading uses it. *)

val scan_boolean : string -> bool option
(** [xs:boolean] (3.2.2): [true], [false], [1] or [0]. *)

val cast_double : t -> float
(** [xs:double] of a value; text reads as [scan_double]. *)

val constructors : (string * (t -> t)) list
(** The [xs:] constructor functions by name ([xs:int], [xs:decimal],
    ...), each reading text in its type's lexical space. *)

val cast : string -> t -> t
(** [cast name] is the constructor [name] (a [Sql_type.xquery_name]).
    @raise Cast_error when the value is outside the target's space. *)

val is_numeric : t -> bool

val compare_values : t -> t -> int
(** Ordering used by comparisons and [order by].  Numeric types compare
    numerically across representations; [Untyped] compares as a string
    against strings and is cast to the other operand's type otherwise.
    @raise Cast_error when the two values are not comparable. *)

val equal : t -> t -> bool
(** [equal a b] is [compare_values a b = 0], with incomparable values
    unequal rather than an error. *)

val hash_key : t -> string
(** Injective-enough key for grouping/distinct: equal values (per
    [compare_values]) map to equal keys; an integer and the double
    equal to it share one key below 2^53. *)

val pp : Format.formatter -> t -> unit
