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
(** The lexical form of an [xs:double]/[xs:decimal] value: an integral
    value below 1e15 in magnitude as its integer digits, anything else
    as C's [%.12g]. *)

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

val untyped_number : string -> float option
(** The untyped-to-number cast shared by every numeric context:
    [float_of_string_opt] of the trimmed text.  [None] when the text is
    not a number. *)

val cast_integer : t -> int
val cast_double : t -> float
val cast_decimal : t -> float
val cast_string : t -> string
val cast_boolean : t -> bool
val cast_date : t -> date
val cast_time : t -> time
val cast_timestamp : t -> timestamp

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
    [compare_values]) map to equal keys. *)

val pp : Format.formatter -> t -> unit
