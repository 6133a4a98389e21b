module Atomic = Aqua_xml.Atomic

type t =
  | Null
  | Int of int
  | Num of float
  | Str of string
  | Bool of bool
  | Date of Atomic.date
  | Time of Atomic.time
  | Timestamp of Atomic.timestamp

type bool3 = True | False | Unknown

exception Type_error of string

let type_error fmt = Format.kasprintf (fun s -> raise (Type_error s)) fmt

let is_null = function Null -> true | _ -> false

let scanned what scan s =
  match scan s with
  | Some v -> v
  | None -> type_error "malformed %s literal %S" what s

(* DECIMAL, REAL and DOUBLE cells read as xs:double: the float printer
   may write an exponent, INF or NaN for any of them *)
let of_string ty s =
  try
    match ty with
    | Sql_type.Smallint | Sql_type.Integer | Sql_type.Bigint ->
      Int (scanned "integer" Atomic.scan_integer s)
    | Sql_type.Decimal _ | Sql_type.Real | Sql_type.Double ->
      Num (scanned "numeric" Atomic.scan_double s)
    | Sql_type.Char _ | Sql_type.Varchar _ -> Str s
    | Sql_type.Boolean -> Bool (scanned "boolean" Atomic.scan_boolean s)
    | Sql_type.Date -> Date (Atomic.date_of_string s)
    | Sql_type.Time -> Time (Atomic.time_of_string s)
    | Sql_type.Timestamp -> Timestamp (Atomic.timestamp_of_string s)
  with Atomic.Cast_error m -> raise (Type_error m)

let atomic = function
  | Null -> type_error "NULL has no atomic value"
  | Int i -> Atomic.Integer i
  | Num f -> Atomic.Double f
  | Str s -> Atomic.String s
  | Bool b -> Atomic.Boolean b
  | Date d -> Atomic.Date d
  | Time t -> Atomic.Time t
  | Timestamp ts -> Atomic.Timestamp ts

let of_atomic = function
  | Atomic.Untyped s | Atomic.String s -> Str s
  | Atomic.Integer i -> Int i
  | Atomic.Decimal f | Atomic.Double f -> Num f
  | Atomic.Boolean b -> Bool b
  | Atomic.Date d -> Date d
  | Atomic.Time t -> Time t
  | Atomic.Timestamp ts -> Timestamp ts

let to_string = function
  | Null -> type_error "NULL has no lexical form"
  | Int i -> string_of_int i
  | Str s -> s
  | v -> Atomic.to_lexical (atomic v)

let to_display = function Null -> "NULL" | v -> to_string v

let compare_nonnull a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Str x, Str y -> String.compare x y
  | _ -> (
    try Atomic.compare_values (atomic a) (atomic b)
    with Atomic.Cast_error _ ->
      type_error "cannot compare %s with %s" (to_display a) (to_display b))

let compare_sql a b =
  match (a, b) with
  | Null, Null -> 0
  | Null, _ -> -1
  | _, Null -> 1
  | _ -> compare_nonnull a b

let compare3 a b =
  match (a, b) with
  | Null, _ | _, Null -> (Unknown, 0)
  | _ -> (True, compare_nonnull a b)

let equal3 a b =
  match compare3 a b with
  | Unknown, _ -> Unknown
  | _, 0 -> True
  | _, _ -> False

let and3 a b =
  match (a, b) with
  | False, _ | _, False -> False
  | True, True -> True
  | _ -> Unknown

let or3 a b =
  match (a, b) with
  | True, _ | _, True -> True
  | False, False -> False
  | _ -> Unknown

let not3 = function True -> False | False -> True | Unknown -> Unknown
let of_bool b = if b then True else False
let is_true = function True -> true | False | Unknown -> false

let group_key = function
  | Null -> "\x00null"
  | v -> Atomic.hash_key (atomic v)

let pp fmt v = Format.pp_print_string fmt (to_display v)
