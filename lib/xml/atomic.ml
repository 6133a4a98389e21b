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

let cast_error fmt = Format.kasprintf (fun s -> raise (Cast_error s)) fmt

let type_name = function
  | Untyped _ -> "xs:untypedAtomic"
  | String _ -> "xs:string"
  | Integer _ -> "xs:integer"
  | Decimal _ -> "xs:decimal"
  | Double _ -> "xs:double"
  | Boolean _ -> "xs:boolean"
  | Date _ -> "xs:date"
  | Time _ -> "xs:time"
  | Timestamp _ -> "xs:dateTime"

let date_to_string d = Printf.sprintf "%04d-%02d-%02d" d.year d.month d.day

let time_to_string t =
  Printf.sprintf "%02d:%02d:%02d" t.hour t.minute t.second

let timestamp_to_string ts =
  date_to_string ts.date ^ "T" ^ time_to_string ts.time

(* The C routine behind [Printf.sprintf "%.12g"] (and
   [string_of_float]), called directly: for a [%g] conversion Printf
   adds nothing to its output, only its format interpretation. *)
external format_float : string -> float -> string = "caml_format_float"

(* Canonical float printing: integral doubles print without an exponent
   or trailing zeros, like the usual XQuery serializations of small
   values.  We do not need full E-notation canonicalisation. *)
let float_to_lexical f =
  if Float.is_integer f && Float.abs f < 1e15 then
    (* below 1e15 the float is an exact integer within int range, so
       this equals "%.0f" without the printf machinery *)
    string_of_int (int_of_float f)
  else format_float "%.12g" f

let add_int buf i =
  if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    if i < 0 then Buffer.add_char buf '-';
    let rec digits n =
      if n >= 10 then digits (n / 10);
      Buffer.add_char buf (Char.unsafe_chr (48 + (n mod 10)))
    in
    digits (abs i)
  end

let to_lexical = function
  | Untyped s | String s -> s
  | Integer i -> string_of_int i
  | Decimal f | Double f -> float_to_lexical f
  | Boolean b -> if b then "true" else "false"
  | Date d -> date_to_string d
  | Time t -> time_to_string t
  | Timestamp ts -> timestamp_to_string ts

let digits_at s pos n =
  let ok = ref (pos + n <= String.length s) in
  if !ok then
    for i = pos to pos + n - 1 do
      match s.[i] with '0' .. '9' -> () | _ -> ok := false
    done;
  if not !ok then None
  else Some (int_of_string (String.sub s pos n))

let date_of_string s =
  let fail () = cast_error "invalid xs:date literal %S" s in
  if String.length s <> 10 || s.[4] <> '-' || s.[7] <> '-' then fail ();
  match (digits_at s 0 4, digits_at s 5 2, digits_at s 8 2) with
  | Some year, Some month, Some day
    when month >= 1 && month <= 12 && day >= 1 && day <= 31 ->
    { year; month; day }
  | _ -> fail ()

let time_of_string s =
  let fail () = cast_error "invalid xs:time literal %S" s in
  if String.length s <> 8 || s.[2] <> ':' || s.[5] <> ':' then fail ();
  match (digits_at s 0 2, digits_at s 3 2, digits_at s 6 2) with
  | Some hour, Some minute, Some second
    when hour < 24 && minute < 60 && second < 62 ->
    { hour; minute; second }
  | _ -> fail ()

let timestamp_of_string s =
  if String.length s <> 19 || (s.[10] <> 'T' && s.[10] <> ' ') then
    cast_error "invalid xs:dateTime literal %S" s;
  { date = date_of_string (String.sub s 0 10);
    time = time_of_string (String.sub s 11 8) }

let parse_int s =
  match int_of_string_opt (String.trim s) with
  | Some i -> i
  | None -> cast_error "cannot cast %S to xs:integer" s

(* The one untyped-to-number cast: every numeric context (arithmetic,
   fn:sum/avg/min/max, the aggregation kernels, hash-join secondary
   keys, xs:double) reads untyped text through it.  It accepts what
   OCaml's [float_of_string] accepts after trimming, which is wider than
   the XSD lexical space (see DESIGN.md, known divergences). *)
let untyped_number s = float_of_string_opt (String.trim s)

let parse_float s =
  match untyped_number s with
  | Some f -> f
  | None -> cast_error "cannot cast %S to a numeric type" s

let cast_integer = function
  | Integer i -> i
  | Decimal f | Double f -> int_of_float f
  | Untyped s | String s -> parse_int s
  | Boolean b -> if b then 1 else 0
  | (Date _ | Time _ | Timestamp _) as v ->
    cast_error "cannot cast %s to xs:integer" (type_name v)

let cast_double = function
  | Integer i -> float_of_int i
  | Decimal f | Double f -> f
  | Untyped s | String s -> parse_float s
  | Boolean b -> if b then 1.0 else 0.0
  | (Date _ | Time _ | Timestamp _) as v ->
    cast_error "cannot cast %s to xs:double" (type_name v)

let cast_decimal = cast_double
let cast_string v = to_lexical v

let cast_boolean = function
  | Boolean b -> b
  | Integer i -> i <> 0
  | Decimal f | Double f -> f <> 0.0
  | Untyped s | String s -> (
    match String.trim s with
    | "true" | "1" -> true
    | "false" | "0" -> false
    | _ -> cast_error "cannot cast %S to xs:boolean" s)
  | (Date _ | Time _ | Timestamp _) as v ->
    cast_error "cannot cast %s to xs:boolean" (type_name v)

let cast_date = function
  | Date d -> d
  | Timestamp ts -> ts.date
  | Untyped s | String s -> date_of_string s
  | v -> cast_error "cannot cast %s to xs:date" (type_name v)

let cast_time = function
  | Time t -> t
  | Timestamp ts -> ts.time
  | Untyped s | String s -> time_of_string s
  | v -> cast_error "cannot cast %s to xs:time" (type_name v)

let cast_timestamp = function
  | Timestamp ts -> ts
  | Date d -> { date = d; time = { hour = 0; minute = 0; second = 0 } }
  | Untyped s | String s -> timestamp_of_string s
  | v -> cast_error "cannot cast %s to xs:dateTime" (type_name v)

let is_numeric = function
  | Integer _ | Decimal _ | Double _ -> true
  | Untyped _ | String _ | Boolean _ | Date _ | Time _ | Timestamp _ -> false

let compare_date a b =
  compare (a.year, a.month, a.day) (b.year, b.month, b.day)

let compare_time a b =
  compare (a.hour, a.minute, a.second) (b.hour, b.minute, b.second)

let compare_timestamp a b =
  let c = compare_date a.date b.date in
  if c <> 0 then c else compare_time a.time b.time

(* XQuery general-comparison value rules: numerics compare numerically
   across representations; untyped data is cast to the type of the other
   operand (to string when both sides are untyped). *)
let rec compare_values a b =
  match (a, b) with
  | Integer x, Integer y -> compare x y
  | (Integer _ | Decimal _ | Double _), (Integer _ | Decimal _ | Double _) ->
    Float.compare (cast_double a) (cast_double b)
  | String x, String y -> String.compare x y
  | Boolean x, Boolean y -> Bool.compare x y
  | Date x, Date y -> compare_date x y
  | Time x, Time y -> compare_time x y
  | Timestamp x, Timestamp y -> compare_timestamp x y
  | Untyped x, Untyped y -> String.compare x y
  | Untyped x, String y -> String.compare x y
  | String x, Untyped y -> String.compare x y
  | Untyped s, (Integer _ | Decimal _ | Double _) ->
    Float.compare (parse_float s) (cast_double b)
  | (Integer _ | Decimal _ | Double _), Untyped s ->
    Float.compare (cast_double a) (parse_float s)
  | Untyped s, Boolean _ -> compare_values (Boolean (cast_boolean (String s))) b
  | Boolean _, Untyped s -> compare_values a (Boolean (cast_boolean (String s)))
  | Untyped s, Date _ -> compare_values (Date (date_of_string s)) b
  | Date _, Untyped s -> compare_values a (Date (date_of_string s))
  | Untyped s, Time _ -> compare_values (Time (time_of_string s)) b
  | Time _, Untyped s -> compare_values a (Time (time_of_string s))
  | Untyped s, Timestamp _ -> compare_values (Timestamp (timestamp_of_string s)) b
  | Timestamp _, Untyped s -> compare_values a (Timestamp (timestamp_of_string s))
  | Date _, Timestamp _ -> compare_timestamp (cast_timestamp a) (cast_timestamp b)
  | Timestamp _, Date _ -> compare_timestamp (cast_timestamp a) (cast_timestamp b)
  | _ ->
    cast_error "values of types %s and %s are not comparable" (type_name a)
      (type_name b)

let equal a b = try compare_values a b = 0 with Cast_error _ -> false

let hash_key = function
  | Integer i ->
    (* same key "%.0f"-formatting would produce for any int that
       round-trips through float exactly; beyond that fall back so
       Integer and Double keys stay consistent *)
    if Int.abs i < 1_000_000_000_000_000 then "n" ^ string_of_int i
    else "n" ^ float_to_lexical (float_of_int i)
  | Decimal f | Double f -> "n" ^ float_to_lexical f
  | Untyped s | String s -> "s" ^ s
  | Boolean b -> if b then "bT" else "bF"
  | Date d -> "d" ^ date_to_string d
  | Time t -> "t" ^ time_to_string t
  | Timestamp ts -> "ts" ^ timestamp_to_string ts

let pp fmt v =
  match v with
  | Untyped s -> Format.fprintf fmt "untyped(%S)" s
  | String s -> Format.fprintf fmt "%S" s
  | _ -> Format.pp_print_string fmt (to_lexical v)
