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

(* [Printf.sprintf "%04d-%02d-%02d"], written digit by digit for the
   dates it pads to ten characters: a scan prints one per date cell. *)
let date_to_string d =
  if d.year < 0 || d.year > 9999 || d.month < 0 || d.month > 99 || d.day < 0
     || d.day > 99
  then Printf.sprintf "%04d-%02d-%02d" d.year d.month d.day
  else begin
    let b = Bytes.make 10 '-' in
    let put pos width n =
      let n = ref n in
      for k = pos + width - 1 downto pos do
        Bytes.unsafe_set b k (Char.unsafe_chr (48 + (!n mod 10)));
        n := !n / 10
      done
    in
    put 0 4 d.year;
    put 5 2 d.month;
    put 8 2 d.day;
    Bytes.unsafe_to_string b
  end

let time_to_string t =
  Printf.sprintf "%02d:%02d:%02d" t.hour t.minute t.second

let timestamp_to_string ts =
  date_to_string ts.date ^ "T" ^ time_to_string ts.time

(* The C routine behind [Printf.sprintf "%.12g"] (and
   [string_of_float]), called directly: for a [%g] conversion Printf
   adds nothing to its output, only its format interpretation. *)
external format_float : string -> float -> string = "caml_format_float"

(* Integers below this magnitude print, and key, as their digits.  Every
   such int is exact as an OCaml int, and so is every double of that
   magnitude, so an integral double and the equal int share a lexical
   form and a [hash_key]. *)
let integer_digits_bound = 1_000_000_000_000_000_000

(* XSD's special doubles are spelled INF, -INF and NaN; other values
   keep C's [%.12g], which every digest downstream reads. *)
let float_to_lexical f =
  if Float.is_integer f && Float.abs f < float_of_int integer_digits_bound
  then string_of_int (int_of_float f)
  else if Float.is_nan f then "NaN"
  else if f = Float.infinity then "INF"
  else if f = Float.neg_infinity then "-INF"
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

(* ------------------------------------------------------------------ *)
(* Lexical spaces (XML Schema 1.0 Part 2)                              *)

(* The only code that reads a number or a boolean out of data text.
   XSD whitespace (space, tab, CR, LF) may surround the value. *)

let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* [s] without the whitespace around it: [s] itself when it has none *)
let collapse s =
  let n = String.length s in
  let i = ref 0 and j = ref n in
  while !i < n && is_blank s.[!i] do incr i done;
  while !j > !i && is_blank s.[!j - 1] do decr j done;
  if !i = 0 && !j = n then s else String.sub s !i (!j - !i)

let after_sign s k =
  if k < String.length s && (s.[k] = '-' || s.[k] = '+') then k + 1 else k

let rec after_digits s k =
  if k < String.length s && s.[k] >= '0' && s.[k] <= '9' then after_digits s (k + 1)
  else k

(* the digits of [s] from [k], accumulated negatively so that min_int
   reads; 1 for a non-digit or past the int range *)
let rec negated_digits s k acc =
  if k = String.length s then acc
  else
    let d = Char.code s.[k] - 48 in
    if d < 0 || d > 9 || acc < min_int / 10 || (acc = min_int / 10 && d > -(min_int mod 10))
    then 1
    else negated_digits s (k + 1) ((acc * 10) - d)

(* xs:integer (3.3.13), [+-]?[0-9]+, and [None] when the value does not
   fit an int *)
let scan_integer s =
  let s = collapse s in
  let start = after_sign s 0 in
  let acc = if String.length s = start then 1 else negated_digits s start 0 in
  if acc > 0 then None
  else if s.[0] = '-' then Some acc
  else if acc = min_int then None
  else Some (-acc)

let exact_powers_of_ten = Array.init 16 (fun k -> float_of_string ("1e" ^ string_of_int k))

(* the digits of [s.[k .. stop - 1]], a dot skipped, as an int *)
let rec mantissa s k stop m =
  if k = stop then m
  else if s.[k] = '.' then mantissa s (k + 1) stop m
  else mantissa s (k + 1) stop ((m * 10) + Char.code s.[k] - 48)

(* xs:double (3.2.5): [+-]?([0-9]+(\.[0-9]* )?|\.[0-9]+), the xs:decimal
   form, with an optional [eE][+-]?[0-9]+, or with [~specials] INF, -INF
   or NaN.  At most 15 digits without an exponent make an exact int,
   which divided by an exact power of ten rounds once (Clinger's fast
   path); other text goes to [float_of_string], which rounds correctly. *)
let scan_float ~specials s =
  let s = collapse s in
  let n = String.length s and start = after_sign s 0 in
  let int_end = after_digits s start in
  let frac_start = if int_end < n && s.[int_end] = '.' then int_end + 1 else int_end in
  let frac_end = after_digits s frac_start in
  let exp_end =
    if frac_end < n && (s.[frac_end] = 'e' || s.[frac_end] = 'E') then
      let digits = after_sign s (frac_end + 1) in
      let e = after_digits s digits in
      if e > digits then e else -1
    else frac_end
  in
  let ndigits = int_end - start + frac_end - frac_start in
  if ndigits = 0 || exp_end <> n then
    match s with
    | "INF" when specials -> Some Float.infinity
    | "-INF" when specials -> Some Float.neg_infinity
    | "NaN" when specials -> Some Float.nan
    | _ -> None
  else if exp_end = frac_end && ndigits <= 15 then begin
    let m = float_of_int (mantissa s start frac_end 0) in
    let f = m /. exact_powers_of_ten.(frac_end - frac_start) in
    Some (if s.[0] = '-' then -.f else f)
  end
  else Some (float_of_string s)

(* xs:decimal (3.2.3) also takes an exponent: [float_to_lexical] writes
   one for a DECIMAL value below 1e-4 or non-integral from 1e12, and a
   DECIMAL column of a derived table or a data service is read back
   from that text *)
let scan_decimal s = scan_float ~specials:false s
let scan_double s = scan_float ~specials:true s

(* xs:boolean (3.2.2), case-sensitive *)
let scan_boolean s =
  match collapse s with
  | "true" | "1" -> Some true
  | "false" | "0" -> Some false
  | _ -> None

let scanned what scan s =
  match scan s with
  | Some v -> v
  | None -> cast_error "cannot cast %S to %s" s what

let cast_integer = function
  | Integer i -> i
  | Decimal f | Double f -> int_of_float f
  | Untyped s | String s -> scanned "xs:integer" scan_integer s
  | Boolean b -> if b then 1 else 0
  | (Date _ | Time _ | Timestamp _) as v ->
    cast_error "cannot cast %s to xs:integer" (type_name v)

(* the casts to xs:double and xs:decimal differ only in the lexical
   space they read *)
let cast_float what scan = function
  | Integer i -> float_of_int i
  | Decimal f | Double f -> f
  | Untyped s | String s -> scanned what scan s
  | Boolean b -> if b then 1.0 else 0.0
  | (Date _ | Time _ | Timestamp _) as v ->
    cast_error "cannot cast %s to %s" (type_name v) what

let cast_double = cast_float "xs:double" scan_double
let cast_decimal = cast_float "xs:decimal" scan_decimal
let cast_string v = to_lexical v

let cast_boolean = function
  | Boolean b -> b
  | Integer i -> i <> 0
  | Decimal f | Double f -> f <> 0.0
  | Untyped s | String s -> scanned "xs:boolean" scan_boolean s
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

(* The xs: constructor functions, by name: the casts the translator
   emits (Sql_type.xquery_name) and both engines run. *)
let constructors =
  let integer a = Integer (cast_integer a) and double a = Double (cast_double a) in
  [ ("xs:string", fun a -> String (cast_string a));
    ("xs:integer", integer); ("xs:int", integer); ("xs:long", integer);
    ("xs:short", integer);
    ("xs:decimal", fun a -> Decimal (cast_decimal a));
    ("xs:double", double); ("xs:float", double);
    ("xs:boolean", fun a -> Boolean (cast_boolean a));
    ("xs:date", fun a -> Date (cast_date a));
    ("xs:time", fun a -> Time (cast_time a));
    ("xs:dateTime", fun a -> Timestamp (cast_timestamp a)) ]

let cast name = List.assoc name constructors

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
  | String x, String y -> String.compare x y
  | Boolean x, Boolean y -> Bool.compare x y
  | Date x, Date y -> compare_date x y
  | Time x, Time y -> compare_time x y
  | Timestamp x, Timestamp y -> compare_timestamp x y
  | Untyped x, Untyped y -> String.compare x y
  | Untyped x, String y -> String.compare x y
  | String x, Untyped y -> String.compare x y
  | (Integer _ | Decimal _ | Double _ | Untyped _), (Integer _ | Decimal _ | Double _)
  | (Integer _ | Decimal _ | Double _), Untyped _ ->
    Float.compare (cast_double a) (cast_double b)
  | Untyped _, (Boolean _ | Date _ | Time _ | Timestamp _) ->
    compare_values (cast (type_name b) a) b
  | (Boolean _ | Date _ | Time _ | Timestamp _), Untyped _ ->
    compare_values a (cast (type_name a) b)
  | Date _, Timestamp _ -> compare_timestamp (cast_timestamp a) (cast_timestamp b)
  | Timestamp _, Date _ -> compare_timestamp (cast_timestamp a) (cast_timestamp b)
  | _ ->
    cast_error "values of types %s and %s are not comparable" (type_name a)
      (type_name b)

let equal a b = try compare_values a b = 0 with Cast_error _ -> false

let hash_key = function
  | Integer i ->
    (* the key of the equal double, without the float round trip *)
    if Int.abs i < integer_digits_bound then "n" ^ string_of_int i
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
