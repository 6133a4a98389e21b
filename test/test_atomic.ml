(* Unit and property tests for the XQuery atomic value model. *)

module Atomic = Aqua_xml.Atomic

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let lexical_forms () =
  check_str "int" "42" (Atomic.to_lexical (Atomic.Integer 42));
  check_str "neg" "-7" (Atomic.to_lexical (Atomic.Integer (-7)));
  check_str "integral double" "5" (Atomic.to_lexical (Atomic.Double 5.0));
  check_str "decimal" "5.25" (Atomic.to_lexical (Atomic.Decimal 5.25));
  check_str "bool" "true" (Atomic.to_lexical (Atomic.Boolean true));
  check_str "string" "hi" (Atomic.to_lexical (Atomic.String "hi"));
  check_str "date" "2005-03-01"
    (Atomic.to_lexical (Atomic.Date { Atomic.year = 2005; month = 3; day = 1 }));
  check_str "dateTime" "2005-03-01T08:30:00"
    (Atomic.to_lexical
       (Atomic.Timestamp
          {
            Atomic.date = { Atomic.year = 2005; month = 3; day = 1 };
            time = { Atomic.hour = 8; minute = 30; second = 0 };
          }))

let date_parsing () =
  let d = Atomic.date_of_string "2004-12-31" in
  check_int "year" 2004 d.Atomic.year;
  check_int "month" 12 d.Atomic.month;
  check_int "day" 31 d.Atomic.day;
  Alcotest.check_raises "bad separator" (Atomic.Cast_error "invalid xs:date literal \"2004/12/31\"")
    (fun () -> ignore (Atomic.date_of_string "2004/12/31"));
  (match Atomic.date_of_string "2004-13-01" with
  | exception Atomic.Cast_error _ -> ()
  | _ -> Alcotest.fail "month 13 accepted");
  let ts = Atomic.timestamp_of_string "2004-06-15 10:20:30" in
  check_int "hour via space separator" 10 ts.Atomic.time.Atomic.hour

let casts () =
  let cast = Atomic.cast in
  Alcotest.(check bool) "string to int" true
    (cast "xs:integer" (Atomic.String " 42 ") = Atomic.Integer 42);
  Alcotest.(check bool) "untyped to int" true
    (cast "xs:int" (Atomic.Untyped "9") = Atomic.Integer 9);
  Alcotest.(check bool) "string to bool" true
    (cast "xs:boolean" (Atomic.String "true") = Atomic.Boolean true);
  Alcotest.(check bool) "1 to bool" true
    (cast "xs:boolean" (Atomic.Integer 1) = Atomic.Boolean true);
  Alcotest.(check (float 1e-9)) "int to double" 5.0
    (Atomic.cast_double (Atomic.Integer 5));
  (match cast "xs:integer" (Atomic.String "zap") with
  | exception Atomic.Cast_error _ -> ()
  | _ -> Alcotest.fail "bad cast accepted");
  (match cast "xs:date" (Atomic.Integer 3) with
  | exception Atomic.Cast_error _ -> ()
  | _ -> Alcotest.fail "int to date accepted");
  (* each target reads its own lexical space *)
  List.iter
    (fun (name, text) ->
      match cast name (Atomic.String text) with
      | exception Atomic.Cast_error _ -> ()
      | _ -> Alcotest.failf "%s accepted %S" name text)
    [ ("xs:int", "0x10"); ("xs:int", "1_6"); ("xs:int", "1.5");
      ("xs:double", "infinity"); ("xs:double", "nan");
      ("xs:decimal", "INF"); ("xs:decimal", "NaN"); ("xs:boolean", "TRUE") ];
  Alcotest.(check bool) "the printer's exponent reads as a decimal" true
    (cast "xs:decimal" (Atomic.Untyped (Atomic.float_to_lexical 7.55e-05))
    = Atomic.Decimal 7.55e-05);
  Alcotest.(check bool) "INF" true
    (cast "xs:double" (Atomic.String "INF") = Atomic.Double Float.infinity)

let comparisons () =
  let c = Atomic.compare_values in
  check_bool "int eq double" true (c (Atomic.Integer 2) (Atomic.Double 2.0) = 0);
  check_bool "int lt decimal" true (c (Atomic.Integer 2) (Atomic.Decimal 2.5) < 0);
  check_bool "untyped numeric coercion" true
    (c (Atomic.Untyped "10") (Atomic.Integer 9) > 0);
  check_bool "untyped vs untyped is string order" true
    (c (Atomic.Untyped "10") (Atomic.Untyped "9") < 0);
  check_bool "untyped vs string" true
    (c (Atomic.Untyped "abc") (Atomic.String "abd") < 0);
  check_bool "date vs timestamp" true
    (c
       (Atomic.Date { Atomic.year = 2005; month = 1; day = 2 })
       (Atomic.Timestamp
          {
            Atomic.date = { Atomic.year = 2005; month = 1; day = 2 };
            time = { Atomic.hour = 1; minute = 0; second = 0 };
          })
    < 0);
  (match c (Atomic.Integer 1) (Atomic.Date { Atomic.year = 2005; month = 1; day = 1 }) with
  | exception Atomic.Cast_error _ -> ()
  | _ -> Alcotest.fail "int vs date compared")

let equality_and_keys () =
  check_bool "equal across representations" true
    (Atomic.equal (Atomic.Integer 3) (Atomic.Decimal 3.0));
  check_bool "hash keys agree when equal" true
    (Atomic.hash_key (Atomic.Integer 3) = Atomic.hash_key (Atomic.Decimal 3.0));
  check_bool "incomparable unequal" false
    (Atomic.equal (Atomic.Integer 1) (Atomic.Date { Atomic.year = 2005; month = 1; day = 1 }))

(* property: comparison over integers matches OCaml's compare *)
let prop_int_order =
  QCheck.Test.make ~name:"atomic integer order matches int order" ~count:200
    QCheck.(pair int int)
    (fun (a, b) ->
      let c = Atomic.compare_values (Atomic.Integer a) (Atomic.Integer b) in
      compare a b = compare c 0 || (compare a b < 0) = (c < 0))

(* An int and a double have one key exactly when they are equal: pairs
   of small values, and pairs a few units apart anywhere below 2^53 in
   magnitude, where a [%.12g] key would merge distinct values. *)
let prop_hash_key_consistent =
  let exact = (1 lsl 53) - 1 in
  let near =
    QCheck.Gen.(
      map2
        (fun i d -> (i, max (-exact) (min exact (i + d))))
        (int_range (-exact) exact) (int_range (-2) 2))
  in
  QCheck.Test.make ~name:"equal values have equal hash keys" ~count:400
    QCheck.(
      oneof
        [ pair (int_bound 1000) (int_bound 1000);
          make ~print:Print.(pair int int) near ])
    (fun (a, b) ->
      let va = Atomic.Integer a and vb = Atomic.Double (float_of_int b) in
      Atomic.equal va vb = (Atomic.hash_key va = Atomic.hash_key vb))

let prop_date_roundtrip =
  QCheck.Test.make ~name:"date lexical round-trip" ~count:200
    QCheck.(triple (int_range 1 9999) (int_range 1 12) (int_range 1 28))
    (fun (year, month, day) ->
      let d = { Atomic.year; month; day } in
      Atomic.date_of_string (Atomic.date_to_string d) = d)

(* The float formatting [Atomic.float_to_lexical] replaced, kept as the
   reference: the same C routine reached through [Printf], with XSD's
   spellings of the special values and integer digits up to 1e18. *)
let old_float_to_lexical f =
  if Float.is_integer f && Float.abs f < 1e18 then string_of_int (int_of_float f)
  else if Float.is_nan f then "NaN"
  else if f = Float.infinity then "INF"
  else if f = Float.neg_infinity then "-INF"
  else Printf.sprintf "%.12g" f

let float_edges =
  [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 1e15; -1e15;
    1e15 +. 1.; 999999999999999.; 0.1; -2.5; 1e-300; 4.9e-324;
    Float.min_float; Float.max_float; -.Float.max_float; 123456789012.345;
    1e17 +. 8.; 999999999999999872.; 1e18; -1e18 ]

let float_lexical_edges () =
  List.iter
    (fun f ->
      check_str (Printf.sprintf "%h" f) (old_float_to_lexical f)
        (Atomic.float_to_lexical f))
    float_edges

let prop_float_lexical =
  QCheck.Test.make ~name:"float lexical form matches %.12g" ~count:2000
    QCheck.(
      make
        ~print:(Printf.sprintf "%h")
        Gen.(
          oneof
            [ float;
              map Int64.float_of_bits ui64;
              map (fun i -> float_of_int i /. 100.) int;
              map float_of_int (int_range (-1_000_000) 1_000_000) ]))
    (fun f -> Atomic.float_to_lexical f = old_float_to_lexical f)

(* ---------------------------------------------------------------- *)
(* Lexical spaces against XSD 1.0 Part 2's grammars                  *)

(* The reference recognizers, transcribed from the lexical
   representations of xs:boolean (3.2.2), xs:decimal (3.2.3),
   xs:double (3.2.5) and xs:integer (3.3.13), with the whitespace
   facet's collapse around the value.  Each regexp's classes are
   disjoint in sequence, so a greedy match is the longest one. *)
let ws = "[ \t\r\n]*"
let mantissa = "[+-]?\\([0-9]+\\(\\.[0-9]*\\)?\\|\\.[0-9]+\\)"

let xsd_integer = Str.regexp (ws ^ "[+-]?[0-9]+" ^ ws)
let exponent = "\\([eE][+-]?[0-9]+\\)?"

(* xs:decimal also reads the exponent the float printer writes *)
let xsd_decimal = Str.regexp (ws ^ mantissa ^ exponent ^ ws)

let xsd_double =
  Str.regexp
    (ws ^ "\\(" ^ mantissa ^ exponent ^ "\\|INF\\|-INF\\|NaN\\)" ^ ws)

let xsd_boolean = Str.regexp (ws ^ "\\(true\\|false\\|1\\|0\\)" ^ ws)

let in_space re s = Str.string_match re s 0 && Str.match_end () = String.length s

(* Valid forms (signs, bare dots, exponents, special values, blanks
   around) and near misses: other spellings OCaml's own readers take,
   and random texts over the same alphabet. *)
let lexical_text =
  let open QCheck.Gen in
  let blanks = oneofl [ ""; ""; " "; "\t"; "\n"; "\r\n "; "  " ] in
  let digits lo hi = string_size ~gen:numeral (int_range lo hi) in
  let number =
    let* sign = oneofl [ ""; ""; "+"; "-" ] in
    let* whole = digits 0 20 in
    let* point = oneofl [ ""; ""; "." ] in
    let* frac = if point = "" then return "" else digits 0 25 in
    let* exp =
      oneof
        [ return "";
          return "";
          map3 (fun e sg d -> e ^ sg ^ d) (oneofl [ "e"; "E" ])
            (oneofl [ ""; "+"; "-" ]) (digits 0 4) ]
    in
    return (sign ^ whole ^ point ^ frac ^ exp)
  in
  let word =
    oneofl
      [ "INF"; "-INF"; "NaN"; "+INF"; "inf"; "infinity"; "nan"; "-nan";
        "true"; "false"; "1"; "0"; "TRUE"; "True"; "FALSE"; "yes"; "0x10";
        "1_6"; "_1"; "1e+"; "+-1"; "."; "e5"; "1.2.3"; "0x1p3"; "1 2";
        "0b1"; "0o7"; "4611686018427387903"; "4611686018427387904";
        "-4611686018427387904"; "-4611686018427387905"; "" ]
  in
  let noise = string_size ~gen:(oneofl (List.init 20 (String.get "0123456789+-.eE xIN_"))) (int_range 0 8) in
  let* core = frequency [ (5, number); (3, word); (2, noise) ] in
  let* before = blanks and* after = blanks in
  return (before ^ core ^ after)

let arb_lexical = QCheck.make ~print:(Printf.sprintf "%S") lexical_text

let same_float a b =
  (Float.is_nan a && Float.is_nan b) || Int64.bits_of_float a = Int64.bits_of_float b

let prop_float_scanner name re scan =
  QCheck.Test.make ~name ~count:3000 arb_lexical (fun s ->
      match (in_space re s, scan s) with
      | true, Some f -> same_float f (float_of_string (String.trim s))
      | false, None -> true
      | true, None | false, Some _ -> false)

let prop_scan_integer =
  QCheck.Test.make ~name:"xs:integer scanner follows XSD 3.3.13" ~count:3000
    arb_lexical (fun s ->
      match (in_space xsd_integer s, Atomic.scan_integer s) with
      | true, r -> r = int_of_string_opt (String.trim s)
      | false, r -> r = None)

let prop_scan_decimal =
  prop_float_scanner "xs:decimal scanner follows XSD 3.2.3 and exponents"
    xsd_decimal
    Atomic.scan_decimal

let prop_scan_double =
  prop_float_scanner "xs:double scanner follows XSD 3.2.5" xsd_double
    Atomic.scan_double

let prop_scan_boolean =
  QCheck.Test.make ~name:"xs:boolean scanner follows XSD 3.2.2" ~count:3000
    arb_lexical (fun s ->
      match (in_space xsd_boolean s, Atomic.scan_boolean s) with
      | true, Some b -> b = List.mem (String.trim s) [ "true"; "1" ]
      | false, None -> true
      | true, None | false, Some _ -> false)

(* every text the printer writes reads back to the same double *)
let prop_print_scan_roundtrip =
  QCheck.Test.make ~name:"scan_double reads float_to_lexical" ~count:2000
    QCheck.(make ~print:(Printf.sprintf "%h") Gen.(oneof [ float; map Int64.float_of_bits ui64 ]))
    (fun f ->
      let text = Atomic.float_to_lexical f in
      match Atomic.scan_double text with
      | Some g -> same_float g (float_of_string text)
      | None -> false)

let add_int_of i =
  let buf = Buffer.create 8 in
  Buffer.add_string buf "x";
  Atomic.add_int buf i;
  Buffer.contents buf

let add_int_edges () =
  List.iter
    (fun i -> check_str (string_of_int i) ("x" ^ string_of_int i) (add_int_of i))
    [ min_int; min_int + 1; -10; -9; -1; 0; 1; 9; 10; 99; 100; max_int - 1; max_int ]

let prop_add_int =
  QCheck.Test.make ~name:"add_int appends string_of_int" ~count:2000
    QCheck.(oneof [ int; small_signed_int; int_range (-1000) 1000 ])
    (fun i -> add_int_of i = "x" ^ string_of_int i)

let suite =
  ( "atomic",
    [ Helpers.case "lexical forms" lexical_forms;
      Helpers.case "date parsing" date_parsing;
      Helpers.case "casts" casts;
      Helpers.case "comparisons" comparisons;
      Helpers.case "equality and hash keys" equality_and_keys;
      Helpers.qcheck prop_int_order;
      Helpers.qcheck prop_hash_key_consistent;
      Helpers.qcheck prop_date_roundtrip;
      Helpers.case "float lexical form at the edges" float_lexical_edges;
      Helpers.qcheck prop_float_lexical;
      Helpers.case "add_int at the edges" add_int_edges;
      Helpers.qcheck prop_add_int;
      Helpers.qcheck prop_scan_integer;
      Helpers.qcheck prop_scan_decimal;
      Helpers.qcheck prop_scan_double;
      Helpers.qcheck prop_scan_boolean;
      Helpers.qcheck prop_print_scan_roundtrip ] )
