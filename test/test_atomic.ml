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
  check_int "string to int" 42 (Atomic.cast_integer (Atomic.String " 42 "));
  check_int "untyped to int" 9 (Atomic.cast_integer (Atomic.Untyped "9"));
  check_bool "string to bool" true (Atomic.cast_boolean (Atomic.String "true"));
  check_bool "1 to bool" true (Atomic.cast_boolean (Atomic.Integer 1));
  Alcotest.(check (float 1e-9)) "int to double" 5.0
    (Atomic.cast_double (Atomic.Integer 5));
  (match Atomic.cast_integer (Atomic.String "zap") with
  | exception Atomic.Cast_error _ -> ()
  | _ -> Alcotest.fail "bad cast accepted");
  (match Atomic.cast_date (Atomic.Integer 3) with
  | exception Atomic.Cast_error _ -> ()
  | _ -> Alcotest.fail "int to date accepted")

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

let prop_hash_key_consistent =
  QCheck.Test.make ~name:"equal values have equal hash keys" ~count:200
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (a, b) ->
      let va = Atomic.Integer a and vb = Atomic.Double (float_of_int b) in
      (not (Atomic.equal va vb)) || Atomic.hash_key va = Atomic.hash_key vb)

let prop_date_roundtrip =
  QCheck.Test.make ~name:"date lexical round-trip" ~count:200
    QCheck.(triple (int_range 1 9999) (int_range 1 12) (int_range 1 28))
    (fun (year, month, day) ->
      let d = { Atomic.year; month; day } in
      Atomic.date_of_string (Atomic.date_to_string d) = d)

(* The float formatting [Atomic.float_to_lexical] replaced, kept as the
   reference: the same C routine reached through [Printf]. *)
let old_float_to_lexical f =
  if Float.is_integer f && Float.abs f < 1e15 then string_of_int (int_of_float f)
  else Printf.sprintf "%.12g" f

let float_edges =
  [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0; 1e15; -1e15;
    1e15 +. 1.; 999999999999999.; 0.1; -2.5; 1e-300; 4.9e-324;
    Float.min_float; Float.max_float; -.Float.max_float; 123456789012.345 ]

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
      Helpers.qcheck prop_add_int ] )
