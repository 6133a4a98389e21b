(* XQuery interpreter semantics. *)

module X = Aqua_xquery.Ast
module Eval = Aqua_xqeval.Eval
module Compile = Aqua_xqeval.Compile
module Error = Aqua_xqeval.Error
module Functions = Aqua_xqeval.Functions
module Item = Aqua_xml.Item
module Atomic = Aqua_xml.Atomic
module Node = Aqua_xml.Node

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let ctx () = Eval.context ()

(* Interprets [e], and requires the compiled engine (over the
   optimized plan) to agree: the same sequence, or an error — at
   compile time or at run time — wherever the interpreter raises one.
   The interpreter's outcome is returned or re-raised. *)
let run e =
  let compiled =
    match Compile.run (Compile.compile_expr e) with
    | seq -> Ok seq
    | exception x -> Error (Printexc.to_string x)
  in
  match Eval.eval (ctx ()) e with
  | seq ->
    (match compiled with
    | Ok c
      when List.length c = List.length seq && List.for_all2 Item.equal c seq ->
      ()
    | Ok c ->
      Alcotest.failf "compiler disagrees with the interpreter on %s: %s vs %s"
        (Aqua_xquery.Pretty.expr_to_string e)
        (Format.asprintf "%a" Item.pp_sequence c)
        (Format.asprintf "%a" Item.pp_sequence seq)
    | Error x ->
      Alcotest.failf "compiler raised %s where the interpreter returned %s" x
        (Format.asprintf "%a" Item.pp_sequence seq));
    seq
  | exception x ->
    (match compiled with
    | Error _ -> ()
    | Ok c ->
      Alcotest.failf "compiler returned %s where the interpreter raised %s"
        (Format.asprintf "%a" Item.pp_sequence c)
        (Printexc.to_string x));
    raise x

let int_result e =
  match run e with
  | [ Item.Atomic (Atomic.Integer i) ] -> i
  | seq ->
    Alcotest.failf "expected one integer, got %s"
      (Format.asprintf "%a" Item.pp_sequence seq)

let seq_lexicals e =
  List.map Atomic.to_lexical (Item.atomize (run e))

let arithmetic () =
  check_int "add" 5 (int_result (X.Binop (X.B_arith X.Add, X.int 2, X.int 3)));
  check_int "mul" 6 (int_result (X.Binop (X.B_arith X.Mul, X.int 2, X.int 3)));
  (* integer div yields a decimal *)
  (match run (X.Binop (X.B_arith X.Div, X.int 7, X.int 2)) with
  | [ Item.Atomic (Atomic.Decimal f) ] -> Alcotest.(check (float 1e-9)) "div" 3.5 f
  | _ -> Alcotest.fail "expected decimal");
  check_int "idiv" 3 (int_result (X.Binop (X.B_arith X.Idiv, X.int 7, X.int 2)));
  check_int "mod" 1 (int_result (X.Binop (X.B_arith X.Mod, X.int 7, X.int 2)));
  (* empty propagates *)
  check_bool "empty + 1 = empty" true
    (run (X.Binop (X.B_arith X.Add, X.empty_seq, X.int 1)) = []);
  (* untyped casts to double *)
  (match run (X.Binop (X.B_arith X.Add, X.Literal (Atomic.Untyped "2.5"), X.int 1)) with
  | [ Item.Atomic a ] -> Alcotest.(check (float 1e-9)) "untyped arith" 3.5 (Atomic.cast_double a)
  | _ -> Alcotest.fail "expected a number");
  (match run (X.Binop (X.B_arith X.Div, X.int 1, X.int 0)) with
  | exception Error.Dynamic_error _ -> ()
  | _ -> Alcotest.fail "division by zero accepted")

let comparisons () =
  let t e = Item.effective_boolean_value (run e) in
  check_bool "general eq" true (t (X.Binop (X.B_general X.Eq, X.int 1, X.int 1)));
  check_bool "general lt" true (t (X.Binop (X.B_general X.Lt, X.int 1, X.int 2)));
  (* existential semantics *)
  check_bool "existential" true
    (t (X.Binop (X.B_general X.Eq, X.int 2, X.Seq [ X.int 1; X.int 2 ])));
  check_bool "empty comparison is false" false
    (t (X.Binop (X.B_general X.Eq, X.empty_seq, X.int 1)));
  (* value comparison returns empty on empty *)
  check_bool "value cmp on empty" true
    (run (X.Binop (X.B_value X.Eq, X.empty_seq, X.int 1)) = [])

let paths_and_predicates () =
  let doc =
    X.Literal (Atomic.Integer 0)
    (* placeholder, replaced below *)
  in
  ignore doc;
  let row name v =
    Node.element "ROW" [ Node.element name [ Node.text v ] ]
  in
  let ctx =
    Eval.bind (ctx ()) "rows"
      [ Item.Node (row "A" "1"); Item.Node (row "A" "2"); Item.Node (row "B" "3") ]
  in
  let path steps = X.Path (X.var "rows", List.map (fun name -> { X.name; predicates = [] }) steps) in
  check_int "child count"
    2
    (List.length (Eval.eval ctx (path [ "A" ])));
  (* positional predicate *)
  let first =
    X.Filter (X.var "rows", X.int 1)
  in
  check_int "positional filter" 1 (List.length (Eval.eval ctx first));
  (* boolean predicate with context item *)
  let with_a =
    X.Filter
      ( X.var "rows",
        X.call "fn:exists" [ X.Path (X.Context_item, [ { X.name = "A"; predicates = [] } ]) ] )
  in
  check_int "boolean filter" 2 (List.length (Eval.eval ctx with_a));
  (* wildcard *)
  check_int "wildcard" 3 (List.length (Eval.eval ctx (path [ "*" ])))

let construction () =
  (* adjacent atomics are joined with spaces in element content *)
  let e =
    X.Elem { name = "E"; content = [ X.Seq [ X.int 1; X.int 2 ]; X.Text "x" ] }
  in
  match run e with
  | [ Item.Node n ] -> check_str "content" "1 2x" (Node.string_value n)
  | _ -> Alcotest.fail "expected one node"

let flwor_basics () =
  let ctx = Eval.bind (ctx ()) "xs" (List.map Item.atomic [ Atomic.Integer 1; Atomic.Integer 2; Atomic.Integer 3 ]) in
  let flwor =
    X.Flwor
      {
        X.clauses =
          [ X.For { var = "x"; source = X.var "xs" };
            X.Where (X.Binop (X.B_general X.Gt, X.var "x", X.int 1));
            X.Let { var = "y"; value = X.Binop (X.B_arith X.Mul, X.var "x", X.int 10) } ];
        X.return = X.var "y";
      }
  in
  Alcotest.(check (list string)) "for/where/let" [ "20"; "30" ]
    (List.map Atomic.to_lexical (Item.atomize (Eval.eval ctx flwor)))

let flwor_order_by () =
  let ctx = Eval.bind (ctx ()) "xs" (List.map Item.atomic [ Atomic.Integer 2; Atomic.Integer 1; Atomic.Integer 3 ]) in
  let sorted descending =
    X.Flwor
      {
        X.clauses =
          [ X.For { var = "x"; source = X.var "xs" };
            X.Order_by [ { X.key = X.var "x"; descending; empty = X.Empty_least } ] ];
        X.return = X.var "x";
      }
  in
  Alcotest.(check (list string)) "ascending" [ "1"; "2"; "3" ]
    (List.map Atomic.to_lexical (Item.atomize (Eval.eval ctx (sorted false))));
  Alcotest.(check (list string)) "descending" [ "3"; "2"; "1" ]
    (List.map Atomic.to_lexical (Item.atomize (Eval.eval ctx (sorted true))))

let flwor_order_empty () =
  let ctx =
    Eval.bind (ctx ()) "rows"
      [ Item.Node (Node.element "R" [ Node.element "V" [ Node.text "5" ] ]);
        Item.Node (Node.element "R" []) ]
  in
  let q =
    X.Flwor
      {
        X.clauses =
          [ X.For { var = "r"; source = X.var "rows" };
            X.Order_by
              [ { X.key = X.path1 (X.var "r") "V";
                  descending = false;
                  empty = X.Empty_least } ] ];
        X.return = X.call "fn:count" [ X.path1 (X.var "r") "V" ];
      }
  in
  Alcotest.(check (list string)) "empty sorts first" [ "0"; "1" ]
    (List.map Atomic.to_lexical (Item.atomize (Eval.eval ctx q)))

let group_by_extension () =
  let row k v =
    Item.Node
      (Node.element "R"
         [ Node.element "K" [ Node.text k ]; Node.element "V" [ Node.text v ] ])
  in
  let ctx = Eval.bind (ctx ()) "rows" [ row "a" "1"; row "b" "2"; row "a" "3" ] in
  let q =
    X.Flwor
      {
        X.clauses =
          [ X.For { var = "r"; source = X.var "rows" };
            X.Group
              {
                grouped = "r";
                partition = "p";
                keys = [ (X.call "fn:data" [ X.path1 (X.var "r") "K" ], "k") ];
              } ];
        X.return =
          X.call "fn:concat"
            [ X.var "k";
              X.str ":";
              X.call "fn:string"
                [ X.call "fn:count" [ X.var "p" ] ] ];
      }
  in
  Alcotest.(check (list string)) "groups in first-seen order" [ "a:2"; "b:1" ]
    (List.map Atomic.to_lexical (Item.atomize (Eval.eval ctx q)))

let group_preserves_outer_bindings () =
  let ctx = Eval.bind (ctx ()) "outer" (Item.of_int 99) in
  let ctx = Eval.bind ctx "xs" (List.map Item.atomic [ Atomic.Integer 1; Atomic.Integer 1 ]) in
  let q =
    X.Flwor
      {
        X.clauses =
          [ X.For { var = "x"; source = X.var "xs" };
            X.Group { grouped = "x"; partition = "p"; keys = [ (X.var "x", "k") ] } ];
        X.return = X.var "outer";
      }
  in
  Alcotest.(check (list string)) "outer visible after group" [ "99" ]
    (List.map Atomic.to_lexical (Item.atomize (Eval.eval ctx q)))

let quantifiers () =
  let t e = Item.effective_boolean_value (run e) in
  let xs = X.Seq [ X.int 1; X.int 2; X.int 3 ] in
  check_bool "some" true
    (t (X.Quantified { every = false; bindings = [ ("x", xs) ];
                       satisfies = X.Binop (X.B_general X.Gt, X.var "x", X.int 2) }));
  check_bool "every false" false
    (t (X.Quantified { every = true; bindings = [ ("x", xs) ];
                       satisfies = X.Binop (X.B_general X.Gt, X.var "x", X.int 2) }));
  check_bool "every over empty" true
    (t (X.Quantified { every = true; bindings = [ ("x", X.empty_seq) ];
                       satisfies = X.call "fn:false" [] }))

let function_library () =
  check_str "string-join"
    "a,b"
    (Item.string_value (run (X.call "fn:string-join" [ X.Seq [ X.str "a"; X.str "b" ]; X.str "," ])));
  check_str "substring" "bcd"
    (Item.string_value (run (X.call "fn:substring" [ X.str "abcde"; X.int 2; X.int 3 ])));
  check_str "concat" "xy"
    (Item.string_value (run (X.call "fn:concat" [ X.str "x"; X.str "y" ])));
  check_int "count" 2 (int_result (X.call "fn:count" [ X.Seq [ X.int 1; X.int 2 ] ]));
  check_int "sum" 6 (int_result (X.call "fn:sum" [ X.Seq [ X.int 1; X.int 2; X.int 3 ] ]));
  check_int "sum of empty is 0" 0 (int_result (X.call "fn:sum" [ X.empty_seq ]));
  check_bool "avg of empty is empty" true (run (X.call "fn:avg" [ X.empty_seq ]) = []);
  (* min/max cast untyped to double per F&O *)
  check_str "max over untyped" "10"
    (Item.string_value
       (run (X.call "fn:max" [ X.Seq [ X.Literal (Atomic.Untyped "9"); X.Literal (Atomic.Untyped "10") ] ])));
  Alcotest.(check (list string)) "distinct-values" [ "1"; "2" ]
    (seq_lexicals (X.call "fn:distinct-values" [ X.Seq [ X.int 1; X.int 2; X.int 1 ] ]));
  Alcotest.(check (list string)) "subsequence" [ "2"; "3" ]
    (seq_lexicals (X.call "fn:subsequence" [ X.Seq [ X.int 1; X.int 2; X.int 3 ]; X.int 2; X.int 2 ]));
  check_bool "like %" true
    (Item.effective_boolean_value (run (X.call "fn-bea:like" [ X.str "hello"; X.str "h%o" ])));
  check_bool "like _" false
    (Item.effective_boolean_value (run (X.call "fn-bea:like" [ X.str "hello"; X.str "h_o" ])));
  check_str "if-empty default" "d"
    (Item.string_value (run (X.call "fn-bea:if-empty" [ X.empty_seq; X.str "d" ])));
  check_str "xml-escape" "a&amp;b&lt;c&gt;"
    (Item.string_value (run (X.call "fn-bea:xml-escape" [ X.str "a&b<c>" ])));
  check_str "serialize-atomic" "42"
    (Item.string_value (run (X.call "fn-bea:serialize-atomic" [ X.int 42 ])));
  check_bool "unknown function" true
    (match run (X.call "fn:bogus" []) with
    | exception Error.Dynamic_error _ -> true
    | _ -> false);
  check_bool "registry lists names" true
    (List.mem "fn:string-join" (Functions.names ()))

let casts_in_queries () =
  check_int "xs:integer" 7 (int_result (X.call "xs:integer" [ X.str "7" ]));
  check_bool "cast of empty is empty" true (run (X.call "xs:integer" [ X.empty_seq ]) = []);
  (match run (X.call "xs:integer" [ X.str "x" ]) with
  | exception Error.Dynamic_error _ -> ()
  | _ -> Alcotest.fail "bad cast accepted")

let if_and_ebv () =
  check_int "then" 1 (int_result (X.If (X.call "fn:true" [], X.int 1, X.int 2)));
  check_int "else" 2 (int_result (X.If (X.empty_seq, X.int 1, X.int 2)));
  (match run (X.If (X.Seq [ X.int 1; X.int 2 ], X.int 1, X.int 2)) with
  | exception Atomic.Cast_error _ -> ()
  | _ -> Alcotest.fail "multi-atomic EBV accepted")

let undefined_variable () =
  match run (X.var "nope") with
  | exception Error.Dynamic_error _ -> ()
  | _ -> Alcotest.fail "undefined variable accepted"

(* properties pinning the aggregate and ordering semantics to OCaml
   reference implementations *)
let prop_sum_matches =
  QCheck.Test.make ~name:"fn:sum matches list sum" ~count:200
    QCheck.(list (int_range (-1000) 1000))
    (fun xs ->
      let seq = X.Seq (List.map X.int xs) in
      match run (X.call "fn:sum" [ seq ]) with
      | [ Item.Atomic (Atomic.Integer total) ] ->
        total = List.fold_left ( + ) 0 xs
      | _ -> false)

let prop_minmax_matches =
  QCheck.Test.make ~name:"fn:min/fn:max match list extrema" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 20) (int_range (-1000) 1000))
    (fun xs ->
      let seq = X.Seq (List.map X.int xs) in
      let got name =
        match run (X.call name [ seq ]) with
        | [ Item.Atomic (Atomic.Integer v) ] -> v
        | _ -> max_int
      in
      got "fn:min" = List.fold_left min (List.hd xs) xs
      && got "fn:max" = List.fold_left max (List.hd xs) xs)

let prop_order_by_sorts =
  QCheck.Test.make ~name:"flwor order by sorts" ~count:200
    QCheck.(list (int_range (-100) 100))
    (fun xs ->
      let q =
        X.Flwor
          {
            X.clauses =
              [ X.For { var = "x"; source = X.Seq (List.map X.int xs) };
                X.Order_by
                  [ { X.key = X.var "x"; descending = false;
                      empty = X.Empty_least } ] ];
            X.return = X.var "x";
          }
      in
      let got =
        List.map
          (function
            | Item.Atomic (Atomic.Integer i) -> i
            | _ -> max_int)
          (run q)
      in
      got = List.sort compare xs)

let prop_distinct_values =
  QCheck.Test.make ~name:"fn:distinct-values keeps one of each" ~count:200
    QCheck.(list (int_range 0 20))
    (fun xs ->
      let got =
        List.length (run (X.call "fn:distinct-values" [ X.Seq (List.map X.int xs) ]))
      in
      got = List.length (List.sort_uniq compare xs))

let suite =
  ( "xqeval",
    [ Helpers.case "arithmetic" arithmetic;
      Helpers.case "comparisons" comparisons;
      Helpers.case "paths and predicates" paths_and_predicates;
      Helpers.case "construction" construction;
      Helpers.case "flwor basics" flwor_basics;
      Helpers.case "order by" flwor_order_by;
      Helpers.case "order by with empty" flwor_order_empty;
      Helpers.case "group-by extension" group_by_extension;
      Helpers.case "group preserves outer bindings" group_preserves_outer_bindings;
      Helpers.case "quantifiers" quantifiers;
      Helpers.case "function library" function_library;
      Helpers.case "casts" casts_in_queries;
      Helpers.case "if and ebv" if_and_ebv;
      Helpers.case "undefined variable" undefined_variable;
      Helpers.qcheck prop_sum_matches;
      Helpers.qcheck prop_minmax_matches;
      Helpers.qcheck prop_order_by_sorts;
      Helpers.qcheck prop_distinct_values ] )
