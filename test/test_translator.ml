(* Translator stages: semantic validation errors, result schema
   computation, structural properties of the generated XQuery. *)

module Errors = Aqua_translator.Errors
module Outcol = Aqua_translator.Outcol
module Sql_type = Aqua_relational.Sql_type
module Translator = Aqua_translator.Translator
module Semantic = Aqua_translator.Semantic
module Generate = Aqua_translator.Generate
module X = Aqua_xquery.Ast

let app () = Helpers.demo_app ()

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_bool = Alcotest.(check bool)

(* Each statement's error as [Errors.to_string] prints it (kind,
   position, message), all raised by stage two: [Semantic.resolve]
   alone rejects every one of them. *)
let semantic_errors () =
  let a = app () in
  let env = Semantic.env_of_application a in
  List.iter
    (fun (sql, expected) ->
      match Semantic.resolve env (Aqua_sql.Parser.parse sql) with
      | _ -> Alcotest.failf "stage two accepted: %s" sql
      | exception Errors.Error e -> check_str sql expected (Errors.to_string e))
    [ ("SELECT * FROM NOPE",
       "unknown table at line 1, column 15: table NOPE does not exist");
      ("SELECT NOPE FROM CUSTOMERS",
       "unknown column at line 1, column 8: column NOPE does not exist");
      ("SELECT X.CUSTOMERID FROM CUSTOMERS C",
       "unknown column at line 1, column 8: column X.CUSTOMERID does not exist");
      ("SELECT CUSTOMERID FROM CUSTOMERS, PO_CUSTOMERS",
       "ambiguous column at line 1, column 8: column CUSTOMERID is ambiguous: \
        CUSTOMERS.CUSTOMERID, PO_CUSTOMERS.CUSTOMERID");
      (* ambiguity is reported in SQL order, also where the generated
         record puts a RIGHT JOIN's right side first *)
      ("SELECT CUSTOMERID FROM CUSTOMERS C RIGHT OUTER JOIN PO_CUSTOMERS P ON \
        C.CUSTOMERID = P.CUSTOMERID",
       "ambiguous column at line 1, column 8: column CUSTOMERID is ambiguous: \
        C.CUSTOMERID, P.CUSTOMERID");
      (* the paper's grouping example: SELECT EMPNO ... GROUP BY EMPNAME *)
      ("SELECT CUSTOMERID FROM CUSTOMERS GROUP BY CUSTOMERNAME",
       "grouping error at line 1, column 8: column CUSTOMERID must appear in \
        the GROUP BY clause or be used in an aggregate function (in SELECT)");
      ("SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY HAVING TIER > 1",
       "grouping error at line 1, column 59: column TIER must appear in the \
        GROUP BY clause or be used in an aggregate function (in HAVING)");
      ("SELECT * FROM CUSTOMERS WHERE COUNT(*) > 1",
       "grouping error: aggregate functions are not allowed in WHERE");
      ("SELECT CUSTOMERID FROM CUSTOMERS ORDER BY COUNT(*)",
       "grouping error: aggregate function COUNT outside a grouped query");
      ("SELECT SUM(COUNT(*)) FROM CUSTOMERS",
       "grouping error: aggregate function SUM takes an aggregate argument");
      ("SELECT * FROM CUSTOMERS C, CUSTOMERS C",
       "grouping error: duplicate table alias C in FROM");
      ("SELECT CITY FROM CUSTOMERS UNION SELECT CITY, TIER FROM CUSTOMERS",
       "type mismatch: set operation sides have different column counts (1 vs 2)");
      ("SELECT * FROM CUSTOMERS WHERE CUSTOMERNAME > 5",
       "type mismatch: cannot compare VARCHAR(40) with INTEGER");
      ("SELECT CUSTOMERNAME + 1 FROM CUSTOMERS",
       "type mismatch: arithmetic on non-numeric type VARCHAR(40)");
      (* every WHEN is checked as WHERE checks its condition *)
      ("SELECT CUSTOMERID, CASE WHEN CUSTOMERNAME > 5 THEN 1 ELSE 0 END FROM \
        CUSTOMERS",
       "type mismatch: cannot compare VARCHAR(40) with INTEGER");
      ("SELECT CUSTOMERID, CASE TIER WHEN 'x' THEN 1 ELSE 0 END FROM CUSTOMERS",
       "type mismatch: cannot compare INTEGER with VARCHAR");
      ("SELECT CUSTOMERID, CASE WHEN CUSTOMERNAME LIKE 3 THEN 1 ELSE 0 END FROM \
        CUSTOMERS",
       "type mismatch: LIKE applies to character types, not INTEGER");
      ("SELECT CUSTOMERID, CASE WHEN NOSUCH = 1 THEN 1 ELSE 0 END FROM CUSTOMERS",
       "unknown column at line 1, column 30: column NOSUCH does not exist");
      ("SELECT CUSTOMERID FROM CUSTOMERS ORDER BY 9",
       "unknown column: ORDER BY position 9 is out of range (1..1)");
      ("SELECT DISTINCT CITY FROM CUSTOMERS ORDER BY TIER",
       "unknown column: ORDER BY over a grouped or DISTINCT query must name an \
        output column or position");
      ("SELECT CITY FROM CUSTOMERS UNION SELECT CITY FROM CUSTOMERS ORDER BY \
        UPPER(CITY)",
       "unsupported construct: ORDER BY over a set operation must name an \
        output column or position");
      ("SELECT * FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT CUSTOMERID, TIER \
        FROM CUSTOMERS)",
       "cardinality error: a scalar subquery must return exactly one column, \
        this one returns 2");
      ("SELECT BOGUSFN(CUSTOMERID) FROM CUSTOMERS",
       "unsupported construct: unknown function BOGUSFN (supported: CONCAT, \
        UPPER, UCASE, LOWER, LCASE, LENGTH, CHAR_LENGTH, CHARACTER_LENGTH, \
        SUBSTRING, SUBSTR, POSITION, LOCATE, TRIM, LTRIM, RTRIM, ABS, FLOOR, \
        CEILING, CEIL, ROUND, MOD, EXTRACT_YEAR, EXTRACT_MONTH, EXTRACT_DAY, \
        EXTRACT_HOUR, EXTRACT_MINUTE, EXTRACT_SECOND, COALESCE, NULLIF)");
      (* correlation works, sibling derived tables must not see each other *)
      ("SELECT * FROM CUSTOMERS C, (SELECT CUSTOMERID FROM PO_CUSTOMERS WHERE \
        CUSTOMERID = C.CUSTOMERID) D",
       "unknown column at line 1, column 84: column C.CUSTOMERID does not exist") ]

let syntax_errors_carry_positions () =
  match Translator.translate (Semantic.env_of_application (app ())) "SELECT FROM" with
  | _ -> Alcotest.fail "expected syntax error"
  | exception Errors.Error e ->
    check_bool "kind" true (e.Errors.kind = Errors.Syntax);
    check_bool "position" true (e.Errors.pos <> None)

let result_schema () =
  let t = Helpers.translate (app ()) "SELECT CUSTOMERID ID, CITY FROM CUSTOMERS" in
  (match t.Translator.columns with
  | [ c1; c2 ] ->
    check_str "label 1" "ID" c1.Outcol.label;
    check_bool "type 1" true (c1.Outcol.ty = Sql_type.Integer);
    check_bool "not nullable" false c1.Outcol.nullable;
    check_str "label 2" "CITY" c2.Outcol.label;
    check_bool "nullable" true c2.Outcol.nullable
  | _ -> Alcotest.fail "expected two columns");
  (* outer join makes the inner side nullable *)
  let t2 =
    Helpers.translate (app ())
      "SELECT P.PAYMENT FROM CUSTOMERS C LEFT OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID"
  in
  (match t2.Translator.columns with
  | [ c ] -> check_bool "outer-join nullability" true c.Outcol.nullable
  | _ -> Alcotest.fail "expected one column");
  (* aggregates *)
  let t3 =
    Helpers.translate (app ())
      "SELECT COUNT(*) C, SUM(TIER) S, AVG(TIER) A FROM CUSTOMERS"
  in
  (match t3.Translator.columns with
  | [ c; s; a ] ->
    check_bool "count not null" false c.Outcol.nullable;
    check_bool "sum nullable" true s.Outcol.nullable;
    check_bool "avg nullable" true a.Outcol.nullable;
    check_bool "count integer" true (c.Outcol.ty = Sql_type.Integer)
  | _ -> Alcotest.fail "expected three columns");
  (* wildcard expansion covers all columns of all tables *)
  let t4 = Helpers.translate (app ()) "SELECT * FROM CUSTOMERS, PAYMENTS" in
  check_int "star arity" 8 (List.length t4.Translator.columns)

let structure_checks () =
  let text = Helpers.xquery_text (app ()) "SELECT * FROM CUSTOMERS" in
  Helpers.assert_contains ~needle:"import schema namespace ns0" text;
  Helpers.assert_contains ~needle:"ld:TestDataServices/CUSTOMERS" text;
  Helpers.assert_contains ~needle:"<RECORDSET>" text;
  Helpers.assert_contains ~needle:"for $var1FR0 in ns0:CUSTOMERS()" text;
  Helpers.assert_contains ~needle:"<RECORD>" text;
  Helpers.assert_contains ~needle:"fn:data($var1FR0/CUSTOMERID)" text;
  (* one import per distinct table even when referenced twice *)
  let text2 =
    Helpers.xquery_text (app ())
      "SELECT A.CUSTOMERID FROM CUSTOMERS A, CUSTOMERS B WHERE A.CUSTOMERID = B.CUSTOMERID"
  in
  check_bool "single import" false
    (Helpers.contains ~needle:"ns1" text2)

let literal_casts () =
  let text =
    Helpers.xquery_text (app ())
      "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID > 10"
  in
  Helpers.assert_contains ~needle:"xs:int(10)" text

let parameters_become_variables () =
  let text =
    Helpers.xquery_text (app ())
      "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = ? AND CUSTOMERNAME = ?"
  in
  Helpers.assert_contains ~needle:"$param1" text;
  Helpers.assert_contains ~needle:"$param2" text

let naive_vs_patterned () =
  let env = Semantic.env_of_application (app ()) in
  let sql = "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERNAME LIKE 'A%'" in
  let patterned =
    Aqua_xquery.Pretty.query_to_string
      (Translator.translate ~style:Generate.Patterned env sql).Translator.xquery
  in
  let naive =
    Aqua_xquery.Pretty.query_to_string
      (Translator.translate ~style:Generate.Naive env sql).Translator.xquery
  in
  Helpers.assert_contains ~needle:"fn:starts-with" patterned;
  Helpers.assert_contains ~needle:"fn-bea:like" naive;
  (* naive style guards even non-nullable columns *)
  Helpers.assert_contains ~needle:"fn:empty($var1FR0/CUSTOMERID)" naive

let order_by_inside_flwor () =
  let text =
    Helpers.xquery_text (app ())
      "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERID DESC"
  in
  Helpers.assert_contains ~needle:"order by" text;
  Helpers.assert_contains ~needle:"descending" text

let group_by_uses_bea_extension () =
  let text =
    Helpers.xquery_text (app ())
      "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY"
  in
  Helpers.assert_contains ~needle:"group $" text;
  Helpers.assert_contains ~needle:" by " text;
  Helpers.assert_contains ~needle:"fn:count($" text

let outer_join_pattern () =
  let text =
    Helpers.xquery_text (app ())
      "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS LEFT OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID"
  in
  (* the Example-10 shape: a let-bound RECORDSET and an emptiness test *)
  Helpers.assert_contains ~needle:"let $tempvar" text;
  Helpers.assert_contains ~needle:"fn:empty" text;
  Helpers.assert_contains ~needle:"CUSTOMERS.CUSTOMERID" text;
  Helpers.assert_contains ~needle:"PAYMENTS.PAYMENT" text

let explain_tree () =
  (* the Figure-3 query shape: three tables, an inner join, two
     subqueries, a union — plus the Figure-4 context numbering *)
  let env = Semantic.env_of_application (app ()) in
  let text =
    Aqua_translator.Explain.statement env
      (Aqua_sql.Parser.parse
         "SELECT INFO.ID FROM (SELECT CUSTOMERID ID FROM CUSTOMERS WHERE \
          TIER IN (SELECT TIER FROM CUSTOMERS)) AS INFO INNER JOIN PAYMENTS \
          ON INFO.ID = PAYMENTS.CUSTID UNION SELECT ORDERID FROM \
          PO_CUSTOMERS ORDER BY 1")
  in
  List.iter
    (fun needle -> Helpers.assert_contains ~needle text)
    [ "CTX0 (outermost scope)";
      "RSN set operation: UNION";
      "CTX1: query";
      "RSN join (INNER JOIN)";
      "RSN derived table AS INFO";
      "CTX2: query";
      "RSN subquery (in WHERE)";
      "CTX3: query";
      "RSN table PAYMENTS";
      "CTX4: query";
      "order by: 1" ]

let translate_result_api () =
  let env = Semantic.env_of_application (app ()) in
  (match Translator.translate_result env "SELECT * FROM CUSTOMERS" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "unexpected error %s" (Errors.to_string e));
  match Translator.translate_result env "SELECT * FROM NOPE" with
  | Ok _ -> Alcotest.fail "expected an error"
  | Error e -> check_bool "kind" true (e.Errors.kind = Errors.Unknown_table)

(* Stage two is total: whatever it accepts, stage three translates
   without an exception.  Statements come from the query generator's
   profiles, then one mutation makes them likely to break a name or
   ORDER BY rule: qualifiers dropped, the text lowercased, one column
   name swapped for another of the catalog's, or an ORDER BY added. *)
let stage_two_is_total =
  let a = app () in
  let env = Semantic.env_of_application a in
  let tables = Aqua_dsp.Metadata.list_tables a in
  let columns =
    Array.of_list
      (List.sort_uniq compare
         (List.concat_map
            (fun (t : Aqua_dsp.Metadata.table) ->
              List.map
                (fun (c : Aqua_relational.Schema.column) -> c.Aqua_relational.Schema.name)
                t.Aqua_dsp.Metadata.columns)
            tables))
  in
  let every_feature =
    { Aqua_workload.Querygen.max_joins = 3; allow_outer = true; allow_group = true;
      allow_subquery = true; allow_setop = true; allow_distinct = true }
  in
  let profiles =
    [| Aqua_workload.Querygen.default_profile;
       Aqua_workload.Querygen.reporting_profile; every_feature |]
  in
  let is_ident c =
    match c with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' -> true | _ -> false
  in
  (* "T0.CUSTOMERID" -> "CUSTOMERID"; numbers like 1.5 stay *)
  let drop_qualifiers sql =
    let b = Buffer.create (String.length sql) in
    let n = String.length sql in
    let rec go i =
      if i < n then
        if is_ident sql.[i] && (i = 0 || not (is_ident sql.[i - 1])) then begin
          let j = ref i in
          while !j < n && is_ident sql.[!j] do incr j done;
          let qualifier =
            !j + 1 < n && sql.[!j] = '.'
            && (match sql.[!j + 1] with 'A' .. 'Z' -> true | _ -> false)
            && not (match sql.[i] with '0' .. '9' -> true | _ -> false)
          in
          if not qualifier then Buffer.add_string b (String.sub sql i (!j - i));
          go (if qualifier then !j + 1 else !j)
        end
        else begin
          Buffer.add_char b sql.[i];
          go (i + 1)
        end
    in
    go 0;
    Buffer.contents b
  in
  let swap_column rand sql =
    let occurs c =
      let n = String.length c in
      let rec at i =
        i + n <= String.length sql && (String.sub sql i n = c || at (i + 1))
      in
      at 0
    in
    match List.filter occurs (Array.to_list columns) with
    | [] -> sql
    | present ->
      let c = List.nth present (Random.State.int rand (List.length present)) in
      let n = String.length c in
      let rec find i = if String.sub sql i n = c then i else find (i + 1) in
      let i = find 0 in
      String.sub sql 0 i
      ^ columns.(Random.State.int rand (Array.length columns))
      ^ String.sub sql (i + n) (String.length sql - i - n)
  in
  let gen rand =
    let profile = profiles.(Random.State.int rand (Array.length profiles)) in
    let sql = Aqua_workload.Querygen.generate_sql ~profile rand tables in
    match Random.State.int rand 5 with
    | 0 -> drop_qualifiers sql
    | 1 -> String.lowercase_ascii sql
    | 2 -> swap_column rand sql
    | 3 -> sql ^ " ORDER BY 1"
    | _ -> sql ^ " ORDER BY " ^ columns.(Random.State.int rand (Array.length columns))
  in
  QCheck.Test.make ~name:"stage two is total" ~count:600
    (QCheck.make ~print:Fun.id gen)
    (fun sql ->
      match Aqua_sql.Parser.parse_numbered sql with
      | exception Aqua_sql.Parser.Parse_error _ -> true
      | stmt, numbering -> (
        match Semantic.resolve env stmt with
        | exception Errors.Error _ -> true
        | resolved ->
          ignore (Generate.generate resolved);
          ignore (Generate.generate ~style:Generate.Naive resolved);
          ignore
            (Generate.generate_lifted
               ~literals:numbering.Aqua_sql.Parser.values resolved);
          true))

let suite =
  ( "translator",
    [ Helpers.case "semantic errors" semantic_errors;
      Helpers.case "syntax errors carry positions" syntax_errors_carry_positions;
      Helpers.case "result schema" result_schema;
      Helpers.case "structural checks" structure_checks;
      Helpers.case "literal casts" literal_casts;
      Helpers.case "parameters" parameters_become_variables;
      Helpers.case "naive vs patterned styles" naive_vs_patterned;
      Helpers.case "order by inside flwor" order_by_inside_flwor;
      Helpers.case "group-by uses BEA extension" group_by_uses_bea_extension;
      Helpers.case "outer join pattern" outer_join_pattern;
      Helpers.case "explain tree (figures 3-4)" explain_tree;
      Helpers.case "translate_result api" translate_result_api;
      Helpers.qcheck stage_two_is_total ] )
