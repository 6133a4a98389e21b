(* The correctness heart of the reproduction: every SQL statement,
   executed through translate -> DSP server -> result transport, must
   return the same multiset of rows as the baseline SQL engine
   (DESIGN.md section 3).  A fixed battery pins down every feature
   class; a qcheck property sweeps randomly generated statements. *)

module Connection = Aqua_driver.Connection
module Rowset = Aqua_relational.Rowset
module Engine = Aqua_sqlengine.Engine

let battery =
  [ (* projections and predicates *)
    "SELECT * FROM CUSTOMERS";
    "SELECT CUSTOMERS.* FROM CUSTOMERS";
    "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID > 2";
    "SELECT DISTINCT CITY FROM CUSTOMERS";
    "SELECT DISTINCT CITY, TIER FROM CUSTOMERS";
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE CITY IS NULL";
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE CITY IS NOT NULL";
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE NOT (TIER = 1)";
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE NOT (TIER = 1 OR CITY = 'Austin')";
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE NOT (TIER IS NULL)";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID BETWEEN 2 AND 4";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID NOT BETWEEN 2 AND 4";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CITY IN ('Austin', 'Boston')";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CITY NOT IN ('Austin', 'Boston')";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CITY LIKE '%o%'";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CITY NOT LIKE 'A%'";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERNAME LIKE '%a_t%'";
    (* arithmetic, functions, case, cast *)
    "SELECT CUSTOMERID * 2 + 1 D FROM CUSTOMERS";
    "SELECT -CUSTOMERID N FROM CUSTOMERS";
    "SELECT CUSTOMERID / 4 Q FROM CUSTOMERS";
    "SELECT UPPER(CITY) U, LOWER(CUSTOMERNAME) L FROM CUSTOMERS";
    "SELECT LENGTH(CUSTOMERNAME) L FROM CUSTOMERS";
    "SELECT SUBSTRING(CUSTOMERNAME FROM 2 FOR 4) S FROM CUSTOMERS";
    "SELECT POSITION('e' IN CUSTOMERNAME) P FROM CUSTOMERS";
    "SELECT TRIM(CUSTOMERNAME) T FROM CUSTOMERS";
    "SELECT ABS(TIER - 2) A FROM CUSTOMERS WHERE TIER IS NOT NULL";
    "SELECT MOD(CUSTOMERID, 3) M FROM CUSTOMERS";
    "SELECT CUSTOMERNAME || '!' E FROM CUSTOMERS";
    "SELECT CITY || CUSTOMERNAME X FROM CUSTOMERS";
    "SELECT COALESCE(CITY, 'none') C FROM CUSTOMERS";
    "SELECT NULLIF(CITY, 'Austin') C FROM CUSTOMERS";
    "SELECT CASE WHEN TIER = 1 THEN 'g' WHEN TIER = 2 THEN 's' ELSE 'b' END T FROM CUSTOMERS";
    "SELECT CASE TIER WHEN 1 THEN 'g' END T FROM CUSTOMERS";
    "SELECT CAST(CUSTOMERID AS VARCHAR(10)) S FROM CUSTOMERS";
    "SELECT CAST(TIER AS DOUBLE PRECISION) D FROM CUSTOMERS";
    "SELECT EXTRACT(YEAR FROM PAYDATE) Y, EXTRACT(MONTH FROM PAYDATE) M FROM PAYMENTS";
    "SELECT PAYMENTID FROM PAYMENTS WHERE PAYDATE > DATE '2005-02-01'";
    (* joins *)
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P WHERE C.CUSTOMERID = P.CUSTID";
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C INNER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID";
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C LEFT OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID";
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C RIGHT OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID";
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C FULL OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID AND P.PAYMENT > 100";
    "SELECT * FROM CUSTOMERS C CROSS JOIN PAYMENTS P";
    "SELECT X.CUSTOMERNAME, Y.ORDERID, Z.PAYMENT FROM CUSTOMERS X INNER JOIN PO_CUSTOMERS Y ON X.CUSTOMERID = Y.CUSTOMERID LEFT OUTER JOIN PAYMENTS Z ON X.CUSTOMERID = Z.CUSTID";
    "SELECT A.CUSTOMERID FROM CUSTOMERS A INNER JOIN CUSTOMERS B ON A.CUSTOMERID = B.CUSTOMERID";
    "SELECT C.CUSTOMERNAME FROM CUSTOMERS C LEFT OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID WHERE P.PAYMENT IS NULL";
    "SELECT * FROM (CUSTOMERS C INNER JOIN PO_CUSTOMERS O ON C.CUSTOMERID = O.CUSTOMERID) LEFT OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID";
    (* grouping *)
    "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY";
    "SELECT CITY, COUNT(TIER) N FROM CUSTOMERS GROUP BY CITY";
    "SELECT CITY, SUM(TIER) S, MIN(CUSTOMERID) MN, MAX(CUSTOMERID) MX, AVG(TIER) A FROM CUSTOMERS GROUP BY CITY";
    "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY HAVING COUNT(*) > 1";
    "SELECT TIER, CITY, COUNT(*) N FROM CUSTOMERS GROUP BY TIER, CITY";
    "SELECT COUNT(*) FROM CUSTOMERS";
    "SELECT COUNT(*), SUM(TIER), AVG(TIER), MIN(CITY), MAX(CITY) FROM CUSTOMERS";
    "SELECT COUNT(*) FROM CUSTOMERS WHERE CUSTOMERID > 999";
    "SELECT SUM(TIER) FROM CUSTOMERS WHERE CUSTOMERID > 999";
    "SELECT COUNT(DISTINCT CITY) FROM CUSTOMERS";
    "SELECT SUM(DISTINCT TIER) FROM CUSTOMERS";
    "SELECT C.CITY, COUNT(*) N, SUM(P.PAYMENT) T FROM CUSTOMERS C INNER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID GROUP BY C.CITY";
    "SELECT SUM(CUSTOMERID + TIER) S FROM CUSTOMERS";
    "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY HAVING MIN(CUSTOMERID) > 1";
    (* subqueries *)
    "SELECT INFO.ID FROM (SELECT CUSTOMERID ID FROM CUSTOMERS) AS INFO WHERE INFO.ID > 3";
    "SELECT T.CITY, T.N FROM (SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY) AS T WHERE T.N > 1";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT CUSTOMERID FROM PO_CUSTOMERS)";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID NOT IN (SELECT CUSTOMERID FROM PO_CUSTOMERS)";
    "SELECT CUSTOMERNAME FROM CUSTOMERS C WHERE EXISTS (SELECT 1 FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID AND P.PAYMENT > 100)";
    "SELECT CUSTOMERNAME FROM CUSTOMERS C WHERE NOT EXISTS (SELECT 1 FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID)";
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE TIER >= ALL (SELECT TIER FROM CUSTOMERS WHERE TIER IS NOT NULL)";
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE TIER < ANY (SELECT TIER FROM CUSTOMERS WHERE CITY = 'Boston')";
    "SELECT (SELECT COUNT(*) FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID) NPAY FROM CUSTOMERS C";
    "SELECT CUSTOMERID FROM CUSTOMERS C WHERE (SELECT COUNT(*) FROM PO_CUSTOMERS O WHERE O.CUSTOMERID = C.CUSTOMERID) > 1";
    (* set operations *)
    "SELECT CITY FROM CUSTOMERS WHERE TIER = 1 UNION SELECT CITY FROM CUSTOMERS WHERE TIER = 2";
    "SELECT CITY FROM CUSTOMERS UNION ALL SELECT CITY FROM CUSTOMERS";
    "SELECT CITY FROM CUSTOMERS WHERE TIER = 1 INTERSECT SELECT CITY FROM CUSTOMERS WHERE TIER = 2";
    "SELECT CITY FROM CUSTOMERS EXCEPT SELECT CITY FROM CUSTOMERS WHERE TIER = 1";
    "SELECT CITY FROM CUSTOMERS INTERSECT ALL SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID > 1";
    "SELECT CITY FROM CUSTOMERS EXCEPT ALL SELECT CITY FROM CUSTOMERS WHERE CUSTOMERID > 3";
    "SELECT TIER FROM CUSTOMERS UNION SELECT TIER FROM CUSTOMERS";
    "SELECT CUSTOMERID, CITY FROM CUSTOMERS WHERE TIER = 1 UNION SELECT CUSTOMERID, CITY FROM CUSTOMERS WHERE CITY = 'Austin'";
    (* every function-map entry in one sweep *)
    "SELECT CONCAT(CUSTOMERNAME, 'x') A, UCASE(CUSTOMERNAME) B, LCASE(CUSTOMERNAME) C FROM CUSTOMERS";
    "SELECT CHAR_LENGTH(CUSTOMERNAME) A, CHARACTER_LENGTH(CUSTOMERNAME) B FROM CUSTOMERS";
    "SELECT SUBSTR(CUSTOMERNAME, 3) A, SUBSTRING(CUSTOMERNAME, 2, 2) B FROM CUSTOMERS";
    "SELECT LOCATE('e', CUSTOMERNAME) A, POSITION('e' IN CUSTOMERNAME) B FROM CUSTOMERS";
    "SELECT LTRIM(CUSTOMERNAME) A, RTRIM(CUSTOMERNAME) B, TRIM(CUSTOMERNAME) C FROM CUSTOMERS";
    "SELECT ABS(TIER - 2) A FROM CUSTOMERS";
    "SELECT FLOOR(PAYMENT) B, CEILING(PAYMENT) C, CEIL(PAYMENT) D, ROUND(PAYMENT) E FROM PAYMENTS";
    "SELECT MOD(CUSTOMERID, 4) A FROM CUSTOMERS";
    "SELECT EXTRACT(YEAR FROM PAYDATE) A, EXTRACT(MONTH FROM PAYDATE) B, EXTRACT(DAY FROM PAYDATE) C FROM PAYMENTS";
    "SELECT COALESCE(CITY, CUSTOMERNAME, 'zz') A, NULLIF(TIER, 1) B FROM CUSTOMERS";
    (* implicit single group + having; aggregates in odd spots *)
    "SELECT COUNT(*) FROM CUSTOMERS HAVING COUNT(*) > 0";
    "SELECT SUM(TIER) FROM CUSTOMERS HAVING COUNT(*) > 100";
    "SELECT CITY FROM CUSTOMERS GROUP BY CITY HAVING SUM(TIER) IS NOT NULL";
    "SELECT CITY, MAX(CUSTOMERNAME) M FROM CUSTOMERS GROUP BY CITY HAVING MAX(CUSTOMERNAME) LIKE '%s%'";
    "SELECT TIER, COUNT(*) N FROM CUSTOMERS GROUP BY TIER HAVING TIER IS NULL OR COUNT(*) > 1";
    (* row value constructors (desugared by the parser) *)
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE (CITY, TIER) = ('Austin', 2)";
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE (CUSTOMERID, TIER) < (4, 2)";
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE (CITY, TIER) IN (('Austin', 2), ('Boston', 1))";
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE (CITY, TIER) NOT IN (('Austin', 2))";
    (* order by *)
    (* deeper nesting and mixed shapes *)
    "SELECT A.X FROM (SELECT B.Y X FROM (SELECT CUSTOMERID Y FROM CUSTOMERS WHERE TIER = 1) AS B) AS A";
    "SELECT D.CITY, D.N FROM (SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY) AS D INNER JOIN CUSTOMERS C ON D.CITY = C.CITY WHERE C.TIER = 2";
    "SELECT C.CUSTOMERNAME FROM CUSTOMERS C WHERE C.CUSTOMERID IN (SELECT P.CUSTID FROM PAYMENTS P WHERE P.PAYMENT > (SELECT AVG(PAYMENT) FROM PAYMENTS))";
    "SELECT C.CUSTOMERNAME, (SELECT MAX(P.PAYMENT) FROM PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID) MAXPAY FROM CUSTOMERS C WHERE C.TIER IS NOT NULL";
    "SELECT X.CITY FROM CUSTOMERS X CROSS JOIN PO_CUSTOMERS Y WHERE X.CUSTOMERID = Y.CUSTOMERID AND Y.AMOUNT > 50";
    "SELECT L.CUSTOMERNAME, R.CUSTOMERNAME FROM CUSTOMERS L INNER JOIN CUSTOMERS R ON L.TIER = R.TIER WHERE L.CUSTOMERID < R.CUSTOMERID";
    "SELECT C.CUSTOMERNAME FROM CUSTOMERS C LEFT OUTER JOIN (SELECT CUSTID FROM PAYMENTS WHERE PAYMENT > 500) BIG ON C.CUSTOMERID = BIG.CUSTID WHERE BIG.CUSTID IS NOT NULL";
    "SELECT T.S FROM (SELECT CITY || '!' S FROM CUSTOMERS WHERE CITY IS NOT NULL) AS T WHERE T.S LIKE 'A%'";
    "SELECT COUNT(*) FROM (SELECT DISTINCT CITY, TIER FROM CUSTOMERS) AS D";
    "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY HAVING COUNT(*) >= ALL (SELECT COUNT(*) FROM PAYMENTS WHERE PAYMENT < 0)";
    "SELECT C.CITY FROM CUSTOMERS C GROUP BY C.CITY HAVING SUM(C.TIER) > 1 AND COUNT(TIER) < 5";
    "SELECT CASE WHEN CITY IS NULL THEN 'none' ELSE CITY END C, COUNT(*) FROM CUSTOMERS GROUP BY CITY";
    "SELECT CUSTOMERID, CASE WHEN TIER > 1 AND CITY LIKE '%o%' THEN 'x' END T FROM CUSTOMERS";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE (TIER = 1 OR TIER = 2) AND NOT (CITY = 'Austin' AND TIER = 2)";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE NOT (CUSTOMERID NOT IN (1, 2, 3))";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE NOT (CUSTOMERNAME NOT LIKE '%a%')";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE NOT (TIER IS NOT NULL)";
    "SELECT P1.PAYMENTID FROM PAYMENTS P1 WHERE P1.PAYMENT <> ALL (SELECT P2.PAYMENT FROM PAYMENTS P2 WHERE P2.PAYMENTID <> P1.PAYMENTID)";
    "SELECT CITY FROM CUSTOMERS WHERE TIER = 1 UNION ALL SELECT CITY FROM CUSTOMERS WHERE TIER = 2 UNION SELECT CITY FROM CUSTOMERS WHERE TIER = 3";
    "SELECT CITY FROM CUSTOMERS EXCEPT (SELECT CITY FROM CUSTOMERS WHERE TIER = 1 INTERSECT SELECT CITY FROM CUSTOMERS WHERE TIER = 2)";
    "SELECT CUSTOMERID + TIER S FROM CUSTOMERS WHERE CUSTOMERID + TIER > 4";
    "SELECT -SUM(TIER) NEG FROM CUSTOMERS WHERE TIER IS NOT NULL";
    "SELECT SUBSTRING(CUSTOMERNAME, 2) TAIL FROM CUSTOMERS";
    "SELECT LENGTH(CITY || CUSTOMERNAME) L FROM CUSTOMERS WHERE CITY IS NOT NULL";
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE MOD(CUSTOMERID, 2) = 0 AND CUSTOMERID BETWEEN 1 AND 100";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERNAME LIKE '%a!%%' ESCAPE '!'";
    "SELECT CUSTOMERNAME, TIER FROM CUSTOMERS ORDER BY TIER DESC, CUSTOMERNAME";
    "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY 1 DESC";
    "SELECT CUSTOMERID + 0 S FROM CUSTOMERS ORDER BY CUSTOMERID DESC";
    "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY LENGTH(CUSTOMERNAME), CUSTOMERNAME";
    "SELECT DISTINCT CITY FROM CUSTOMERS ORDER BY CITY DESC";
    "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY ORDER BY N DESC, CITY";
    "SELECT CITY FROM CUSTOMERS UNION SELECT CITY FROM CUSTOMERS ORDER BY 1";
    (* a set operation promotes a numeric column over both sides *)
    "SELECT CUSTOMERID FROM CUSTOMERS UNION SELECT PAYMENT FROM PAYMENTS";
    "SELECT * FROM (SELECT CUSTOMERID X FROM CUSTOMERS UNION SELECT PAYMENT FROM PAYMENTS) D WHERE D.X > 75";
    "SELECT PAYMENT FROM PAYMENTS EXCEPT SELECT CUSTOMERID FROM CUSTOMERS";
    "SELECT TIER FROM CUSTOMERS ORDER BY TIER";
    (* a DECIMAL column of a derived table is read back from the text
       the float printer wrote, exponents included *)
    "SELECT D.X FROM (SELECT PAYMENT / 1000000 X FROM PAYMENTS) D WHERE D.X > 0";
    (* the oracle casts and compares through the driver's atomics *)
    "SELECT CUSTOMERID FROM CUSTOMERS WHERE DATE '2005-01-01' < TIMESTAMP '2005-01-01 10:00:00'";
    "SELECT CAST(CAST(1 AS BOOLEAN) AS DOUBLE) FROM CUSTOMERS WHERE CUSTOMERID < 2";
    (* qualified column keys over grouped/distinct queries resolve to
       their output columns *)
    "SELECT C.CITY, SUM(P.PAYMENT) T FROM CUSTOMERS C LEFT OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID GROUP BY C.CITY ORDER BY C.CITY";
    "SELECT DISTINCT C.CITY FROM CUSTOMERS C ORDER BY C.CITY DESC";
    "SELECT C.TIER, COUNT(*) N FROM CUSTOMERS C WHERE C.TIER IS NOT NULL GROUP BY C.TIER ORDER BY C.TIER DESC, N" ]

let sort_keys_of (stmt : Aqua_sql.Ast.statement) cols =
  (* indexes of ORDER BY keys that map to output columns *)
  List.filter_map
    (fun (o : Aqua_sql.Ast.order_item) ->
      match o.Aqua_sql.Ast.key with
      | Aqua_sql.Ast.Ord_position i -> Some (i - 1)
      | Aqua_sql.Ast.Ord_expr (Aqua_sql.Ast.Column { qualifier = None; name; _ }) ->
        let rec go i = function
          | [] -> None
          | (c : Aqua_relational.Schema.column) :: rest ->
            if String.uppercase_ascii c.Aqua_relational.Schema.name
               = String.uppercase_ascii name
            then Some i
            else go (i + 1) rest
        in
        go 0 cols
      | Aqua_sql.Ast.Ord_expr _ -> None)
    stmt.Aqua_sql.Ast.order_by

let run_one app engine_env conn sql =
  let via_driver =
    Aqua_driver.Result_set.to_rowset (Connection.execute_query conn sql)
  in
  let direct = Engine.execute_sql engine_env sql in
  (match Rowset.diff_summary direct via_driver with
  | None -> ()
  | Some msg ->
    Alcotest.failf "mismatch on %s: %s\n-- engine:\n%s\n-- driver:\n%s" sql msg
      (Rowset.to_string direct)
      (Rowset.to_string via_driver));
  (* when ORDER BY keys are output columns, check the ordering too *)
  let stmt = Aqua_sql.Parser.parse sql in
  let keys = sort_keys_of stmt direct.Rowset.schema in
  if keys <> [] && not (Rowset.sorted_under_order_by ~keys direct via_driver)
  then
    Alcotest.failf "ordering mismatch on %s\n-- engine:\n%s\n-- driver:\n%s" sql
      (Rowset.to_string direct)
      (Rowset.to_string via_driver);
  ignore app

let battery_case transport () =
  let app = Helpers.demo_app () in
  let engine_env = Engine.env_of_application app in
  let conn = Connection.connect ~transport app in
  List.iter (run_one app engine_env conn) battery

(* --------------------------------------------------------------- *)
(* Randomized differential sweep                                    *)

let random_app = lazy (
  Aqua_workload.Datagen.application
    { Aqua_workload.Datagen.customers = 12; orders = 25; lines_per_order = 2;
      payments = 18 })

let prop_differential =
  let app = Lazy.force random_app in
  let tables = Aqua_dsp.Metadata.list_tables app in
  let engine_env = Engine.env_of_application app in
  let conn = Connection.connect ~transport:Connection.Text app in
  QCheck.Test.make ~name:"random statements agree with the oracle" ~count:250
    QCheck.(
      make
        (fun rand -> Aqua_workload.Querygen.generate rand tables)
        ~print:Aqua_sql.Pretty.statement_to_string)
    (fun stmt ->
      let sql = Aqua_sql.Pretty.statement_to_string stmt in
      let via_driver =
        Aqua_driver.Result_set.to_rowset (Connection.execute_query conn sql)
      in
      let direct = Engine.execute_sql engine_env sql in
      match Rowset.diff_summary direct via_driver with
      | None ->
        let keys = sort_keys_of stmt direct.Rowset.schema in
        keys = [] || Rowset.sorted_under_order_by ~keys direct via_driver
      | Some msg ->
        QCheck.Test.fail_reportf "%s\non: %s\n-- engine:\n%s\n-- driver:\n%s"
          msg sql
          (Rowset.to_string direct)
          (Rowset.to_string via_driver))

let prop_differential_reporting =
  let app = Lazy.force random_app in
  let tables = Aqua_dsp.Metadata.list_tables app in
  let engine_env = Engine.env_of_application app in
  let conn = Connection.connect ~transport:Connection.Xml app in
  QCheck.Test.make ~name:"reporting workload agrees (XML transport)" ~count:100
    QCheck.(
      make
        (fun rand ->
          Aqua_workload.Querygen.generate
            ~profile:Aqua_workload.Querygen.reporting_profile rand tables)
        ~print:Aqua_sql.Pretty.statement_to_string)
    (fun stmt ->
      let sql = Aqua_sql.Pretty.statement_to_string stmt in
      let via_driver =
        Aqua_driver.Result_set.to_rowset (Connection.execute_query conn sql)
      in
      let direct = Engine.execute_sql engine_env sql in
      Rowset.diff_summary direct via_driver = None)

let naive_style_agrees () =
  (* the naive emission style must stay correct (it is the ablation
     baseline of bench P5) *)
  let app = Helpers.demo_app () in
  let env = Aqua_translator.Semantic.env_of_application app in
  let srv = Aqua_dsp.Server.create app in
  let engine_env = Engine.env_of_application app in
  List.iter
    (fun sql ->
      let t =
        Aqua_translator.Translator.translate
          ~style:Aqua_translator.Generate.Naive env sql
      in
      let rs =
        Aqua_driver.Result_set.of_xml_sequence t.Aqua_translator.Translator.columns
          (Aqua_dsp.Server.execute srv t.Aqua_translator.Translator.xquery)
      in
      let via = Aqua_driver.Result_set.to_rowset rs in
      let direct = Engine.execute_sql engine_env sql in
      match Rowset.diff_summary direct via with
      | None -> ()
      | Some msg -> Alcotest.failf "naive style mismatch on %s: %s" sql msg)
    [ "SELECT * FROM CUSTOMERS WHERE CITY LIKE 'A%'";
      "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY";
      "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C LEFT OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID" ]

(* Known oracle divergence: a subquery the driver never evaluates.
   With CUSTOMERID < 0 no outer row reaches the subquery, so both XQuery
   engines return no rows, while the SQL engine evaluates the subquery
   anyway and fails (38000: more than one row, a division by zero).
   Hoisting uncorrelated subqueries out of the outer FLWOR must decide
   whether this stays so; until then the divergence is pinned here. *)
let never_reached_subqueries () =
  let app = Helpers.demo_app () in
  let engine_env = Engine.env_of_application app in
  List.iter
    (fun sql ->
      List.iter
        (fun optimize ->
          let conn = Connection.connect ~optimize app in
          let rows =
            Aqua_driver.Result_set.to_rowset (Connection.execute_query conn sql)
          in
          Alcotest.(check int)
            (Printf.sprintf "no rows (optimize=%b): %s" optimize sql)
            0 (List.length rows.Rowset.rows))
        [ true; false ];
      match Engine.execute_sql engine_env sql with
      | _ -> Alcotest.failf "the SQL engine answered: %s" sql
      | exception e ->
        Alcotest.(check string)
          ("the SQL engine fails: " ^ sql)
          "38000"
          (Aqua_driver.Sql_error.classify e).Aqua_resilience.Sqlstate.sqlstate)
    [ "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID < 0 AND TIER = \
       (SELECT TIER FROM CUSTOMERS)";
      "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID < 0 AND TIER IN \
       (SELECT 1 / 0 FROM CUSTOMERS)" ]

(* CAST reads its target's XSD lexical space, and a double prints and
   keys as its integer digits below 1e18: the compiled engine, the
   interpreter and the SQL oracle agree on both transports. *)
let lexical_space_statements () =
  let app = Helpers.demo_app () in
  let engine_env = Engine.env_of_application app in
  let q select where = Printf.sprintf "SELECT %s FROM CUSTOMERS WHERE %s" select where in
  let cast text ty = q (Printf.sprintf "CAST('%s' AS %s)" text ty) "CUSTOMERID < 2" in
  let outcome run =
    match run () with
    | (rs : Rowset.t) ->
      Ok (List.sort compare (List.map (fun r -> Aqua_relational.Value.to_display r.(0)) rs.Rowset.rows))
    | exception e ->
      Error (Aqua_driver.Sql_error.classify e).Aqua_resilience.Sqlstate.sqlstate
  in
  let show = function
    | Ok rows -> "rows " ^ String.concat "," rows
    | Error code -> "[" ^ code ^ "]"
  in
  List.iter
    (fun (sql, expected) ->
      let check who got =
        Alcotest.(check string) (who ^ ": " ^ sql) (show expected) (show got)
      in
      check "SQL engine" (outcome (fun () -> Engine.execute_sql engine_env sql));
      List.iter
        (fun (transport, optimize) ->
          let conn = Connection.connect ~transport ~optimize app in
          check
            (Printf.sprintf "driver (%s, optimize=%b)"
               (if transport = Connection.Text then "text" else "xml") optimize)
            (outcome (fun () ->
                 Aqua_driver.Result_set.to_rowset (Connection.execute_query conn sql))))
        [ (Connection.Text, true); (Connection.Text, false);
          (Connection.Xml, true); (Connection.Xml, false) ])
    [ (cast "0x10" "INTEGER", Error "38000");
      (cast "1_6" "INTEGER", Error "38000");
      (cast "infinity" "DOUBLE", Error "38000");
      (cast "1.5" "INTEGER", Error "38000");
      (cast "TRUE" "BOOLEAN", Error "38000");
      (cast "INF" "DECIMAL(10,2)", Error "38000");
      (cast "1e3" "DECIMAL(10,2)", Ok [ "1000" ]);
      (cast "INF" "DOUBLE", Ok [ "INF" ]);
      (cast " 1.5e3 " "DOUBLE", Ok [ "1500" ]);
      (cast "+.5" "DECIMAL(10,2)", Ok [ "0.5" ]);
      (cast "1" "BOOLEAN", Ok [ "true" ]);
      ( q "CUSTOMERID + 1000000000000000" "CUSTOMERID < 3",
        Ok [ "1000000000000001"; "1000000000000002" ] );
      ( "SELECT DISTINCT CUSTOMERID + 1000000000000000.0 FROM CUSTOMERS \
         WHERE CUSTOMERID < 4",
        Ok [ "1000000000000001"; "1000000000000002"; "1000000000000003" ] ) ]

let suite =
  ( "differential",
    [ Helpers.case "battery via text transport" (battery_case Connection.Text);
      Helpers.case "battery via xml transport" (battery_case Connection.Xml);
      Helpers.case "naive style agrees" naive_style_agrees;
      Helpers.case "casts read the XSD lexical spaces" lexical_space_statements;
      Helpers.case "never-reached subqueries (known divergence)"
        never_reached_subqueries;
      Helpers.qcheck prop_differential;
      Helpers.qcheck prop_differential_reporting ] )
