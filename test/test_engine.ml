(* Baseline SQL engine semantics (the differential oracle itself needs
   its SQL-92 corner cases pinned down). *)

module Engine = Aqua_sqlengine.Engine
module Value = Aqua_relational.Value

let app () = Helpers.demo_app ()
let rows sql = Helpers.engine_rows (app ()) sql
let check_rows = Helpers.check_rows

let null_semantics () =
  (* customer 5 has NULL TIER: excluded both by TIER=1 and NOT(TIER=1) *)
  let with_pred = rows "SELECT CUSTOMERID FROM CUSTOMERS WHERE TIER = 1" in
  let with_not = rows "SELECT CUSTOMERID FROM CUSTOMERS WHERE NOT (TIER = 1)" in
  let all = rows "SELECT CUSTOMERID FROM CUSTOMERS" in
  Alcotest.(check bool) "3VL excludes unknown from both" true
    (List.length with_pred + List.length with_not < List.length all)

let not_in_with_nulls () =
  (* TIER has a NULL: x NOT IN (nullable set) can never be TRUE unless
     the set is empty *)
  check_rows "not in over a set with NULL" []
    (rows
       "SELECT CUSTOMERID FROM CUSTOMERS WHERE 99 NOT IN (SELECT TIER FROM CUSTOMERS)")

let aggregates_over_empty () =
  check_rows "count star" [ [ "0" ] ]
    (rows "SELECT COUNT(*) FROM CUSTOMERS WHERE CUSTOMERID > 1000");
  check_rows "sum is null" [ [ "NULL" ] ]
    (rows "SELECT SUM(TIER) FROM CUSTOMERS WHERE CUSTOMERID > 1000");
  check_rows "avg is null" [ [ "NULL" ] ]
    (rows "SELECT AVG(TIER) FROM CUSTOMERS WHERE CUSTOMERID > 1000");
  check_rows "min is null" [ [ "NULL" ] ]
    (rows "SELECT MIN(TIER) FROM CUSTOMERS WHERE CUSTOMERID > 1000")

let count_ignores_nulls () =
  (* TIER is NULL for customer 5 *)
  check_rows "count column vs count star" [ [ "6"; "5" ] ]
    (rows "SELECT COUNT(*), COUNT(TIER) FROM CUSTOMERS")

let group_by_null_key () =
  (* NULL city groups as its own group *)
  let groups = rows "SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY" in
  Alcotest.(check bool) "null group present" true
    (List.exists (fun r -> List.hd r = "NULL") groups)

let having_filters_groups () =
  check_rows "having" [ [ "Austin"; "2" ]; [ "Boston"; "2" ] ]
    (rows
       "SELECT CITY, COUNT(*) N FROM CUSTOMERS WHERE CITY IS NOT NULL GROUP \
        BY CITY HAVING COUNT(*) > 1 ORDER BY CITY")

let distinct_treats_nulls_equal () =
  let cities = rows "SELECT DISTINCT TIER FROM CUSTOMERS ORDER BY 1" in
  Alcotest.(check int) "one NULL row only" 4 (List.length cities)

let intersect_all_counts () =
  check_rows "intersect all multiplicity" [ [ "x" ]; [ "x" ] ]
    (Helpers.engine_rows (app ())
       "SELECT 'x' FROM CUSTOMERS WHERE CUSTOMERID <= 3 INTERSECT ALL SELECT 'x' FROM CUSTOMERS WHERE CUSTOMERID <= 2")

let except_all_counts () =
  check_rows "except all multiplicity" [ [ "x" ] ]
    (Helpers.engine_rows (app ())
       "SELECT 'x' FROM CUSTOMERS WHERE CUSTOMERID <= 3 EXCEPT ALL SELECT 'x' FROM CUSTOMERS WHERE CUSTOMERID <= 2")

let order_by_nulls_first () =
  let tiers = rows "SELECT TIER FROM CUSTOMERS ORDER BY TIER" in
  Alcotest.(check string) "null sorts first" "NULL" (List.hd (List.hd tiers))

let correlated_subquery () =
  check_rows "correlated count"
    [ [ "1"; "2" ]; [ "2"; "1" ]; [ "3"; "1" ]; [ "4"; "0" ]; [ "5"; "0" ]; [ "6"; "1" ] ]
    (rows
       "SELECT C.CUSTOMERID, (SELECT COUNT(*) FROM PAYMENTS P WHERE P.CUSTID \
        = C.CUSTOMERID) FROM CUSTOMERS C ORDER BY 1")

let scalar_subquery_cardinality () =
  match
    Helpers.engine_rows (app ())
      "SELECT (SELECT CUSTOMERID FROM CUSTOMERS) FROM CUSTOMERS"
  with
  | exception Value.Type_error _ -> ()
  | _ -> Alcotest.fail "scalar subquery with many rows accepted"

let prepared_parameters () =
  let env = Engine.env_of_application (app ()) in
  let stmt =
    Aqua_sql.Parser.parse "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?"
  in
  let rs = Engine.execute_with_params env stmt [| Value.Int 2 |] in
  Alcotest.(check int) "one row" 1 (List.length rs.Aqua_relational.Rowset.rows)

let division_by_zero () =
  match rows "SELECT CUSTOMERID / 0 FROM CUSTOMERS" with
  | exception Value.Type_error _ -> ()
  | _ -> Alcotest.fail "division by zero accepted"

let like_semantics () =
  check_rows "escape" [ [ "1" ] ]
    (Helpers.engine_rows (app ())
       "SELECT 1 FROM CUSTOMERS WHERE 'a%b' LIKE 'a!%b' ESCAPE '!' AND CUSTOMERID = 1");
  check_rows "underscore" [ [ "1" ] ]
    (Helpers.engine_rows (app ())
       "SELECT 1 FROM CUSTOMERS WHERE 'abc' LIKE 'a_c' AND CUSTOMERID = 1")

(* The SQL oracle shares no machinery with the XQuery engine it
   checks: a filtered query moves none of the compiled pipeline's
   batch counters. *)
let oracle_moves_no_batch_counters () =
  let module Telemetry = Aqua_core.Telemetry in
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) @@ fun () ->
  check_rows "filtered rows" [ [ "1" ] ]
    (rows "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID = 1");
  let m = Telemetry.snapshot () in
  Alcotest.(check int) "no batches" 0 m.Telemetry.batch_batches;
  Alcotest.(check int) "no batch rows" 0 m.Telemetry.batch_rows

(* A statement reads the table at the version its read view pinned:
   every reference of a statement pinned behind the newest version
   reads the pinned rows. *)
let pinned_statement () =
  let module Artifact = Aqua_dsp.Artifact in
  let module Table = Aqua_relational.Table in
  let module Schema = Aqua_relational.Schema in
  let module Sql_type = Aqua_relational.Sql_type in
  let app = Artifact.application "App" in
  let t =
    Table.create "T" [ Schema.column ~nullable:false "ID" Sql_type.Integer ]
  in
  List.iter (fun i -> Table.insert t [ Value.Int i ]) [ 1; 2; 3 ];
  ignore (Artifact.import_physical_table app ~project:"P" t);
  let env = Engine.env_of_application app in
  let at3 = Table.pin [ t ] in
  Table.insert t [ Value.Int 4 ];
  Table.insert t [ Value.Int 5 ];
  let query sql () =
    List.map
      (fun row -> List.map Value.to_display (Array.to_list row))
      (Engine.execute_sql env sql).Aqua_relational.Rowset.rows
  in
  let count_sum = query "SELECT COUNT(*), SUM(ID) FROM T" in
  check_rows "the newest version" [ [ "5"; "15" ] ] (count_sum ());
  check_rows "a statement pinned behind it" [ [ "3"; "6" ] ]
    (Table.within at3 count_sum);
  check_rows "a self-join pinned behind it" [ [ "3" ] ]
    (Table.within at3
       (query "SELECT COUNT(*) FROM T A, T B WHERE A.ID = B.ID"))

let suite =
  ( "engine",
    [ Helpers.case "3VL null semantics" null_semantics;
      Helpers.case "NOT IN with NULLs" not_in_with_nulls;
      Helpers.case "aggregates over empty input" aggregates_over_empty;
      Helpers.case "COUNT ignores NULLs" count_ignores_nulls;
      Helpers.case "GROUP BY groups NULL keys" group_by_null_key;
      Helpers.case "HAVING filters groups" having_filters_groups;
      Helpers.case "DISTINCT treats NULLs equal" distinct_treats_nulls_equal;
      Helpers.case "INTERSECT ALL multiplicity" intersect_all_counts;
      Helpers.case "EXCEPT ALL multiplicity" except_all_counts;
      Helpers.case "ORDER BY sorts NULLs first" order_by_nulls_first;
      Helpers.case "correlated subquery" correlated_subquery;
      Helpers.case "scalar subquery cardinality" scalar_subquery_cardinality;
      Helpers.case "prepared parameters" prepared_parameters;
      Helpers.case "division by zero" division_by_zero;
      Helpers.case "LIKE semantics" like_semantics;
      Helpers.case "the oracle moves no batch counters"
        oracle_moves_no_batch_counters;
      Helpers.case "a statement reads its pinned version"
        pinned_statement ] )
