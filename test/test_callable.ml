(* Callable statements: parameterized data-service functions exposed
   as stored procedures (paper Figure 2), plus logical services
   authored as XQuery text. *)

module Artifact = Aqua_dsp.Artifact
module Metadata = Aqua_dsp.Metadata
module Schema = Aqua_relational.Schema
module Sql_type = Aqua_relational.Sql_type
module Table = Aqua_relational.Table
module Value = Aqua_relational.Value
module Connection = Aqua_driver.Connection
module Callable = Aqua_driver.Callable
module Result_set = Aqua_driver.Result_set
module Errors = Aqua_translator.Errors

let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* demo catalog + a text-authored parameterized view over CUSTOMERS *)
let app_with_proc () =
  let app = Aqua_workload.Demo.build () in
  let body_text =
    "import schema namespace c = \"ld:TestDataServices/CUSTOMERS\" at \
     \"ld:TestDataServices/schemas/CUSTOMERS.xsd\";\n\
     for $r in c:CUSTOMERS() where $r/TIER = $p1 return $r"
  in
  ignore
    (Artifact.add_logical_service app ~project:"Procs" ~name:"CustomerViews"
       [ { Artifact.fn_name = "customersByTier";
           params =
             [ { Artifact.param_name = "tier"; param_type = Sql_type.Integer } ];
           element_name = "CUSTOMERS";
           columns =
             [ Schema.column ~nullable:false "CUSTOMERID" Sql_type.Integer;
               Schema.column ~nullable:false "CUSTOMERNAME"
                 (Sql_type.Varchar (Some 40));
               Schema.column "CITY" (Sql_type.Varchar (Some 30));
               Schema.column "TIER" Sql_type.Integer ];
           body = Artifact.logical_body_of_text body_text;
         } ]);
  app

let listed_as_procedure () =
  let app = app_with_proc () in
  let procs = Metadata.list_procedures app in
  check_int "one procedure" 1 (List.length procs);
  let meta, params = List.hd procs in
  check_str "name" "customersByTier" meta.Metadata.table;
  check_str "schema" "Procs/CustomerViews" meta.Metadata.schema;
  check_int "params" 1 (List.length params)

let call_roundtrip () =
  let app = app_with_proc () in
  let conn = Connection.connect app in
  let stmt = Callable.prepare conn "{call customersByTier(?)}" in
  check_int "parameter count" 1 (Callable.parameter_count stmt);
  Callable.set_int stmt 1 1;
  let rs = Callable.execute_query stmt in
  let rows = Result_set.to_rowset rs in
  (* demo catalog has two tier-1 customers *)
  check_int "tier 1 rows" 2 (List.length rows.Aqua_relational.Rowset.rows);
  (* rebind and re-execute *)
  Callable.set_int stmt 1 2;
  check_int "tier 2 rows" 2
    (List.length
       (Result_set.to_rowset (Callable.execute_query stmt))
         .Aqua_relational.Rowset.rows);
  (* decoded values are typed *)
  let rs3 =
    let s = Callable.prepare conn "CALL customersByTier(?)" in
    Callable.set_int s 1 3;
    Callable.execute_query s
  in
  Alcotest.(check bool) "cursor works" true (Result_set.next rs3);
  check_str "name column" "Zenith Parts and Service"
    (Option.get (Result_set.get_string rs3 2))

let call_errors () =
  let app = app_with_proc () in
  let conn = Connection.connect app in
  (* unknown procedure *)
  (match Callable.prepare conn "{call nope()}" with
  | exception Errors.Error e ->
    Alcotest.(check bool) "kind" true (e.Errors.kind = Errors.Unknown_table)
  | _ -> Alcotest.fail "unknown procedure accepted");
  (* wrong arity *)
  (match Callable.prepare conn "{call customersByTier(?, ?)}" with
  | exception Errors.Error e ->
    Alcotest.(check bool) "kind" true (e.Errors.kind = Errors.Cardinality)
  | _ -> Alcotest.fail "wrong arity accepted");
  (* bad syntax *)
  (match Callable.prepare conn "call customersByTier" with
  | exception Errors.Error _ -> ()
  | _ -> Alcotest.fail "missing parens accepted");
  (* a lexical error is positioned in the caller's text, braces and
     leading blanks included, as through [Connection.execute_query] *)
  List.iter
    (fun (src, col) ->
      match Callable.prepare conn src with
      | exception Errors.Error e ->
        Alcotest.(check bool) ("syntax error: " ^ src) true (e.Errors.kind = Errors.Syntax);
        Alcotest.(check (option (pair int int)))
          ("position of " ^ src)
          (Some (1, col))
          (Option.map (fun (p : Aqua_sql.Ast.pos) -> (p.line, p.col)) e.Errors.pos)
      | _ -> Alcotest.failf "accepted %s" src)
    [ ("CALL 1e+", 7); ("{ CALL @ }", 8); ("  CALL 'abc", 12) ];
  (* unbound parameter *)
  let stmt = Callable.prepare conn "{call customersByTier(?)}" in
  match Callable.execute_query stmt with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unbound parameter accepted"

let schema_qualified_call () =
  let app = app_with_proc () in
  let conn = Connection.connect app in
  let stmt =
    Callable.prepare conn "{call \"Procs/CustomerViews\".customersByTier(?)}"
  in
  Callable.set_int stmt 1 1;
  check_int "qualified call works" 2
    (List.length
       (Result_set.to_rowset (Callable.execute_query stmt))
         .Aqua_relational.Rowset.rows)

let text_authored_logical_service () =
  (* the text-authored view must also be usable as a plain TABLE when
     it has no parameters *)
  let app = Aqua_workload.Demo.build () in
  ignore
    (Artifact.add_logical_service app ~project:"Views" ~name:"BostonCustomers"
       [ { Artifact.fn_name = "BOSTON";
           params = [];
           element_name = "CUSTOMERS";
           columns =
             [ Schema.column ~nullable:false "CUSTOMERID" Sql_type.Integer;
               Schema.column ~nullable:false "CUSTOMERNAME"
                 (Sql_type.Varchar (Some 40)) ];
           body =
             Artifact.logical_body_of_text
               "import schema namespace c = \"ld:TestDataServices/CUSTOMERS\" \
                at \"ld:TestDataServices/schemas/CUSTOMERS.xsd\";\n\
                for $r in c:CUSTOMERS() where $r/CITY = \"Boston\" return \
                <CUSTOMERS><CUSTOMERID>{fn:data($r/CUSTOMERID)}</CUSTOMERID>\
                <CUSTOMERNAME>{fn:data($r/CUSTOMERNAME)}</CUSTOMERNAME>\
                </CUSTOMERS>";
         } ]);
  let rows =
    Helpers.driver_rows app "SELECT CUSTOMERNAME FROM BOSTON ORDER BY 1"
  in
  Helpers.check_rows "logical view rows" [ [ "Joe" ]; [ "Supermart" ] ] rows

let suite =
  ( "callable",
    [ Helpers.case "listed as procedure" listed_as_procedure;
      Helpers.case "call round-trip" call_roundtrip;
      Helpers.case "call errors" call_errors;
      Helpers.case "schema-qualified call" schema_qualified_call;
      Helpers.case "text-authored logical service" text_authored_logical_service ] )
