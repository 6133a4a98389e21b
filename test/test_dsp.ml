(* Data Services Platform substrate: artifacts, metadata API, cache,
   server execution, logical services. *)

module Artifact = Aqua_dsp.Artifact
module Metadata = Aqua_dsp.Metadata
module Server = Aqua_dsp.Server
module Schema = Aqua_relational.Schema
module Sql_type = Aqua_relational.Sql_type
module Table = Aqua_relational.Table
module Value = Aqua_relational.Value
module X = Aqua_xquery.Ast
module Item = Aqua_xml.Item

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let small_table name =
  let t =
    Table.create name
      [ Schema.column ~nullable:false "ID" Sql_type.Integer;
        Schema.column "NAME" (Sql_type.Varchar (Some 20)) ]
  in
  Table.insert t [ Value.Int 1; Value.Str "one" ];
  Table.insert t [ Value.Int 2; Value.Null ];
  t

let artifact_mapping () =
  let app = Artifact.application "App1" in
  let ds = Artifact.import_physical_table app ~project:"Proj" (small_table "T1") in
  check_str "namespace" "ld:Proj/T1" (Artifact.namespace_of_service ds);
  check_str "schema location" "ld:Proj/schemas/T1.xsd"
    (Artifact.schema_location_of_service ds);
  check_str "sql schema (Figure 2)" "Proj/T1" (Artifact.sql_schema_of_service ds);
  check_bool "find by namespace" true
    (Artifact.find_service_by_namespace app "ld:Proj/T1" = Some ds);
  (* duplicate registration rejected *)
  (match Artifact.import_physical_table app ~project:"Proj" (small_table "T1") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate service accepted");
  Helpers.assert_contains ~needle:"external" (Artifact.ds_file_text ds)

let metadata_lookup () =
  let app = Artifact.application "App2" in
  ignore (Artifact.import_physical_table app ~project:"P1" (small_table "T"));
  ignore (Artifact.import_physical_table app ~project:"P2" (small_table "T"));
  (* unqualified is ambiguous across projects *)
  (match Metadata.lookup app "T" with
  | Error (Metadata.Ambiguous_table _) -> ()
  | _ -> Alcotest.fail "expected ambiguity");
  (* schema-qualified resolves *)
  (match Metadata.lookup app ~schema:"P1/T" "T" with
  | Ok m -> check_str "schema" "P1/T" m.Metadata.schema
  | Error _ -> Alcotest.fail "qualified lookup failed");
  (match Metadata.lookup app "NOPE" with
  | Error (Metadata.Table_not_found _) -> ()
  | _ -> Alcotest.fail "expected not found");
  (* catalog mismatch *)
  (match Metadata.lookup app ~catalog:"Other" "T" with
  | Error (Metadata.Table_not_found _) -> ()
  | _ -> Alcotest.fail "expected catalog mismatch");
  check_int "list_tables" 2 (List.length (Metadata.list_tables app))

let wire_roundtrip () =
  let app = Artifact.application "App3" in
  ignore (Artifact.import_physical_table app ~project:"P" (small_table "W"));
  match Metadata.lookup app "W" with
  | Error _ -> Alcotest.fail "lookup failed"
  | Ok m ->
    let back = Metadata.of_wire (Metadata.to_wire m) in
    check_str "table" m.Metadata.table back.Metadata.table;
    check_str "namespace" m.Metadata.namespace back.Metadata.namespace;
    check_int "columns" 2 (List.length back.Metadata.columns);
    check_bool "nullability preserved" true
      ((List.nth back.Metadata.columns 1).Schema.nullable)

let cache_behaviour () =
  let app = Artifact.application "App4" in
  ignore (Artifact.import_physical_table app ~project:"P" (small_table "C"));
  let cache = Metadata.Cache.create app in
  ignore (Metadata.Cache.lookup cache "C");
  ignore (Metadata.Cache.lookup cache "C");
  check_int "one miss" 1 (Metadata.Cache.misses cache);
  check_int "one hit" 1 (Metadata.Cache.hits cache);
  Metadata.Cache.clear cache;
  ignore (Metadata.Cache.lookup cache "C");
  check_int "miss after clear" 2 (Metadata.Cache.misses cache)

let physical_execution () =
  let app = Artifact.application "App5" in
  let ds = Artifact.import_physical_table app ~project:"P" (small_table "E") in
  let srv = Server.create app in
  let q =
    {
      X.prolog =
        {
          X.imports =
            [ {
                X.prefix = "ns0";
                namespace = Artifact.namespace_of_service ds;
                location = Artifact.schema_location_of_service ds;
              } ];
        };
      body = X.call "ns0:E" [];
    }
  in
  let items = Server.execute srv q in
  check_int "two rows" 2 (List.length items);
  (* absent element for NULL *)
  let xml = Server.execute_to_xml srv q in
  check_bool "null column is absent, not empty" false
    (Helpers.contains ~needle:"<NAME/>" xml)

let logical_service () =
  let app = Artifact.application "App6" in
  let ds = Artifact.import_physical_table app ~project:"P" (small_table "BASE") in
  let imports =
    [ {
        X.prefix = "b";
        namespace = Artifact.namespace_of_service ds;
        location = Artifact.schema_location_of_service ds;
      } ]
  in
  (* a logical view exposing only rows with a NAME *)
  let body =
    X.Flwor
      {
        X.clauses =
          [ X.For { var = "r"; source = X.call "b:BASE" [] };
            X.Where (X.call "fn:exists" [ X.path1 (X.var "r") "NAME" ]) ];
        X.return = X.var "r";
      }
  in
  ignore
    (Artifact.add_logical_service app ~project:"P" ~name:"NAMED"
       [ {
           Artifact.fn_name = "NAMED";
           params = [];
           element_name = "BASE";
           columns =
             [ Schema.column ~nullable:false "ID" Sql_type.Integer;
               Schema.column "NAME" (Sql_type.Varchar (Some 20)) ];
           body = Artifact.Logical { imports; body };
         } ]);
  let srv = Server.create app in
  let q =
    {
      X.prolog =
        {
          X.imports =
            [ { X.prefix = "v"; namespace = "ld:P/NAMED"; location = "ld:P/schemas/NAMED.xsd" } ];
        };
      body = X.call "v:NAMED" [];
    }
  in
  check_int "filtered rows" 1 (List.length (Server.execute srv q))

let parameterized_function () =
  let app = Artifact.application "App7" in
  let table = small_table "PT" in
  let ds = Artifact.import_physical_table app ~project:"P" table in
  let imports =
    [ {
        X.prefix = "b";
        namespace = Artifact.namespace_of_service ds;
        location = Artifact.schema_location_of_service ds;
      } ]
  in
  (* getById($p1) *)
  let body =
    X.Filter
      ( X.call "b:PT" [],
        X.Binop
          ( X.B_general X.Eq,
            X.Path (X.Context_item, [ { X.name = "ID"; predicates = [] } ]),
            X.var "p1" ) )
  in
  ignore
    (Artifact.add_logical_service app ~project:"P" ~name:"PTVIEWS"
       [ {
           Artifact.fn_name = "getById";
           params = [ { Artifact.param_name = "id"; param_type = Sql_type.Integer } ];
           element_name = "PT";
           columns = [];
           body = Artifact.Logical { imports; body };
         } ]);
  let srv = Server.create app in
  let result =
    Server.call_function srv ~path:"P" ~name:"PTVIEWS" ~fn:"getById"
      [ Item.of_int 2 ]
  in
  check_int "one row for id 2" 1 (List.length result);
  (* arity error *)
  (match Server.call_function srv ~path:"P" ~name:"PTVIEWS" ~fn:"getById" [] with
  | exception Aqua_xqeval.Error.Dynamic_error _ -> ()
  | _ -> Alcotest.fail "arity error not raised");
  (* parameterized functions are procedures, not tables *)
  check_int "procedures" 1 (List.length (Metadata.list_procedures app));
  check_bool "getById is not a table" true
    (match Metadata.lookup app "getById" with Error _ -> true | Ok _ -> false)

let recursion_guard () =
  let app = Artifact.application "App8" in
  let imports =
    [ { X.prefix = "s"; namespace = "ld:P/LOOP"; location = "ld:P/schemas/LOOP.xsd" } ]
  in
  ignore
    (Artifact.add_logical_service app ~project:"P" ~name:"LOOP"
       [ {
           Artifact.fn_name = "LOOP";
           params = [];
           element_name = "LOOP";
           columns = [];
           body = Artifact.Logical { imports; body = X.call "s:LOOP" [] };
         } ]);
  let srv = Server.create app in
  let q =
    {
      X.prolog =
        { X.imports =
            [ { X.prefix = "s"; namespace = "ld:P/LOOP"; location = "x" } ] };
      body = X.call "s:LOOP" [];
    }
  in
  match Server.execute srv q with
  | exception Aqua_resilience.Sqlstate.Error e ->
    Alcotest.(check string) "sqlstate" "54001" e.Aqua_resilience.Sqlstate.sqlstate;
    (* the error names the cycling function in its call chain *)
    if
      not
        (Helpers.contains ~needle:"P/LOOP:LOOP -> P/LOOP:LOOP"
           e.Aqua_resilience.Sqlstate.message)
    then Alcotest.failf "call chain missing: %s" e.Aqua_resilience.Sqlstate.message
  | _ -> Alcotest.fail "infinite recursion not caught"

let suite =
  ( "dsp",
    [ Helpers.case "artifact mapping (Figure 2)" artifact_mapping;
      Helpers.case "metadata lookup" metadata_lookup;
      Helpers.case "metadata wire round-trip" wire_roundtrip;
      Helpers.case "metadata cache" cache_behaviour;
      Helpers.case "physical execution" physical_execution;
      Helpers.case "logical service" logical_service;
      Helpers.case "parameterized function" parameterized_function;
      Helpers.case "recursion guard" recursion_guard ] )
