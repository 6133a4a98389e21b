(* The AquaLogic DSP artifact model (paper section 3.1): an application
   contains projects and folders; those contain data services (.ds
   files); a data service is a collection of functions.  A function
   either wraps a physical source (here: an in-memory relational
   table, standing in for the paper's Oracle tables — see DESIGN.md)
   or is a logical function authored as an XQuery body over other
   data-service functions. *)

module Schema = Aqua_relational.Schema
module Table = Aqua_relational.Table

type parameter = {
  param_name : string;
  param_type : Aqua_relational.Sql_type.t;
}

type function_body =
  | Physical of Table.t
      (** metadata-imported function: returns the table as flat XML *)
  | Logical of {
      imports : Aqua_xquery.Ast.schema_import list;
          (** the .ds file's own prolog: how its body's prefixed
              function calls resolve *)
      body : Aqua_xquery.Ast.expr;
          (** parameters are visible as [$p1 .. $pn] *)
    }

type ds_function = {
  fn_name : string;
  params : parameter list;
  (* return type: a sequence of [element_name] elements whose
     simple-typed children are described by [columns] *)
  element_name : string;
  columns : Schema.t;
  body : function_body;
}

type data_service = {
  ds_path : string;  (** project (and folders), e.g. "TestDataServices" *)
  ds_name : string;  (** .ds file name without extension *)
  functions : ds_function list;
}

type application = {
  app_name : string;
  mutable services : data_service list;
  mutable revision : int;
}

let application name = { app_name = name; services = []; revision = 0 }

let revision app = app.revision

let namespace_of_service ds = Printf.sprintf "ld:%s/%s" ds.ds_path ds.ds_name

let schema_location_of_service ds =
  Printf.sprintf "ld:%s/schemas/%s.xsd" ds.ds_path ds.ds_name

(* SQL schema name per Figure 2: path to the .ds file plus its name. *)
let sql_schema_of_service ds = ds.ds_path ^ "/" ^ ds.ds_name

let add_service app ds =
  if
    List.exists
      (fun s -> s.ds_path = ds.ds_path && s.ds_name = ds.ds_name)
      app.services
  then
    invalid_arg
      (Printf.sprintf "data service %s/%s already exists" ds.ds_path ds.ds_name);
  app.services <- app.services @ [ ds ];
  app.revision <- app.revision + 1

(* Metadata import of a relational table (paper Example 2): produces a
   .ds file named after the table, holding one parameterless function
   that returns the whole table as a flat element sequence. *)
let import_physical_table app ~project (table : Table.t) =
  let ds =
    {
      ds_path = project;
      ds_name = table.Table.name;
      functions =
        [ {
            fn_name = table.Table.name;
            params = [];
            element_name = table.Table.name;
            columns = table.Table.schema;
            body = Physical table;
          } ];
    }
  in
  add_service app ds;
  ds

(* A logical function body authored as XQuery text: its prolog's
   schema imports define how the body's prefixed function calls
   resolve, exactly like a hand-written .ds file. *)
let logical_body_of_text src =
  let q = Aqua_xquery.Parser.parse_query src in
  Logical { imports = q.Aqua_xquery.Ast.prolog.Aqua_xquery.Ast.imports;
            body = q.Aqua_xquery.Ast.body }

let add_logical_service app ~project ~name functions =
  let ds = { ds_path = project; ds_name = name; functions } in
  add_service app ds;
  ds

let find_service app ~path ~name =
  List.find_opt
    (fun s -> s.ds_path = path && s.ds_name = name)
    app.services

let find_service_by_namespace app namespace =
  List.find_opt (fun s -> namespace_of_service s = namespace) app.services

let find_function ds name =
  List.find_opt (fun f -> String.uppercase_ascii f.fn_name = String.uppercase_ascii name) ds.functions

(* Rendering of a data service as its .ds file text (paper Example 2)
   — documentation/debugging aid, also exercised by tests. *)
let ds_file_text ds =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "import schema namespace t1 = \"%s\" at \"%s\";\n\n"
       (namespace_of_service ds)
       (schema_location_of_service ds));
  List.iter
    (fun f ->
      let params =
        String.concat ", "
          (List.mapi (fun i (p : parameter) -> Printf.sprintf "$p%d as xs:%s" (i + 1) (String.lowercase_ascii (Aqua_relational.Sql_type.to_string p.param_type))) f.params)
      in
      match f.body with
      | Physical _ ->
        Buffer.add_string buf
          (Printf.sprintf
             "declare function f1:%s(%s)\n    as schema-element(t1:%s)*\n    external;\n\n"
             f.fn_name params f.element_name)
      | Logical { body; _ } ->
        Buffer.add_string buf
          (Printf.sprintf
             "declare function f1:%s(%s)\n    as schema-element(t1:%s)* {\n%s\n};\n\n"
             f.fn_name params f.element_name
             (Aqua_xquery.Pretty.expr_to_string body)))
    ds.functions;
  Buffer.contents buf
