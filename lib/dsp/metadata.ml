module Schema = Aqua_relational.Schema
module Sql_type = Aqua_relational.Sql_type
module Node = Aqua_xml.Node

type table = {
  catalog : string;
  schema : string;
  table : string;
  namespace : string;
  location : string;
  element_name : string;
  columns : Schema.t;
}

type error =
  | Table_not_found of string
  | Ambiguous_table of string * string list

let error_to_string = function
  | Table_not_found t -> Printf.sprintf "table %s does not exist" t
  | Ambiguous_table (t, schemas) ->
    Printf.sprintf "table name %s is ambiguous (found in schemas: %s)" t
      (String.concat ", " schemas)

let of_function app (ds : Artifact.data_service) (f : Artifact.ds_function) =
  {
    catalog = app.Artifact.app_name;
    schema = Artifact.sql_schema_of_service ds;
    table = f.Artifact.fn_name;
    namespace = Artifact.namespace_of_service ds;
    location = Artifact.schema_location_of_service ds;
    element_name = f.Artifact.element_name;
    columns = f.Artifact.columns;
  }

let candidates app ?catalog ?schema name =
  let name_up = String.uppercase_ascii name in
  let schema_matches ds =
    match schema with
    | None -> true
    | Some s ->
      let full = Artifact.sql_schema_of_service ds in
      String.uppercase_ascii full = String.uppercase_ascii s
      || String.uppercase_ascii ds.Artifact.ds_name = String.uppercase_ascii s
  in
  let catalog_matches =
    match catalog with
    | None -> true
    | Some c -> String.uppercase_ascii c = String.uppercase_ascii app.Artifact.app_name
  in
  if not catalog_matches then []
  else
    List.concat_map
      (fun ds ->
        if not (schema_matches ds) then []
        else
          List.filter_map
            (fun (f : Artifact.ds_function) ->
              if
                f.Artifact.params = []
                && String.uppercase_ascii f.Artifact.fn_name = name_up
              then Some (of_function app ds f)
              else None)
            ds.Artifact.functions)
      app.Artifact.services

let lookup app ?catalog ?schema name =
  match candidates app ?catalog ?schema name with
  | [ t ] -> Ok t
  | [] -> Error (Table_not_found name)
  | ts -> Error (Ambiguous_table (name, List.map (fun t -> t.schema) ts))

let list_tables app =
  List.concat_map
    (fun ds ->
      List.filter_map
        (fun (f : Artifact.ds_function) ->
          if f.Artifact.params = [] then Some (of_function app ds f) else None)
        ds.Artifact.functions)
    app.Artifact.services

let list_procedures app =
  List.concat_map
    (fun ds ->
      List.filter_map
        (fun (f : Artifact.ds_function) ->
          if f.Artifact.params <> [] then
            Some (of_function app ds f, f.Artifact.params)
          else None)
        ds.Artifact.functions)
    app.Artifact.services

(* ------------------------------------------------------------------ *)
(* Wire encoding                                                      *)

let to_wire t =
  let column (c : Schema.column) =
    Node.element "column"
      ~attrs:
        [ ("name", c.Schema.name);
          ("type", Sql_type.to_string c.Schema.ty);
          ("nullable", if c.Schema.nullable then "true" else "false") ]
      []
  in
  Aqua_xml.Serialize.node_to_string
    (Node.element "tableMetadata"
       ~attrs:
         [ ("catalog", t.catalog);
           ("schema", t.schema);
           ("table", t.table);
           ("namespace", t.namespace);
           ("location", t.location);
           ("element", t.element_name) ]
       (List.map column t.columns))

let of_wire s =
  match Aqua_xml.Parse.node_of_string s with
  | Node.Text _ -> failwith "metadata wire format: expected an element"
  | Node.Element e ->
    let attr el name =
      match List.assoc_opt name el.Node.attrs with
      | Some v -> v
      | None -> failwith ("metadata wire format: missing attribute " ^ name)
    in
    let columns =
      List.map
        (fun (c : Node.element) ->
          let ty_str = attr c "type" in
          let ty =
            (* strip precision arguments for wire round-trip *)
            let base =
              match String.index_opt ty_str '(' with
              | Some i -> String.sub ty_str 0 i
              | None -> ty_str
            in
            match Sql_type.of_string base with
            | Some t -> t
            | None -> failwith ("metadata wire format: bad type " ^ ty_str)
          in
          {
            Schema.name = attr c "name";
            ty;
            nullable = attr c "nullable" = "true";
          })
        (Node.children_elements (Node.Element e))
    in
    {
      catalog = attr e "catalog";
      schema = attr e "schema";
      table = attr e "table";
      namespace = attr e "namespace";
      location = attr e "location";
      element_name = attr e "element";
      columns;
    }

let fetch app ?catalog ?schema name =
  match lookup app ?catalog ?schema name with
  | Error _ as e -> e
  | Ok t -> Ok (of_wire (to_wire t))

(* ------------------------------------------------------------------ *)
(* Cache                                                              *)

module Cache = struct
  module Mcore = Aqua_multicore.Mcore

  type t = {
    app : Artifact.application;
    entries : (string, table) Hashtbl.t;
    lock : Mcore.Mutex.t;  (* guards entries and the hit/miss stats *)
    mutable hits : int;
    mutable misses : int;
  }

  let create app =
    {
      app;
      entries = Hashtbl.create 16;
      lock = Mcore.Mutex.create ();
      hits = 0;
      misses = 0;
    }

  let clear t = Mcore.Mutex.protect t.lock (fun () -> Hashtbl.reset t.entries)

  let key ?catalog ?schema name =
    String.uppercase_ascii
      (String.concat "\x01"
         [ Option.value catalog ~default:"";
           Option.value schema ~default:"";
           name ])

  let lookup t ?catalog ?schema name =
    let k = key ?catalog ?schema name in
    let cached =
      Mcore.Mutex.protect t.lock (fun () ->
          match Hashtbl.find_opt t.entries k with
          | Some tbl ->
            t.hits <- t.hits + 1;
            Some tbl
          | None ->
            t.misses <- t.misses + 1;
            None)
    in
    match cached with
    | Some tbl -> Ok tbl
    | None -> (
      (* the fetch itself runs outside the lock; a racing domain may
         fetch the same table twice, but [replace] keeps one copy *)
      match fetch t.app ?catalog ?schema name with
      | Ok tbl ->
        Mcore.Mutex.protect t.lock (fun () -> Hashtbl.replace t.entries k tbl);
        Ok tbl
      | Error _ as e -> e)

  let hits t = Mcore.Mutex.protect t.lock (fun () -> t.hits)
  let misses t = Mcore.Mutex.protect t.lock (fun () -> t.misses)
end
