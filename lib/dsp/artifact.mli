(** The AquaLogic DSP artifact model (paper section 3.1): an
    application contains projects (with folders); those contain data
    services (.ds files); a data service is a collection of functions.
    A function either wraps a physical source — here an in-memory
    relational table, standing in for the paper's Oracle tables (see
    DESIGN.md) — or is a logical function authored as an XQuery body
    over other data-service functions. *)

type parameter = {
  param_name : string;
  param_type : Aqua_relational.Sql_type.t;
}

type function_body =
  | Physical of Aqua_relational.Table.t
      (** metadata-imported: returns the table as flat XML *)
  | Logical of {
      imports : Aqua_xquery.Ast.schema_import list;
          (** the .ds file's own prolog: how the body's prefixed
              function calls resolve *)
      body : Aqua_xquery.Ast.expr;
          (** parameters are visible as [$p1 .. $pn] *)
    }

type ds_function = {
  fn_name : string;
  params : parameter list;
  element_name : string;  (** row element name of the return type *)
  columns : Aqua_relational.Schema.t;
      (** simple-typed children of the row element *)
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
      (** bumped on every metadata change; caches key on it *)
}

val application : string -> application

val revision : application -> int
(** Monotonic metadata revision: incremented whenever a service is
    added.  Driver-side caches compare it to invalidate stale
    translations and metadata. *)

val namespace_of_service : data_service -> string
(** e.g. ["ld:TestDataServices/CUSTOMERS"]. *)

val schema_location_of_service : data_service -> string
(** e.g. ["ld:TestDataServices/schemas/CUSTOMERS.xsd"]. *)

val sql_schema_of_service : data_service -> string
(** The SQL schema name per Figure 2: path + .ds name. *)

val add_service : application -> data_service -> unit
(** @raise Invalid_argument on duplicate path/name. *)

val import_physical_table :
  application -> project:string -> Aqua_relational.Table.t -> data_service
(** Metadata import (paper Example 2): a .ds file named after the
    table with one parameterless function returning it as a flat
    element sequence.
    @raise Invalid_argument on duplicate registration. *)

val add_logical_service :
  application -> project:string -> name:string -> ds_function list ->
  data_service
(** @raise Invalid_argument on duplicate registration. *)

val logical_body_of_text : string -> function_body
(** A logical function body authored as XQuery text; the text's prolog
    defines how its prefixed function calls resolve, exactly like a
    hand-written .ds file.
    @raise Aqua_xquery.Parser.Parse_error on malformed text. *)

val find_service : application -> path:string -> name:string -> data_service option
val find_service_by_namespace : application -> string -> data_service option

val find_function : data_service -> string -> ds_function option
(** Case-insensitive lookup by function name. *)

val ds_file_text : data_service -> string
(** Renders the service as .ds file text (paper Example 2) —
    documentation and debugging aid. *)
