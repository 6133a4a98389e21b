(** The metadata API of the platform (paper section 3.5 (i)-(ii)):
    the translator asks the server which data-service functions exist,
    what flat row type they return, and under which namespace/schema
    location they are imported.

    To keep the remote boundary honest for benchmarking (experiment P3
    in DESIGN.md), [fetch] round-trips the answer through its XML wire
    encoding, exactly the work a remote call would do; {!Cache} makes
    that cost observable. *)

type table = {
  catalog : string;        (** application name *)
  schema : string;         (** .ds path + file name, Figure 2 *)
  table : string;          (** function name *)
  namespace : string;      (** e.g. "ld:TestDataServices/CUSTOMERS" *)
  location : string;       (** e.g. "ld:TestDataServices/schemas/CUSTOMERS.xsd" *)
  element_name : string;   (** row element name *)
  columns : Aqua_relational.Schema.t;
}

type error =
  | Table_not_found of string
  | Ambiguous_table of string * string list  (** candidate schemas *)

val error_to_string : error -> string

val lookup :
  Artifact.application ->
  ?catalog:string ->
  ?schema:string ->
  string ->
  (table, error) result
(** Resolves a (possibly qualified) SQL table name to its metadata.
    Matching is case-insensitive on the table name; the schema, when
    given, must match the Figure-2 schema name or its final [.ds]
    component. Only parameterless functions are visible as tables. *)

val list_tables : Artifact.application -> table list

val list_procedures : Artifact.application -> (table * Artifact.parameter list) list
(** Parameterized functions, exposed as callable stored procedures. *)

val to_wire : table -> string
(** XML wire encoding of a metadata answer. *)

val of_wire : string -> table
(** Inverse of [to_wire]. @raise Failure on malformed input. *)

val fetch :
  Artifact.application ->
  ?catalog:string ->
  ?schema:string ->
  string ->
  (table, error) result
(** Like [lookup] but charging the remote-API serialization cost. *)

module Cache : sig
  type t

  val create : Artifact.application -> t
  val clear : t -> unit

  val lookup :
    t -> ?catalog:string -> ?schema:string -> string -> (table, error) result
  (** Served from cache when possible; otherwise performs {!fetch} and
      caches a successful answer. *)

  val hits : t -> int
  val misses : t -> int
end
