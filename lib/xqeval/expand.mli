(** Expanders: [for] and hash join.  Both append one output row per
    produced tuple through one row writer: the carried input columns,
    the bound variable if anything reads it whole, and the projected
    and derived scan columns still read, served from {!Src_memo}. *)

type derivation = {
  dn_ids : int array;  (** the derived cells' indices among the FLWOR's cells *)
  dn_specs : Src_memo.spec array;  (** what {!Src_memo.derived} fetches *)
  dn_row : int;  (** the row-position slot, -1 when nothing reads it *)
  dn_live : (int * int) array;  (** (cell position, value slot) still read *)
}
(** An expander's derived cells. *)

type outputs = {
  label : string;
  note : Operator.note;
  var_slot : int;
  var_live : bool;  (** something still reads the variable whole *)
  copy : int array;  (** carried slots *)
  steps : string list;  (** projected columns still read, by step name *)
  col_slots : int array;  (** their slots *)
  dn : derivation;
}
(** What the lowering decided an expander writes. *)

val for_ : outputs -> gslots:int array -> source:Operator.comp -> Operator.t
(** [for $v in source]: one output row per item of the source. *)

val hash_join :
  outputs ->
  gslots:int array ->
  source:Operator.comp ->
  build:Operator.comp ->
  probe:Operator.comp ->
  build_key:Aqua_xquery.Ast.expr ->
  value_cmp:bool ->
  reusable:bool ->
  by_id:(int * int * (Aqua_xml.Item.sequence -> Aqua_xml.Item.sequence)) option ->
  Operator.t
(** A hash equi-join: the build table over the source, once per
    invocation ([reusable]: kept with the source's memo entry and
    reused), probed per input row.  [by_id] (cell index, row slot, cell
    evaluator): the probe key is a whole derived cell, probed once per
    distinct value id. *)
