(** The [order by] barrier: it buffers every row's atomized keys and
    the columns still read past it, and at flush emits them stably
    sorted. *)

val order_by :
  label:string ->
  note:Operator.note ->
  gslots:int array ->
  keys:(Operator.comp * bool * Aqua_xquery.Ast.empty_order) list ->
  retain:int array ->
  Operator.t
(** [keys]: per order spec, the compiled key, descending, and where
    empty keys sort; [retain]: the slots copied out of each input
    batch. *)
