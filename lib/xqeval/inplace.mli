(** The in-place operators: they work on the incoming batch and push
    the same batch on. *)

val let_ :
  label:string -> gslots:int array -> value:Operator.comp option -> slot:int -> Operator.t
(** [let]: writes [value] into column [slot] at the selected rows;
    [None] for a let skipped as dead, which only counts its rows. *)

val where : label:string -> gslots:int array -> cond:(Operator.rt -> bool) -> Operator.t
(** [where]: compacts the selection vector to the rows [cond] holds
    for. *)
