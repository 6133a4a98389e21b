(** Group operators: materializing and kernel.

    Both tell groups apart by their key ({!cinput}s), keep one dense
    slot per group in first-seen order with its key values and the
    entry columns it carries, and flush one output row per group
    through one loop.

    A materializing group builds the partition column as the
    concatenation of each group's grouped cells.  A kernel group
    ([Optimize.group_kernels]: every post-group read of the partition
    is one of the translator's aggregate shapes) keeps one accumulator
    per kernel, indexed by group slot ([Kernels.acc]), instead of
    materializing the partition: a column loop per kernel during
    [cpush], read into output columns at flush.  Each kernel folds its
    per-tuple input; when the grouped variable is let-bound to a record
    constructor that input reads the field through the constructor, so
    the record itself is dead and never built. *)

type cinput =
  | In_cell of int * int * (Aqua_xml.Item.sequence -> Aqua_xml.Item.sequence)
      (** a whole derived cell, read through the tuple's row position:
          cell index, row slot, the cell expression's evaluator *)
  | In_expr of Operator.comp  (** any other expression *)
(** A group key or kernel input. *)

type plan = {
  label : string;
  note : Operator.note;
  gslots : int array;  (** the slots the keys and inputs read *)
  keys : cinput array;
  key_slots : int list;  (** where the keys are written *)
  entry_copy : int array;  (** the entry columns carried past the group *)
}
(** What the lowering decided for either kind of group. *)

val materialize : plan -> grouped:int -> partition:int -> Operator.t
(** A group that writes each group's [grouped] cells, concatenated,
    into slot [partition]. *)

val kernel :
  plan ->
  specs:Optimize.kernel_spec list ->
  inputs:(Aqua_xquery.Ast.expr * cinput) list ->
  spec_slots:int array ->
  Operator.t
(** A kernel group: [inputs] pairs each distinct kernel argument with
    its compiled input (kernels over one column share it, evaluated
    once per tuple), and each spec's result goes to its slot in
    [spec_slots].  Inputs and keys that may raise go through a per-row
    pass first, in the unfused order. *)
