(** Vectorized aggregation kernels for the columnar GROUP BY path.

    A kernel folds one aggregate incrementally over a grouped column,
    one tuple's slice at a time, with exactly the semantics of the
    one-shot {!Functions} implementations over the concatenated
    partition: same numeric promotion, same fold order, and the same
    dynamic errors (deferred and re-raised at {!result} iff the
    one-shot fold would have reached them).

    The state of one kernel spec for all the groups of one invocation
    is one accumulator ({!acc}) laid out as struct-of-arrays and
    indexed by dense group slot: unboxed [float array] sums, [int
    array] item, atom and integer-sum counts, extremum arrays that keep
    the winning atom's type, and an error array allocated when the
    first error appears.  Folding a memoized clean number allocates
    nothing. *)

type kind =
  | K_count  (** [fn:count] — counts items, no atomization *)
  | K_sum  (** [fn:sum] — empty input yields [0] *)
  | K_sum_null
      (** the translated-SQL shape
          [if (fn:empty(c)) then () else fn:sum(c)]: SUM over an empty
          set is NULL *)
  | K_avg  (** [fn:avg] — empty input yields the empty sequence *)
  | K_min  (** [fn:min] *)
  | K_max  (** [fn:max] *)
  | K_empty  (** [fn:empty] *)
  | K_exists  (** [fn:exists] *)

val name : kind -> string
(** Short label for plans and [analyze] output. *)

(** {1 Cell readings} *)

type cells
(** A column of tuple inputs with their atomization and numeric reading
    done once, for inputs memoized per scan row. *)

val cells : Aqua_xml.Item.sequence array -> cells
(** Never raises: a reading that would raise is left to {!add}. *)

val extend_cells : cells -> Aqua_xml.Item.sequence array -> cells
(** [extend_cells (cells col) col'], where [col] is a prefix of [col'],
    is [cells col'], reading only the rows after [col]. *)

(** {1 Accumulators} *)

type acc
(** One kernel spec's accumulators for group slots [0 .. n - 1]. *)

val acc : kind -> int -> acc
(** [acc kind n]: [n] empty slots, allocated once. *)

val reserve : acc -> int -> unit
(** [reserve a n] makes room for slots [0 .. n - 1] (exactly [n] when
    it grows), keeping every slot's fold so far. *)

val add : acc -> int -> Aqua_xml.Item.sequence -> unit
(** [add a g seq] folds one tuple's input into slot [g]: the generic
    per-row update, for any input. *)

val add_const :
  acc -> slots:int array -> int -> Aqua_xml.Item.sequence -> unit
(** [add_const a ~slots n seq] is [add a slots.(k) seq] for every
    [k < n]; a count, empty or exists kernel only counts [seq]'s items
    (COUNT( * )'s literal input). *)

val add_cells :
  acc -> cells -> slots:int array -> rows:int array -> int -> unit
(** [add_cells a (cells col) ~slots ~rows n] is
    [add a slots.(k) col.(rows.(k))] for [k = 0 .. n - 1], in that
    order: one loop specialized by kind, reading each clean number from
    the memoized reading and sending only [slow] cells through {!add}. *)

val result : acc -> int -> Aqua_xml.Item.sequence
(** Slot [g]'s aggregate; re-raises its deferred dynamic error. *)
