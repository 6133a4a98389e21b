(** Vectorized aggregation kernels for the columnar GROUP BY path.

    A kernel folds one aggregate incrementally over a grouped column,
    one tuple's slice at a time, with exactly the semantics of the
    one-shot {!Functions} implementations over the concatenated
    partition: same numeric promotion, same fold order, and the same
    dynamic errors (deferred and re-raised at {!finish} iff the
    one-shot fold would have reached them). *)

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

type state
(** Per-group accumulator. *)

val create : kind -> state

val update : state -> Aqua_xml.Item.sequence -> unit
(** Fold one tuple's column slice into the accumulator. *)

type cells
(** A column of tuple inputs with their atomization and numeric reading
    done once, for inputs memoized per scan row. *)

val cells : Aqua_xml.Item.sequence array -> cells
(** Never raises: a reading that would raise is left to {!update}. *)

val extend_cells : cells -> Aqua_xml.Item.sequence array -> cells
(** [extend_cells (cells col) col'], where [col] is a prefix of [col'],
    is [cells col'], reading only the rows after [col]. *)

val update_at : state -> cells -> int -> unit
(** [update_at st (cells col) r] has exactly the effect of
    [update st col.(r)], for every kind. *)

val finish : state -> Aqua_xml.Item.sequence
(** The aggregate's result; re-raises any deferred dynamic error. *)
