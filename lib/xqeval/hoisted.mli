(** Per-run state of hoisted values ([Optimize]'s [aqua:hoisted]) and
    of the probe tables built over them.

    A hoisted expression may read the plan's externals (a cached plan's
    lifted literals) and the statement's pinned scans, so its value
    belongs to one run, never to the plan: {!within} gives each run an
    array of slots, one per hoisted value and per probe table, and
    makes it the current one of its domain for the run's duration (a
    nested run, a logical data service's body, installs its own and
    puts the outer one back).  A value is computed where it stands, on
    first demand, and its slot then holds the value or the exception it
    raised, which every later demand in the run re-raises. *)

val within : int -> ('a -> 'b) -> 'a -> 'b
(** [within n f x] is [f x] run with [n] fresh run slots. *)

val hoisted_value : int -> Operator.comp -> Operator.comp
(** [hoisted_value k c]: [c]'s value, computed at most once per run in
    slot [k]. *)

val set_table : int -> Aqua_xml.Item.sequence -> Join_table.t
(** The general-comparison hash set over a hoisted value's atoms, built
    once per run in slot [k]. *)

type quant_table =
  | Q_nested
  | Q_probe of { single : bool; null : bool; tbl : Join_table.t }
(** The probe table of a quantifier over a hoisted value: its items'
    child cells hashed, [single] when no cell holds more than one atom,
    [null] when some cell is empty; [Q_nested] when some item is not a
    node, so reading a cell raises and only the nested loop says
    where. *)

val quant_table : int -> (string -> bool) -> Aqua_xml.Item.sequence -> quant_table
(** [quant_table k step items], once per run in slot [k]. *)

type setop_table = {
  so_exact : bool;
  so_items : Aqua_xml.Item.t array;
  so_rows : (string, int) Hashtbl.t;
}
(** The set operations' match table: the right-hand records by their
    composite null-safe key.  [so_exact]: every item is a node whose key
    cells are each empty or one string-class atom (untypedAtomic or
    string), where comparing is comparing strings, so equal keys are
    exactly matching records.  [so_rows] maps a key to its rows, newest
    first. *)

val setop_table : int -> (string -> bool) array -> Aqua_xml.Item.sequence -> setop_table
(** [setop_table k steps items], keyed on the [steps] cells, once per
    run in slot [k]; counted as a hash-join build. *)

val setop_component : Buffer.t -> Aqua_xml.Item.sequence -> bool
(** Appends one column's component of a set-op key: for an empty cell
    or one string-class atom; [false] for anything else. *)
