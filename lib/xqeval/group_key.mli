(** Injective composite-key encoding for group-by partitioning.

    Every atom's [Atomic.hash_key] is length-prefixed and every key
    expression's component is terminated, so two distinct key-value
    tuples can never encode to the same string — even when key atoms
    contain arbitrary bytes (the flat separator-joined encoding this
    replaces collided on keys containing the separator). *)

val composite : Aqua_xml.Item.sequence list -> string
(** One string per group: the encoded tuple of atomized key values, in
    key order.  Empty key sequences are marked distinctly from every
    non-empty one. *)

val composite_into : Buffer.t -> Aqua_xml.Item.sequence list -> string
(** Same encoding through a caller-supplied scratch buffer (cleared on
    entry), so a grouping loop pays one buffer allocation total instead
    of one per tuple. *)

val add_component : Buffer.t -> Aqua_xml.Item.sequence -> unit
(** Append one key expression's component (terminator included). *)

val component : Aqua_xml.Item.sequence -> string
(** One key expression's component on its own: [composite keys] is the
    concatenation of [component k] over [keys]. *)
