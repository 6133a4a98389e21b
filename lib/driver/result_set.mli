(** JDBC-style result sets: the driver's client-facing row container,
    produced by decoding either the XML transport or the text-encoded
    transport of paper section 4. *)

type t

val columns : t -> Aqua_translator.Outcol.t list
val column_count : t -> int

val column_label : t -> int -> string
(** 1-based, like JDBC. *)

val row_count : t -> int
(** Rows ahead of the cursor — the full decoded row count on a fresh
    result set (rows are materialized at decode time). *)

val next : t -> bool
(** Advances the cursor; [false] past the last row. *)

val iter_rows : t -> (Aqua_relational.Value.t array -> unit) -> unit
(** [iter_rows t f] applies [f] to each row ahead of the cursor, in
    order, and leaves the cursor past the last row, as a [next] loop
    would.  The arrays are the result set's own: [f] must not modify
    them. *)

val get_value : t -> int -> Aqua_relational.Value.t
(** 1-based column index; [Value.Null] for SQL NULL.
    @raise Invalid_argument when the cursor is not on a row or the
    index is out of range. *)

val get_value_by_label : t -> string -> Aqua_relational.Value.t

val get_int : t -> int -> int option
val get_string : t -> int -> string option
val get_float : t -> int -> float option
val get_bool : t -> int -> bool option

val was_null : t -> bool
(** Whether the last [get_*] read a SQL NULL. *)

val to_rowset : t -> Aqua_relational.Rowset.t
(** Materializes all remaining rows (cursor-position independent). *)

exception Decode_error of string
(** A malformed wire result (either transport); surfaces at the driver
    boundary as SQLSTATE 08P01 (protocol violation). *)

val of_rows :
  Aqua_translator.Outcol.t list -> Aqua_relational.Value.t array list -> t

val of_xml_sequence :
  Aqua_translator.Outcol.t list -> Aqua_xml.Item.sequence -> t
(** Decodes a RECORDSET/RECORD item sequence (XML transport). *)

val of_xml_text : Aqua_translator.Outcol.t list -> string -> t
(** Parses serialized XML then decodes — the full client-side cost of
    the XML transport. *)

val of_encoded_text : Aqua_translator.Outcol.t list -> string -> t
(** Decodes the delimiter-separated text transport (paper section 4). *)
