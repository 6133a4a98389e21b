module Node = Aqua_xml.Node

(* Rows are only appended, so the row count is the data version: the
   table at version v is exactly its first v rows.  Rows and count are
   published together as one immutable value, so a reader never pairs
   one version with another version's rows. *)
type snapshot = {
  newest_first : Value.t array list;
  count : int;
}

type t = {
  name : string;
  schema : Schema.t;
  state : snapshot Atomic.t;
}

let create name schema =
  { name; schema; state = Atomic.make { newest_first = []; count = 0 } }

let insert t row =
  let row = Array.of_list row in
  match Schema.check_row t.schema row with
  | Ok () ->
    let rec publish () =
      let s = Atomic.get t.state in
      let s' = { newest_first = row :: s.newest_first; count = s.count + 1 } in
      if not (Atomic.compare_and_set t.state s s') then publish ()
    in
    publish ()
  | Error msg ->
    raise (Value.Type_error (Printf.sprintf "table %s: %s" t.name msg))

let insert_all t rows = List.iter (insert t) rows
let snapshot t = Atomic.get t.state
let snapshot_version s = s.count
let version t = (snapshot t).count
let cardinality = version

(* The rows after the first [since], oldest first: the newest
   [count - since] of the list, reversed. *)
let rows_since ?(since = 0) s =
  let rec take n rows acc =
    match rows with
    | row :: more when n > 0 -> take (n - 1) more (row :: acc)
    | _ -> acc
  in
  take (s.count - max 0 since) s.newest_first []

let rows t = rows_since (snapshot t)

let row_to_element ~name schema row =
  let rec children i = function
    | [] -> []
    | (c : Schema.column) :: more -> (
      match row.(i) with
      | Value.Null -> children (i + 1) more
      | v ->
        Node.element c.name [ Node.text (Value.to_string v) ]
        :: children (i + 1) more)
  in
  Node.element name (children 0 schema)

let flat_xml_since ?(ns_prefix = "ns0") ?since t s =
  let name = ns_prefix ^ ":" ^ t.name in
  List.map (row_to_element ~name t.schema) (rows_since ?since s)

let to_flat_xml ?ns_prefix t = flat_xml_since ?ns_prefix t (snapshot t)
