module Value = Aqua_relational.Value
module Rowset = Aqua_relational.Rowset
module Outcol = Aqua_translator.Outcol
module Node = Aqua_xml.Node
module Item = Aqua_xml.Item

type t = {
  cols : Outcol.t list;
  mutable rows : Value.t array list;  (* remaining rows *)
  mutable current : Value.t array option;
  mutable last_was_null : bool;
}

let columns t = t.cols
let column_count t = List.length t.cols

let column_label t i =
  match List.nth_opt t.cols (i - 1) with
  | Some c -> c.Outcol.label
  | None -> invalid_arg (Printf.sprintf "column index %d out of range" i)

let of_rows cols rows =
  let module T = Aqua_core.Telemetry in
  if T.enabled () then T.add T.c_resultset_rows (List.length rows);
  Aqua_resilience.Budget.tick_rows (List.length rows);
  { cols; rows; current = None; last_was_null = false }

let row_count t = List.length t.rows

let next t =
  match t.rows with
  | [] ->
    t.current <- None;
    false
  | row :: rest ->
    t.rows <- rest;
    t.current <- Some row;
    true

let iter_rows t f =
  let rows = t.rows in
  t.rows <- [];
  t.current <- None;
  List.iter f rows

let get_value t i =
  match t.current with
  | None -> invalid_arg "result set cursor is not positioned on a row"
  | Some row ->
    if i < 1 || i > Array.length row then
      invalid_arg (Printf.sprintf "column index %d out of range" i)
    else begin
      let v = row.(i - 1) in
      t.last_was_null <- Value.is_null v;
      v
    end

let get_value_by_label t label =
  let rec index i = function
    | [] -> invalid_arg (Printf.sprintf "no column labelled %s" label)
    | (c : Outcol.t) :: rest ->
      if String.uppercase_ascii c.Outcol.label = String.uppercase_ascii label
      then i
      else index (i + 1) rest
  in
  get_value t (index 1 t.cols)

let get_int t i =
  match get_value t i with
  | Value.Null -> None
  | Value.Int n -> Some n
  | Value.Num f -> Some (int_of_float f)
  | v -> invalid_arg ("not an integer column: " ^ Value.to_display v)

let get_string t i =
  match get_value t i with
  | Value.Null -> None
  | v -> Some (Value.to_string v)

let get_float t i =
  match get_value t i with
  | Value.Null -> None
  | Value.Int n -> Some (float_of_int n)
  | Value.Num f -> Some f
  | v -> invalid_arg ("not a numeric column: " ^ Value.to_display v)

let get_bool t i =
  match get_value t i with
  | Value.Null -> None
  | Value.Bool b -> Some b
  | v -> invalid_arg ("not a boolean column: " ^ Value.to_display v)

let was_null t = t.last_was_null

let to_rowset t =
  Rowset.make (Outcol.to_schema t.cols) t.rows

(* ------------------------------------------------------------------ *)
(* XML transport decoding                                             *)

exception Decode_error of string

let record_to_row cols (record : Node.element) : Value.t array =
  let children = Node.children_elements (Node.Element record) in
  Array.of_list
    (List.map
       (fun (c : Outcol.t) ->
         match
           List.find_opt
             (fun (e : Node.element) ->
               Node.local_name e.Node.name = c.Outcol.element)
             children
         with
         | None -> Value.Null
         | Some e ->
           Value.of_string c.Outcol.ty (Node.string_value (Node.Element e)))
       cols)

let of_xml_sequence cols (seq : Item.sequence) =
  let records =
    List.concat_map
      (fun item ->
        match item with
        | Item.Node (Node.Element e)
          when Node.local_name e.Node.name = "RECORDSET" ->
          List.filter
            (fun (r : Node.element) -> Node.local_name r.Node.name = "RECORD")
            (Node.children_elements (Node.Element e))
        | Item.Node (Node.Element e) ->
          (* a RECORD, or any flat row element (stored-procedure
             results come back as the function's own row elements) *)
          [ e ]
        | Item.Node (Node.Text _) -> []
        | Item.Atomic _ -> raise (Decode_error "unexpected atomic result item"))
      seq
  in
  of_rows cols (List.map (record_to_row cols) records)

let of_xml_text cols text =
  Aqua_resilience.Failpoint.hit "driver.decode";
  if String.trim text = "" then of_rows cols []
  else
    let nodes =
      try Aqua_xml.Parse.nodes_of_string text
      with Aqua_xml.Parse.Parse_error { message; _ } ->
        raise (Decode_error ("malformed XML result: " ^ message))
    in
    of_xml_sequence cols (List.map Item.node nodes)

(* ------------------------------------------------------------------ *)
(* Text transport decoding (paper section 4)                          *)

let of_encoded_text cols text =
  Aqua_resilience.Failpoint.hit "driver.decode";
  match Aqua_translator.Wrapper.decode ~columns:cols text with
  | rows -> of_rows cols rows
  | exception Aqua_translator.Wrapper.Decode_error m -> raise (Decode_error m)
