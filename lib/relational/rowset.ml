type t = {
  schema : Schema.t;
  rows : Value.t array list;
}

let make schema rows = { schema; rows }

let row_key row =
  String.concat "\x01" (Array.to_list (Array.map Value.group_key row))

let equal_as_lists a b =
  List.length a.rows = List.length b.rows
  && List.for_all2 (fun r1 r2 -> row_key r1 = row_key r2) a.rows b.rows

let sorted_keys rs = List.sort String.compare (List.map row_key rs.rows)

let equal_as_multisets a b =
  List.length a.rows = List.length b.rows
  && List.for_all2 String.equal (sorted_keys a) (sorted_keys b)

let sorted_under_order_by ~keys a b =
  let project row = Array.of_list (List.map (fun i -> row.(i)) keys) in
  equal_as_multisets a b
  && List.for_all2
       (fun r1 r2 -> row_key (project r1) = row_key (project r2))
       a.rows b.rows

let diff_summary a b =
  if List.length a.rows <> List.length b.rows then
    Some
      (Printf.sprintf "cardinality mismatch: %d vs %d rows"
         (List.length a.rows) (List.length b.rows))
  else if equal_as_multisets a b then None
  else begin
    let table rs =
      let tbl = Hashtbl.create 64 in
      List.iter
        (fun r ->
          let k = row_key r in
          let count =
            match Hashtbl.find_opt tbl k with
            | Some (c, _) -> c
            | None -> 0
          in
          Hashtbl.replace tbl k (count + 1, r))
        rs.rows;
      tbl
    in
    let ta = table a and tb = table b in
    let describe r =
      String.concat ", "
        (Array.to_list (Array.map Value.to_display r))
    in
    let missing =
      Hashtbl.fold
        (fun k (ca, r) acc ->
          match acc with
          | Some _ -> acc
          | None ->
            let cb = try fst (Hashtbl.find tb k) with Not_found -> 0 in
            if ca <> cb then
              Some
                (Printf.sprintf "row [%s] occurs %d time(s) vs %d" (describe r)
                   ca cb)
            else None)
        ta None
    in
    match missing with
    | Some _ as s -> s
    | None -> Some "rowsets differ (extra rows on right side)"
  end

let to_string rs =
  let headers = List.map (fun (c : Schema.column) -> c.name) rs.schema in
  let cells = List.map (fun r -> Array.to_list (Array.map Value.to_display r)) rs.rows in
  let all = headers :: cells in
  let ncols = List.length headers in
  let width i =
    List.fold_left
      (fun w row -> max w (String.length (List.nth row i)))
      0 all
  in
  let widths = List.init ncols width in
  let line row =
    String.concat " | "
      (List.map2
         (fun cell w -> cell ^ String.make (w - String.length cell) ' ')
         row widths)
  in
  let sep =
    String.concat "-+-" (List.map (fun w -> String.make w '-') widths)
  in
  String.concat "\n" (line headers :: sep :: List.map line cells)
