(* The scan-source memo through its interface: the cell bound, LRU
   eviction, extension of a grown source and the per-source cap on
   derived columns.  The memo is domain-local and shared with every
   other case, so each case first fills it with tiny sources of its own
   ([fresh_memo]): the entry cap then holds nothing else. *)

module Item = Aqua_xml.Item
module Atomic = Aqua_xml.Atomic
module Node = Aqua_xml.Node
module X = Aqua_xquery.Ast
module Src_memo = Aqua_xqeval.Src_memo
module Telemetry = Aqua_core.Telemetry

let rows n =
  List.init n (fun i ->
      Item.Node
        (Node.element "R" [ Node.element "A" [ Node.text (string_of_int (i mod 7)) ] ]))

let read src = (Src_memo.columns (Src_memo.entry ~retain:true src) [ "A" ]).(0)

(* eight one-row sources, one projected cell each: the memo's entry cap *)
let fresh_memo () =
  for _ = 1 to 8 do
    ignore (read (rows 1))
  done

let with_telemetry f =
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f

let built () = Telemetry.value Telemetry.c_col_projected_columns
let hits () = Telemetry.value Telemetry.c_col_projection_hits
let check_int = Alcotest.(check int)

let over_bound_served_not_retained () =
  with_telemetry @@ fun () ->
  fresh_memo ();
  let n = Src_memo.projected_cells_max + 1 in
  let src = rows n in
  check_int "served" n (Array.length (read src));
  check_int "served again" n (Array.length (read src));
  check_int "built twice" 10 (built ());
  check_int "never a hit" 0 (hits ());
  Alcotest.(check bool) "only one-row sources kept" true (Src_memo.retained () <= 8)

let lru_keeps_total_under_bound () =
  with_telemetry @@ fun () ->
  fresh_memo ();
  (* two of these fit under the bound, three do not *)
  let third = (Src_memo.projected_cells_max / 3) + 1 in
  let a = rows third and b = rows third and c = rows third in
  ignore (read a);
  ignore (read b);
  check_int "a and b kept" (2 * third) (Src_memo.retained () - 6);
  ignore (read c);
  Alcotest.(check bool) "under the bound" true
    (Src_memo.retained () <= Src_memo.projected_cells_max);
  let built0 = built () and hits0 = hits () in
  ignore (read c);
  ignore (read b);
  check_int "b and c hit" (hits0 + 2) (hits ());
  check_int "nothing rebuilt" built0 (built ());
  ignore (read a);
  check_int "a, the least recently used, was evicted" (built0 + 1) (built ());
  Alcotest.(check bool) "still under the bound" true
    (Src_memo.retained () <= Src_memo.projected_cells_max)

let derive cell = List.map (fun a -> Item.Atomic a) (Item.atomize cell)

let spec expr : Src_memo.spec = ("A", expr, Hashtbl.hash expr, derive)

let extension_takes_over () =
  with_telemetry @@ fun () ->
  fresh_memo ();
  let base = rows 10 in
  (* the grown source's first items are [base]'s, physically *)
  let grown = base @ rows 5 in
  let s = spec (X.Var "cell") in
  let e = Src_memo.entry ~retain:true base in
  ignore (Src_memo.columns e [ "A" ]);
  let d = (Src_memo.derived e [| s |]).(0) in
  let ids = Array.copy (Src_memo.ids d).Src_memo.id_of in
  let cells = Src_memo.retained () in
  check_int "column, values and ids counted" (7 + 30) cells;
  let e' = Src_memo.entry ~retain:true grown in
  check_int "the predecessor's cells, counted once" cells (Src_memo.retained ());
  let built0 = built () and hits0 = hits () in
  check_int "column extended" 15 (Array.length (Src_memo.columns e' [ "A" ]).(0));
  check_int "a hit, not a build" (hits0 + 1) (hits ());
  let d' = (Src_memo.derived e' [| s |]).(0) in
  check_int "derived column extended" 15 (Array.length d'.Src_memo.dc_vals);
  check_int "a derived hit" 1 (Telemetry.value Telemetry.c_col_derived_hits);
  let ids' = (Src_memo.ids d').Src_memo.id_of in
  Alcotest.(check (array int)) "its rows keep their ids" ids (Array.sub ids' 0 10);
  check_int "the new rows counted" (cells + 15) (Src_memo.retained ());
  check_int "nothing built" built0 (built ());
  ignore (read base);
  check_int "the predecessor left the memo" (built0 + 1) (built ())

let derived_cap_evicts_lru () =
  with_telemetry @@ fun () ->
  fresh_memo ();
  let e = Src_memo.entry ~retain:true (rows 10) in
  let s k = spec (X.Literal (Atomic.Integer k)) in
  let cap = Src_memo.src_derived_cap in
  for k = 0 to cap do
    ignore (Src_memo.derived e [| s k |])
  done;
  let columns () = Telemetry.value Telemetry.c_col_derived_columns in
  check_int "one column per spec" (cap + 1) (columns ());
  ignore (Src_memo.derived e [| s cap |]);
  check_int "the newest is kept" (cap + 1) (columns ());
  ignore (Src_memo.derived e [| s 0 |]);
  check_int "the least recently used left" (cap + 2) (columns ())

let suite =
  ( "src memo",
    [ Helpers.case "a source over the cell bound is served, not retained"
        over_bound_served_not_retained;
      Helpers.case "LRU eviction keeps the total under the bound"
        lru_keeps_total_under_bound;
      Helpers.case "an extended source takes over its predecessor" extension_takes_over;
      Helpers.case "past src_derived_cap the least recently used column leaves"
        derived_cap_evicts_lru ] )
