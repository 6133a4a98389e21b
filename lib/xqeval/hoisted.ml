module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item
module Telemetry = Aqua_core.Telemetry
module Mcore = Aqua_multicore.Mcore
module Budget = Aqua_resilience.Budget

(* The probe table of a quantifier over a hoisted value: its items'
   child cells hashed, [single] when no cell holds more than one atom,
   [null] when some cell is empty; [Q_nested] when some item is not a
   node, so reading a cell raises and only the nested loop says where. *)
type quant_table =
  | Q_nested
  | Q_probe of { single : bool; null : bool; tbl : Join_table.t }

(* The set operations' match table: the right-hand records by their
   composite null-safe key.  [so_exact]: every item is a node whose key
   cells are each empty or one string-class atom (untypedAtomic or
   string), where comparing is comparing strings, so equal keys are
   exactly matching records.  [so_rows] maps a key to its rows,
   newest first. *)
type setop_table = {
  so_exact : bool;
  so_items : Item.t array;
  so_rows : (string, int) Hashtbl.t;
}

type run_slot =
  | R_pending
  | R_value of Item.sequence
  | R_failed of exn * Printexc.raw_backtrace
  | R_set of Join_table.t
  | R_quant of quant_table
  | R_setop of setop_table

let run_slots : run_slot array ref Mcore.Dls.key =
  Mcore.Dls.new_key (fun () -> ref [||])

let current_run () = !(Mcore.Dls.get run_slots)

let hoisted_value k (c : Operator.comp) rt =
  let st = current_run () in
  match st.(k) with
  | R_value v -> v
  | R_failed (e, bt) -> Printexc.raise_with_backtrace e bt
  | _ -> (
    match c rt with
    | v ->
      st.(k) <- R_value v;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      st.(k) <- R_failed (e, bt);
      Printexc.raise_with_backtrace e bt)

(* the general-comparison hash set over [set]'s atoms, once per run *)
let set_table k (set : Item.sequence) =
  let st = current_run () in
  match st.(k) with
  | R_set t -> t
  | _ ->
    let items = Array.of_list set in
    let t = Join_table.build_keyed items (Array.map (fun i -> Item.atomize [ i ]) items) in
    st.(k) <- R_set t;
    t

let quant_table k matches (set : Item.sequence) =
  let st = current_run () in
  match st.(k) with
  | R_quant q -> q
  | _ ->
    let items = Array.of_list set in
    let q =
      match Array.map (fun i -> Item.atomize (Src_memo.children_matching matches i)) items with
      | cells ->
        Q_probe
          { single = Array.for_all (function [] | [ _ ] -> true | _ -> false) cells;
            null = Array.exists (( = ) []) cells;
            tbl = Join_table.build_keyed items cells }
      | exception Error.Dynamic_error _ -> Q_nested
    in
    st.(k) <- R_quant q;
    q

(* Appends one column's component of a set-op key: for an empty cell
   or one string-class atom; [false] for anything else. *)
let setop_component buf (v : Item.sequence) =
  match Item.atomize v with
  | [] ->
    Group_key.add_component buf [];
    true
  | [ (Atomic.Untyped _ | Atomic.String _) as a ] ->
    Group_key.add_component buf [ Item.Atomic a ];
    true
  | _ -> false

let setop_table k matchers (set : Item.sequence) =
  let st = current_run () in
  match st.(k) with
  | R_setop t -> t
  | _ ->
    let items = Array.of_list set in
    Budget.tick_items (Array.length items);
    Telemetry.incr Telemetry.c_hash_join_builds;
    Telemetry.add Telemetry.c_hash_join_build_rows (Array.length items);
    let rows = Hashtbl.create (max 16 (Array.length items)) in
    let buf = Buffer.create 64 in
    let exact =
      match
        Array.iteri
          (fun r item ->
            Buffer.clear buf;
            if
              Array.for_all
                (fun m -> setop_component buf (Src_memo.children_matching m item))
                matchers
            then Hashtbl.add rows (Buffer.contents buf) r
            else raise Exit)
          items
      with
      | () -> true
      | exception (Exit | Error.Dynamic_error _) -> false
    in
    let t = { so_exact = exact; so_items = items; so_rows = rows } in
    st.(k) <- R_setop t;
    t

(* [f x] as one run with [n] fresh slots, the enclosing run's put back
   after. *)
let within n f x =
  if n = 0 then f x
  else begin
    let cur = Mcore.Dls.get run_slots in
    let outer = !cur in
    cur := Array.make n R_pending;
    match f x with
    | v ->
      cur := outer;
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      cur := outer;
      Printexc.raise_with_backtrace e bt
  end
