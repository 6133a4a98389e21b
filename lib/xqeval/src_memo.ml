module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item
module Node = Aqua_xml.Node
module X = Aqua_xquery.Ast
module Telemetry = Aqua_core.Telemetry
module Mcore = Aqua_multicore.Mcore
module Budget = Aqua_resilience.Budget

(* Step-name matching is compiled once per path step: the common case
   (unprefixed column access over unprefixed row children) costs one
   string equality per child, and the cross-prefix fallback compares
   local names in place instead of allocating the substrings
   [Node.local_name] would build for every candidate child. *)
let matches_local local el_name =
  let k = String.length local and n = String.length el_name in
  let start =
    match String.index_opt el_name ':' with None -> 0 | Some i -> i + 1
  in
  n - start = k
  &&
  let rec go j =
    j = k
    || String.unsafe_get el_name (start + j) = String.unsafe_get local j
       && go (j + 1)
  in
  go 0

let step_matcher step_name : string -> bool =
  if step_name = "*" then fun _ -> true
  else
    let local = Node.local_name step_name in
    fun el_name -> el_name = step_name || matches_local local el_name

let children_matching matches (item : Item.t) : Item.sequence =
  match item with
  | Item.Atomic _ -> Error.fail "path step applied to an atomic value"
  | Item.Node (Node.Text _) -> []
  | Item.Node (Node.Element e) ->
    List.filter_map
      (function
        | Node.Element c as n when matches c.name -> Some (Item.Node n)
        | Node.Element _ | Node.Text _ -> None)
      e.Node.children

(* A build table kept with its source, keyed by the build-key AST
   (compared structurally) and the value_cmp flag, which changes
   probe and poison semantics. *)
type jt_entry = {
  je_key : X.expr;
  je_cmp : bool;
  je_table : Join_table.t;
}

(* The interning state of a column's value ids, shared with the
   column's extensions, so an extended column keeps its rows' ids and
   numbers only the new ones. *)
type intern = {
  atoms : (Atomic.t, int) Hashtbl.t;
  mutable count : int;  (* ids handed out *)
  mutable empty : int;  (* the empty cell's id, -1 until one is seen *)
}

type ids = {
  id_of : int array;
  ix : intern;
  nids : int;
}

type jmemo = {
  jm_table : Join_table.t;
  mutable jm_rows : int list array;
}

let unprobed = [ -1 ]

type dcol = {
  dc_vals : Item.sequence array;
  dc_err : bool;
  mutable dc_keys : string array;
  mutable dc_cells : Kernels.cells option;
  mutable dc_ids : ids option;
  mutable dc_joins : jmemo list;
}

type dentry = {
  de_step : string;
  de_expr : X.expr;
  de_hash : int;  (* [Hashtbl.hash] of the expression, checked first *)
  de_col : dcol;
}

(* A row whose cell expression raised holds [cell_error] followed by
   the row's own cell, on which the expression is re-run to raise the
   same exception at the same read as an unmemoized evaluation would. *)
let cell_error = Item.Atomic (Atomic.String "#cell-error")

let read_cell derive (v : Item.sequence) =
  match v with x :: cell when x == cell_error -> derive cell | _ -> v

let make_dcol vals err =
  { dc_vals = vals; dc_err = err; dc_keys = [||]; dc_cells = None; dc_ids = None;
    dc_joins = [] }

let no_dcol = make_dcol [||] false

(* Group-key components and kernel readings are derived eagerly over
   the whole column on first use (an error cell is never read through
   them: its read raises first).  Components are interned: a key column
   holds one string per distinct value. *)
let keys d =
  if Array.length d.dc_keys = 0 && Array.length d.dc_vals > 0 then begin
    let seen = Hashtbl.create 64 in
    d.dc_keys <-
      Array.map
        (fun v ->
          let k = Group_key.component v in
          match Hashtbl.find_opt seen k with
          | Some k -> k
          | None ->
            Hashtbl.add seen k k;
            k)
        d.dc_vals
  end;
  d.dc_keys

let cells d =
  match d.dc_cells with
  | Some c -> c
  | None ->
    let c = Kernels.cells d.dc_vals in
    d.dc_cells <- Some c;
    c

let value_id ix (v : Item.sequence) =
  let fresh () =
    let i = ix.count in
    ix.count <- i + 1;
    i
  in
  match v with
  | x :: _ when x == cell_error -> fresh ()
  | [ Item.Atomic a ] -> (
    match Hashtbl.find_opt ix.atoms a with
    | Some i -> i
    | None ->
      let i = fresh () in
      Hashtbl.add ix.atoms a i;
      i)
  | [] ->
    if ix.empty < 0 then ix.empty <- fresh ();
    ix.empty
  | _ -> fresh ()

let id_values ix vals =
  let id_of = Array.map (value_id ix) vals in
  (id_of, ix.count)

let dcol_ids d =
  match d.dc_ids with
  | Some ids -> ids
  | None ->
    let ix = { atoms = Hashtbl.create 64; count = 0; empty = -1 } in
    let id_of, nids = id_values ix d.dc_vals in
    let ids = { id_of; ix; nids } in
    d.dc_ids <- Some ids;
    ids

(* The cell expression's value on each cell; equal single-atom values
   are shared (values are immutable, and a low-cardinality column then
   holds a few values).  The flag: some cell raised. *)
let derive_cells derive cells =
  let seen = Hashtbl.create 64 in
  let err = ref false in
  let vals =
    Array.map
      (fun cell ->
        match derive cell with
        | [ Item.Atomic a ] as v -> (
          match Hashtbl.find_opt seen a with
          | Some v -> v
          | None ->
            Hashtbl.add seen a v;
            v)
        | v -> v
        | exception _ ->
          err := true;
          cell_error :: cell)
      cells
  in
  (vals, !err)

(* [d] followed by the derived values of the new rows' cells, with its
   group-key components, kernel readings and value ids extended if
   built.  Probe results are not carried: the grown source's build
   tables are new. *)
let extend_dcol d derive cells =
  let fresh, err = derive_cells derive cells in
  let vals = Array.append d.dc_vals fresh in
  { dc_vals = vals;
    dc_err = d.dc_err || err;
    dc_keys =
      (if Array.length d.dc_keys = 0 then [||]
       else Array.append d.dc_keys (Array.map Group_key.component fresh));
    dc_cells = Option.map (fun c -> Kernels.extend_cells c vals) d.dc_cells;
    dc_ids =
      Option.map
        (fun ids ->
          let id_of, nids = id_values ids.ix fresh in
          { ids with id_of = Array.append ids.id_of id_of; nids })
        d.dc_ids;
    dc_joins = [] }

type entry = {
  se_src : Item.sequence;
  se_len : int;  (* rows in [se_src]; a column shorter than this lags *)
  mutable se_items : Item.t array;  (* [||] until a build needs it *)
  mutable se_cols : (string * Item.sequence array) list;
  mutable se_derived : dentry list;
  mutable se_tables : jt_entry list;
}

(* The kept entries, most recently used first.  Domain-local: the memo
   is probed on every scan read and hash-join build, and sharding it
   per domain keeps the probe lock-free.  Columns and build tables are
   immutable once built, and the table already shares the expensive
   part (the materialized source) across domains. *)
type memo = { mutable entries : entry list }

let memo : memo Mcore.Dls.key = Mcore.Dls.new_key (fun () -> { entries = [] })

let src_memo_cap = 8
let projected_cells_max = 65536
let src_tables_cap = 4
let src_derived_cap = 16

(* A derived column's cells: one per row, one more per row with value
   ids, and one per value id per join memo.  A memo's match lists are
   not counted: together they hold at most about one entry per build
   row per key, as the build table itself does. *)
let dcol_size d =
  Array.length d.dc_vals
  + (match d.dc_ids with Some ids -> Array.length ids.id_of | None -> 0)
  + List.fold_left (fun n j -> n + Array.length j.jm_rows) 0 d.dc_joins

let entry_cells e =
  List.fold_left
    (fun n d -> n + dcol_size d.de_col)
    (List.fold_left (fun n (_, col) -> n + Array.length col) 0 e.se_cols)
    e.se_derived

let retained () =
  List.fold_left (fun n e -> n + entry_cells e) 0 (Mcore.Dls.get memo).entries

let drop m e = m.entries <- List.filter (fun x -> x != e) m.entries

(* The one eviction routine, run whenever kept cells grew: an entry
   over the cell bound on its own leaves the memo (served, not
   retained), then least recently used entries leave until the total
   fits.  [serving], the entry a caller is reading, is never the one
   made room for. *)
let settle ?serving () =
  let m = Mcore.Dls.get memo in
  List.iter (fun e -> if entry_cells e > projected_cells_max then drop m e) m.entries;
  ignore
    (List.fold_left
       (fun total e ->
         if total <= projected_cells_max || Option.fold ~none:false ~some:(( == ) e) serving
         then total
         else begin
           let n = entry_cells e in
           drop m e;
           total - n
         end)
       (retained ()) (List.rev m.entries))

let ids d =
  match d.dc_ids with
  | Some ids -> ids
  | None ->
    let ids = dcol_ids d in
    settle ();
    ids

(* The number of items that follow [prefix] in [src] when [prefix] is a
   non-empty strict prefix of it, item by item physically; the first
   items are compared first, so an unrelated source is rejected at
   once. *)
let extension_of prefix src =
  let rec go prefix src =
    match (prefix, src) with
    | [], _ :: _ -> Some (List.length src)
    | p :: prefix, s :: src when p == s -> go prefix src
    | _ -> None
  in
  match prefix with [] -> None | _ -> go prefix src

let fresh_entry src len cols derived =
  { se_src = src; se_len = len; se_items = [||]; se_cols = cols;
    se_derived = derived; se_tables = [] }

(* A retained entry is found by the source's physical identity, or
   created on a miss: as the extension of a kept entry whose source it
   extends, which then leaves the memo, or empty. *)
let entry ~retain (src : Item.sequence) =
  if not retain then fresh_entry src (List.length src) [] []
  else
    let m = Mcore.Dls.get memo in
    match m.entries with
    | e :: _ when e.se_src == src -> e
    | _ -> (
      match List.find_opt (fun e -> e.se_src == src) m.entries with
      | Some e ->
        m.entries <- e :: List.filter (fun x -> x != e) m.entries;
        e
      | None ->
        let grown =
          List.find_map
            (fun p -> Option.map (fun k -> (p, k)) (extension_of p.se_src src))
            m.entries
        in
        let e =
          match grown with
          | Some (p, k) ->
            drop m p;
            fresh_entry src (p.se_len + k) p.se_cols p.se_derived
          | None -> fresh_entry src (List.length src) [] []
        in
        m.entries <- e :: m.entries;
        List.iteri (fun i x -> if i >= src_memo_cap then drop m x) m.entries;
        e)

(* Column [d]'s probe results against build table [t], or [None] the
   first time the pair is seen: a column probed once against a table (a
   statement run once) pays for no ids and no memo.  The second time,
   the memo is allocated empty (value ids built on first use) and
   counted against the bound.  A new pair drops those whose table no
   kept entry holds any more (its source grew or left the memo), and at
   most [src_tables_cap] stay. *)
let join_memo d t =
  match List.find_opt (fun j -> j.jm_table == t) d.dc_joins with
  | Some j ->
    if Array.length j.jm_rows = 0 then begin
      j.jm_rows <- Array.make (dcol_ids d).nids unprobed;
      settle ()
    end;
    Some j
  | None ->
    let held j =
      List.exists
        (fun e -> List.exists (fun x -> x.je_table == j.jm_table) e.se_tables)
        (Mcore.Dls.get memo).entries
    in
    d.dc_joins <-
      { jm_table = t; jm_rows = [||] }
      :: List.filteri (fun k _ -> k < src_tables_cap - 1) (List.filter held d.dc_joins);
    None

let rec drop_items k items =
  match items with _ :: more when k > 0 -> drop_items (k - 1) more | _ -> items

(* [step]'s cells of the rows after the first [from]. *)
let step_cells e step from =
  match Optimize.assoc_str step e.se_cols with
  | Some col when Array.length col = e.se_len -> Array.sub col from (e.se_len - from)
  | _ ->
    let matches = step_matcher step in
    Array.of_list (List.map (children_matching matches) (drop_items from e.se_src))

let build_column e step =
  Telemetry.incr Telemetry.c_col_projected_columns;
  step_cells e step 0

let columns e steps =
  Array.of_list
    (List.map
       (fun step ->
         match Optimize.assoc_str step e.se_cols with
         | Some col when Array.length col = e.se_len ->
           Telemetry.incr Telemetry.c_col_projection_hits;
           col
         | Some col ->
           let col = Array.append col (step_cells e step (Array.length col)) in
           e.se_cols <-
             (step, col)
             :: List.filter (fun (s, _) -> not (String.equal s step)) e.se_cols;
           settle ~serving:e ();
           Telemetry.incr Telemetry.c_col_projection_hits;
           col
         | None ->
           let col = build_column e step in
           e.se_cols <- (step, col) :: e.se_cols;
           settle ~serving:e ();
           col)
       steps)

type spec = string * X.expr * int * (Item.sequence -> Item.sequence)

(* A miss derives over every row of the step's column — the retained
   one, or one built for the purpose and then dropped; a column that
   lags the source derives over the new rows only. *)
let derived e (specs : spec array) =
  let scratch = ref [] in
  let base step =
    match Optimize.assoc_str step e.se_cols with
    | Some col when Array.length col = e.se_len -> col
    | _ -> (
      match Optimize.assoc_str step !scratch with
      | Some col -> col
      | None ->
        let col = build_column e step in
        scratch := (step, col) :: !scratch;
        col)
  in
  Array.map
    (fun (step, expr, hash, derive) ->
      match
        List.find_opt
          (fun d ->
            d.de_hash = hash && String.equal d.de_step step && compare d.de_expr expr = 0)
          e.se_derived
      with
      | Some d ->
        Telemetry.incr Telemetry.c_col_derived_hits;
        Telemetry.incr Telemetry.c_col_projection_hits;
        let from = Array.length d.de_col.dc_vals in
        let d' =
          if from = e.se_len then d
          else { d with de_col = extend_dcol d.de_col derive (step_cells e step from) }
        in
        if d' != d || List.hd e.se_derived != d then
          e.se_derived <- d' :: List.filter (fun x -> x != d) e.se_derived;
        if d' != d then settle ~serving:e ();
        d'.de_col
      | None ->
        let vals, err = derive_cells derive (base step) in
        let d = make_dcol vals err in
        Telemetry.incr Telemetry.c_col_derived_columns;
        (* at most [src_derived_cap] per source, least recently used
           out: a source read by many distinct statements would
           otherwise fill the cell bound with columns read once *)
        e.se_derived <-
          { de_step = step; de_expr = expr; de_hash = hash; de_col = d }
          :: List.filteri (fun k _ -> k < src_derived_cap - 1) e.se_derived;
        settle ~serving:e ();
        d)
    specs

(* Row positions as cells, shared by every source; retained up to the
   cell bound. *)
let row_cells : Item.sequence array ref Mcore.Dls.key =
  Mcore.Dls.new_key (fun () -> ref [||])

let rows_upto n =
  let r = Mcore.Dls.get row_cells in
  if Array.length !r >= n then !r
  else begin
    let size =
      if n > projected_cells_max then n
      else min projected_cells_max (max n (2 * Array.length !r))
    in
    let a = Array.init size (fun i -> [ Item.Atomic (Atomic.Integer i) ]) in
    if size <= projected_cells_max then r := a;
    a
  end

let row_of (v : Item.sequence) =
  match v with [ Item.Atomic (Atomic.Integer r) ] -> r | _ -> assert false

(* A reusable build (the test that lets the optimizer fire a correlated
   probe) is looked up and, on a miss, stored, so the first invocation
   pays for the rest; any other is built from the entry's array. *)
let join_table ~reusable e key value_cmp ~key_of =
  let items () =
    (match (e.se_items, e.se_src) with
    | [||], _ :: _ -> e.se_items <- Array.of_list e.se_src
    | _ -> ());
    e.se_items
  in
  let build () = Join_table.build (items ()) ~key_of ~value_cmp in
  if not reusable then build ()
  else
    match
      List.find_opt (fun t -> t.je_cmp = value_cmp && t.je_key = key) e.se_tables
    with
    | Some t ->
      (* budget parity with a real build: every invocation still
         charges the item governor for the build rows it stands in for *)
      Budget.tick_items (Array.length t.je_table.Join_table.items);
      Telemetry.incr Telemetry.c_hash_join_reused;
      t.je_table
    | None ->
      let t = build () in
      let kept = List.filteri (fun i _ -> i < src_tables_cap - 1) e.se_tables in
      e.se_tables <- { je_key = key; je_cmp = value_cmp; je_table = t } :: kept;
      t
