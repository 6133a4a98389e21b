module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item
module Node = Aqua_xml.Node
module X = Aqua_xquery.Ast
module Telemetry = Aqua_core.Telemetry
module Mcore = Aqua_multicore.Mcore
module Budget = Aqua_resilience.Budget
module Failpoint = Aqua_resilience.Failpoint

exception Compile_error of string

let cfail fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt
let dfail = Error.fail

(* Runtime environment: one mutable slot per statically-resolved
   variable.  Sequential evaluation makes slot mutation safe; clauses
   that reorder tuples (order by, group by) snapshot the array. *)
type rt = Item.sequence array

type comp = rt -> Item.sequence

type resolver = string -> Eval.external_fn option

(* What the lowering decided for one operator, kept as data and
   formatted only by [shape].  Counts are the engine's slot counts:
   [inputs] the columns valid in the batch the operator receives
   (computed on demand), [carried] those it copies into its output. *)
type note =
  | N_expander of {
      label : string;  (* "for $v" or "hash-join $v" *)
      var : string;
      inputs : int Lazy.t;
      carried : int;
      var_written : bool;
      steps : string list;  (* the projected scan columns bound *)
      written : string list;  (* of those, the ones written *)
      cells : (Optimize.derived * bool) list;  (* derived; value written *)
      row_written : bool;  (* the scan row position *)
      probe_id : Optimize.derived option;  (* a hash join probing by value id *)
    }
  | N_group of {
      label : string;
      kernels : Optimize.kernel_spec list option;  (* [None]: materialized *)
      inputs : int Lazy.t;
      carried : int;
      keys : int;
      key_id : Optimize.derived option;  (* the single key read by value id *)
    }
  | N_order of { inputs : int Lazy.t; retained : int }
  | N_skipped of string * X.expr  (* a let nothing reads, not built *)
  | N_text of int  (* a text-writer sink and its cells per row *)

(* Compile-time environment: name -> slot. *)
type cenv = {
  slots : (string * int) list;
  next : int ref;
  resolve : resolver;
  node_fns : string -> bool;
      (* external functions known to return only nodes *)
  consts : (string * int) list;
      (* the plan's external variables and their slots: each holds one
         value for the whole run, so a pipeline reads it like a literal
         (a point lookup's constant) and never carries it per row *)
  cells : (string * (Item.sequence -> Item.sequence)) list;
      (* derived cell variables in scope, with the cell expression
         each one memoizes (re-run on an error cell to re-raise) *)
  notes : note option ref list ref;
      (* the plan's operator notes, newest first; a place is reserved
         before an operator compiles its expressions, so its note
         precedes those of the FLWORs nested in them *)
}

let reserve_note cenv =
  let r = ref None in
  cenv.notes := r :: !(cenv.notes);
  r

let bind_slot cenv name =
  let slot = !(cenv.next) in
  incr cenv.next;
  ({ cenv with slots = (name, slot) :: cenv.slots }, slot)

let const_names cenv =
  List.fold_left (fun s (v, _) -> Optimize.Vars.add v s) Optimize.Vars.empty
    cenv.consts

let lookup_slot cenv name =
  match Optimize.assoc_str name cenv.slots with
  | Some slot -> slot
  | None -> cfail "undefined variable $%s" name

let normalize_content = Functions.normalize_content

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

let compile_step_matcher step_name : string -> bool =
  if step_name = "*" then fun _ -> true
  else
    let local = Node.local_name step_name in
    fun el_name -> el_name = step_name || matches_local local el_name

let children_matching matches (item : Item.t) : Item.sequence =
  match item with
  | Item.Atomic _ -> dfail "path step applied to an atomic value"
  | Item.Node (Node.Text _) -> []
  | Item.Node (Node.Element e) ->
    List.filter_map
      (function
        | Node.Element c as n when matches c.name -> Some (Item.Node n)
        | Node.Element _ | Node.Text _ -> None)
      e.Node.children

(* Lexicographic comparison over pre-atomized order-by keys; [ckeys]
   pairs each key position with its (compiled key, descending, empty)
   spec, of which only the modifiers are read here. *)
let compare_order_keys ckeys ka kb =
  let rec go ks =
    match ks with
    | [] -> 0
    | ((a, b), (_, desc, empty)) :: more ->
      let c =
        match (a, b) with
        | [], [] -> 0
        | [], _ -> (
          match empty with X.Empty_least -> -1 | X.Empty_greatest -> 1)
        | _, [] -> (
          match empty with X.Empty_least -> 1 | X.Empty_greatest -> -1)
        | x :: _, y :: _ -> Atomic.compare_values x y
      in
      let c = if desc then -c else c in
      if c <> 0 then c else go more
  in
  go (List.combine (List.combine ka kb) ckeys)

(* Cross-invocation memo of scan sources: array view, projected
   columns and hash-join build tables.

   [Server.execute] recompiles its plan on every call, so a memo inside
   the compiled closure would never survive long enough to hit.  A
   closed source (no free variables, as for a reusable build or a
   projected scan) evaluates to the same
   sequence in every tuple and, through the dsp scan cache, across
   invocations — the physically same list until its table grows.
   Everything derived from the list alone is therefore memoized against
   its physical identity.  Lists and nodes are immutable, so a hit
   serves exactly what a rebuild would.

   A table only grows by appending, and the scan cache extends a stale
   scan by the new rows behind its own items.  So on an identity miss
   a kept entry whose source is a strict prefix of the new one, item by
   item physically, is extended instead of rebuilt: equal items have
   equal cells, so only the new rows are read.  The new entry takes the
   predecessor's columns and cells (the predecessor leaves the memo),
   and each column catches up by the new rows when it is next read.  A
   fresh materialization shares no item with a kept source and simply
   misses.

   Per source the memo keeps:
   - the array view, built for the first hash-join build (builds index
     it in place);
   - projected columns: for a step name, [children_matching] of every
     row, so a scan column read is an array index;
   - derived cell columns: for a (step, cell expression) pair, the
     expression's value on every row's cell ([Optimize.derive]), plus,
     built on first use, each value's group-key component, kernel
     reading and value id (extended with the column), and the probe
     results of the column's value ids against build tables;
   - build tables keyed by the build-key AST and the value_cmp flag,
     when the build key reads nothing but the join variable
     ([Optimize.reusable_build]); an extended entry rebuilds them on
     first use.

   The memo is a short move-to-front list, bounded by entry count and
   by a fixed total of projected and derived cells (value ids and probe
   results included); a source whose own columns exceed the cell bound
   is served but not retained.  A
   projected column built only to derive from is not retained either:
   once its derived columns exist nothing reads it.  Stale entries age
   out by eviction. *)
type jt_entry = {
  je_key : X.expr;  (* build-key AST, compared structurally *)
  je_cmp : bool;  (* value_cmp flag — changes probe/poison semantics *)
  je_table : Join_table.t;
}

(* Dense value ids of a derived column: one id per distinct cell value,
   numbered in order of first appearance.  Equal single atoms share an
   id, so do all empty cells; a multi-atom cell and an error cell each
   get their own.  Ids are a refinement of both keyings that read them:
   two rows with one id hold the same value, hence the same group-key
   component and the same probe result (the reverse does not hold:
   [Integer 5] and [Double 5.0] share a component under two ids).  The
   interning state is shared with the column's extensions, so an
   extended column keeps its rows' ids and numbers only the new ones. *)
type intern = {
  atoms : (Atomic.t, int) Hashtbl.t;
  mutable count : int;  (* ids handed out *)
  mutable empty : int;  (* the empty cell's id, -1 until one is seen *)
}

type ids = {
  id_of : int array;  (* by row *)
  ix : intern;
  nids : int;  (* every id in [id_of] is below it *)
}

(* One build table's matches by probe value id, filled one id at a time
   ([unprobed] until then).  Keyed by the table's physical identity,
   which also fixes the comparison (builds are cached per [value_cmp]
   flag): a rebuilt table (its source grew) starts a new memo.
   [jm_rows] is empty until the pair is seen a second time. *)
type jmemo = {
  jm_table : Join_table.t;
  mutable jm_rows : int list array;
}

let unprobed = [ -1 ]

(* A derived cell column.  A row whose cell expression raised holds an
   error cell: [cell_error] followed by the row's own cell, on which the
   expression is re-run to raise the same exception at the same read as
   an unmemoized evaluation would. *)
type dcol = {
  dc_vals : Item.sequence array;
  dc_err : bool;  (* some row holds an error cell *)
  mutable dc_keys : string array;  (* group-key components, on first use *)
  mutable dc_cells : Kernels.cells option;  (* kernel readings, on first use *)
  mutable dc_ids : ids option;  (* value ids, on first use *)
  mutable dc_joins : jmemo list;  (* probe results, most recent first *)
}

type dentry = {
  de_step : string;
  de_expr : X.expr;
  de_hash : int;  (* [Hashtbl.hash] of the expression, checked first *)
  de_col : dcol;
}

let cell_error = Item.Atomic (Atomic.String "#cell-error")

let read_cell derive (v : Item.sequence) =
  match v with x :: cell when x == cell_error -> derive cell | _ -> v

let make_dcol vals err =
  { dc_vals = vals; dc_err = err; dc_keys = [||]; dc_cells = None; dc_ids = None;
    dc_joins = [] }

let no_dcol = make_dcol [||] false

(* A derived column's group-key components and kernel readings,
   derived eagerly over the whole column on first use (an error cell is
   never read through them: its read raises first).  Components are
   interned: a key column holds one string per distinct value. *)
let dcol_keys d =
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

let dcol_cells d =
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

type src_entry = {
  se_src : Item.sequence;
  se_len : int;  (* rows in [se_src]; a column shorter than this lags *)
  mutable se_items : Item.t array;  (* [||] until a build needs it *)
  mutable se_cols : (string * Item.sequence array) list;
  mutable se_derived : dentry list;
  mutable se_tables : jt_entry list;
  mutable se_kept : bool;  (* still in the memo, its cells counted *)
}

type src_memo = {
  mutable entries : src_entry list;  (* most recently used first *)
  mutable cells : int;  (* cells of the kept entries *)
}

(* Domain-local for the same reason as the batch pools below: the
   memo is probed on every scan read and hash-join build, and sharding
   it per domain keeps the probe lock-free.  Columns and build tables
   are immutable once built, and the scan cache already shares the
   expensive part (the materialized source) across domains. *)
let src_memo : src_memo Mcore.Dls.key =
  Mcore.Dls.new_key (fun () -> { entries = []; cells = 0 })

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

let entry_items e =
  (match (e.se_items, e.se_src) with
  | [||], _ :: _ -> e.se_items <- Array.of_list e.se_src
  | _ -> ());
  e.se_items

let drop_entry m e =
  if e.se_kept then begin
    e.se_kept <- false;
    m.cells <- m.cells - entry_cells e;
    m.entries <- List.filter (fun x -> x != e) m.entries
  end

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

(* The memo entry of a closed source, created on a miss: as the
   extension of a kept entry whose source it extends, which then leaves
   the memo (its cells, now the new entry's, stay counted), or empty. *)
let src_entry (src : Item.sequence) =
  let m = Mcore.Dls.get src_memo in
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
          (fun p ->
            Option.map (fun k -> (p, k)) (extension_of p.se_src src))
          m.entries
      in
      let e =
        match grown with
        | Some (p, k) ->
          p.se_kept <- false;
          m.entries <- List.filter (fun x -> x != p) m.entries;
          { se_src = src; se_len = p.se_len + k; se_items = [||];
            se_cols = p.se_cols; se_derived = p.se_derived; se_tables = [];
            se_kept = true }
        | None ->
          { se_src = src; se_len = List.length src; se_items = [||];
            se_cols = []; se_derived = []; se_tables = []; se_kept = true }
      in
      m.entries <- e :: m.entries;
      (match List.filteri (fun i _ -> i >= src_memo_cap) m.entries with
      | [] -> ()
      | old -> List.iter (drop_entry m) old);
      e)

(* Count [n] new cells of entry [e] against the bound: an entry over
   the bound on its own is dropped (served, not retained), otherwise
   least recently used entries make room. *)
let account e n =
  if e.se_kept then begin
    let m = Mcore.Dls.get src_memo in
    m.cells <- m.cells + n;
    if entry_cells e > projected_cells_max then drop_entry m e
    else
      while m.cells > projected_cells_max do
        match List.rev (List.filter (fun x -> x != e) m.entries) with
        | lru :: _ -> drop_entry m lru
        | [] -> assert false
      done
  end

(* The same check after a derived column grew in place or was replaced
   by its extension (value ids built, a join memo added or dropped): the
   column does not know its entry, so the total is counted afresh from
   the kept entries, whichever of them holds it. *)
let recount () =
  let m = Mcore.Dls.get src_memo in
  m.cells <- List.fold_left (fun n e -> n + entry_cells e) 0 m.entries;
  List.iter
    (fun e -> if entry_cells e > projected_cells_max then drop_entry m e)
    m.entries;
  while m.cells > projected_cells_max do
    match List.rev m.entries with
    | lru :: _ -> drop_entry m lru
    | [] -> assert false
  done

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
      recount ()
    end;
    Some j
  | None ->
    let held j =
      List.exists
        (fun e -> List.exists (fun x -> x.je_table == j.jm_table) e.se_tables)
        (Mcore.Dls.get src_memo).entries
    in
    let old = d.dc_joins in
    d.dc_joins <-
      { jm_table = t; jm_rows = [||] }
      :: List.filteri (fun k _ -> k < src_tables_cap - 1) (List.filter held old);
    if
      List.exists
        (fun j -> Array.length j.jm_rows > 0 && not (List.memq j d.dc_joins))
        old
    then recount ();
    None

let rec drop_items k items =
  match items with _ :: more when k > 0 -> drop_items (k - 1) more | _ -> items

(* [step]'s cells of the rows after the first [from]. *)
let step_cells e step from =
  match Optimize.assoc_str step e.se_cols with
  | Some col when Array.length col = e.se_len ->
    Array.sub col from (e.se_len - from)
  | _ ->
    let matches = compile_step_matcher step in
    Array.of_list
      (List.map (children_matching matches) (drop_items from e.se_src))

let build_column e step =
  Telemetry.incr Telemetry.c_col_projected_columns;
  step_cells e step 0

(* The projected columns [steps] of a memoized source, one vector per
   step, indexed by position in the source.  A column that lags the
   source is extended by the new rows; it counts as a hit. *)
let src_columns e steps =
  Array.of_list
    (List.map
       (fun step ->
         match Optimize.assoc_str step e.se_cols with
         | Some col when Array.length col = e.se_len ->
           Telemetry.incr Telemetry.c_col_projection_hits;
           col
         | Some col ->
           let from = Array.length col in
           let col = Array.append col (step_cells e step from) in
           e.se_cols <-
             (step, col)
             :: List.filter (fun (s, _) -> not (String.equal s step)) e.se_cols;
           account e (e.se_len - from);
           Telemetry.incr Telemetry.c_col_projection_hits;
           col
         | None ->
           let col = build_column e step in
           e.se_cols <- (step, col) :: e.se_cols;
           account e (Array.length col);
           col)
       steps)

(* The derived cell columns [specs] (step, cell expression, its
   evaluator) of a memoized source.  A miss derives over every row of
   the step's column — the retained one, or one built for the purpose
   and then dropped; a column that lags the source derives over the new
   rows only.  A hit also counts as a projection hit: it is a scan
   column served from the memo. *)
let src_derived e specs =
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
            d.de_hash = hash && String.equal d.de_step step
            && compare d.de_expr expr = 0)
          e.se_derived
      with
      | Some d ->
        Telemetry.incr Telemetry.c_col_derived_hits;
        Telemetry.incr Telemetry.c_col_projection_hits;
        let from = Array.length d.de_col.dc_vals in
        let d' =
          if from = e.se_len then d
          else
            { d with de_col = extend_dcol d.de_col derive (step_cells e step from) }
        in
        if d' != d || List.hd e.se_derived != d then
          e.se_derived <- d' :: List.filter (fun x -> x != d) e.se_derived;
        if d' != d then recount ();
        d'.de_col
      | None ->
        let vals, err = derive_cells derive (base step) in
        let d = make_dcol vals err in
        Telemetry.incr Telemetry.c_col_derived_columns;
        (* at most [src_derived_cap] per source, least recently used
           out: a source read by many distinct statements would
           otherwise fill the cell bound with columns read once *)
        let old = e.se_derived in
        e.se_derived <-
          { de_step = step; de_expr = expr; de_hash = hash; de_col = d }
          :: List.filteri (fun k _ -> k < src_derived_cap - 1) old;
        if e.se_kept then begin
          let m = Mcore.Dls.get src_memo in
          List.iteri
            (fun k x ->
              if k >= src_derived_cap - 1 then m.cells <- m.cells - dcol_size x.de_col)
            old
        end;
        account e (Array.length vals);
        d)
    specs

(* Row positions as cells ([[xs:integer r]]), shared by every source:
   a tuple carries its scan row this way to the kernels and group keys
   that read derived columns.  Grown on demand, retained up to the cell
   bound. *)
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

(* The build table for one hash-join invocation over a memoized source.
   [reusable] is [Optimize.reusable_build] of the clause — the same
   test that lets the optimizer fire a correlated probe — and selects
   the cache; a miss builds and stores, so the first invocation pays
   for the rest. *)
let entry_join_table ~reusable e key value_cmp ~key_of =
  let build () = Join_table.build (entry_items e) ~key_of ~value_cmp in
  if not reusable then build ()
  else
    match
      List.find_opt
        (fun t -> t.je_cmp = value_cmp && t.je_key = key)
        e.se_tables
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

let join_table ~reusable src key value_cmp ~key_of =
  if reusable then entry_join_table ~reusable (src_entry src) key value_cmp ~key_of
  else Join_table.build (Array.of_list src) ~key_of ~value_cmp

(* ------------------------------------------------------------------ *)
(* Columnar (struct-of-arrays) pipeline plumbing

   Batches carry one value vector per bound variable ([Batch.columns]):
   operators read and write whole columns under a selection vector, and
   expanders and barriers copy only the columns the remainder of the
   pipeline can still read (required-column pruning, computed from
   [Optimize.free_vars] at compile time).  Per-row expression
   evaluation reuses the scalar closures: each operator gathers just
   its own free-variable columns into a per-invocation scratch slot
   array and runs the ordinary [comp] on it. *)

(* Push-based operator chain: one [csink] per clause, pushing into the
   next.  [cflush] drains barrier state (sort/group buffers, partial
   output batches) at end of stream. *)
type csink = {
  cpush : Batch.columns -> unit;
  cflush : unit -> unit;
}

(* Per-invocation context: capacity, pooled allocator, telemetry flag,
   total slot count and the shared scratch row.  The scratch is safe to
   share across the chain because every operator (re)gathers its
   columns per selected row before evaluating, and nothing reads it
   across a downstream emission. *)
type cctx = {
  ccap : int;
  calloc : unit -> Batch.columns;
  cinstr : bool;
  cnslots : int;
  cscratch : rt;
  cdcols : dcol array;
      (* this invocation's derived cell columns, by the FLWOR's cell
         index: an expander publishes them for the kernels and group
         keys downstream *)
}

(* Batch emission bookkeeping, bumped only where a batch is created
   (the initial feed and expander/barrier emissions): a failpoint site
   per batch boundary, the xqeval.batch.* counters and the
   xqeval.columnar.* traffic counters. *)
let cnote_batch n =
  Failpoint.hit "xqeval.batch";
  Telemetry.incr Telemetry.c_batch_batches;
  Telemetry.add Telemetry.c_batch_rows n;
  Telemetry.incr Telemetry.c_col_batches;
  Telemetry.add Telemetry.c_col_rows n

(* Batch buffers are pooled: [Server.execute] recompiles its plan on
   every call, so a per-closure pool would never see a second
   invocation, and at large batch sizes the O(capacity) buffer
   allocation per call is the dominant driver cost.  Acquire removes a
   buffer from the pool (re-entrant pipelines therefore just take
   distinct buffers) and re-shapes it to the current plan's slot count
   and capacity ([Batch.ensure_columns]); a normal completion returns
   them, a failed invocation drops them to the GC.  The pool is bounded,
   because pooled buffers retain the last invocation's values until
   overwritten.

   Pools are domain-local: pooled buffers are written in place by
   whichever pipeline holds them, so two domains must never draw from
   one pool.  Per-domain pools need no locking and no cross-core cache
   traffic; the cost is one pool's worth of buffers per serving
   domain. *)
let cbatch_pools : (int * Batch.columns list ref) list ref Mcore.Dls.key =
  Mcore.Dls.new_key (fun () -> ref [])

let cbatch_pool_caps = 8  (* distinct batch capacities kept alive *)
let cbatch_pool_cap = 16  (* buffers kept per capacity *)

let take n l = List.filteri (fun i _ -> i < n) l

let cbatch_pool_for cap =
  let cbatch_pools = Mcore.Dls.get cbatch_pools in
  match List.assoc_opt cap !cbatch_pools with
  | Some p -> p
  | None ->
    let p = ref [] in
    cbatch_pools := (cap, p) :: take (cbatch_pool_caps - 1) !cbatch_pools;
    p

let cbatch_release (pool : Batch.columns list ref) acquired =
  pool := take cbatch_pool_cap (List.rev_append acquired !pool)

let ccounter cctx label =
  if not cctx.cinstr then fun _ -> ()
  else begin
    let c = Telemetry.clause_counter label in
    fun n ->
      if n > 0 then begin
        Telemetry.add c n;
        Telemetry.add Telemetry.c_rows_emitted n
      end
  end

(* Columnar clause plan: plain clauses, plus group-by clauses whose
   post-group aggregate reads were fused into vectorized kernels (the
   partition is then never materialized). *)
type cclause =
  | C_plain of X.clause
  | C_kernel of {
      ck_partition : string;
      ck_keys : (X.expr * string) list;
      ck_specs : Optimize.kernel_spec list;
      ck_orig : X.clause;
          (* the original [Group], for clause failpoints and node tracking *)
    }

let cclause_view = function C_plain c -> c | C_kernel k -> k.ck_orig

(* An expander's derived cells: their indices among the FLWOR's cells,
   what [src_derived] needs to fetch them, the row-position slot (-1
   when nothing reads it) and each cell's value slot (-1 likewise). *)
type derivation = {
  dn_ids : int array;
  dn_specs : (string * X.expr * int * (Item.sequence -> Item.sequence)) array;
  dn_row : int;
  dn_live : (int * int) array;  (* (cell position, value slot) still read *)
}

(* A group key or kernel input: a whole derived cell, read through the
   tuple's row position (cell index, row slot, the cell expression's
   evaluator), or any other expression. *)
type cinput =
  | In_cell of int * int * (Item.sequence -> Item.sequence)
  | In_expr of comp

(* The scan row of a derived input, raising its error cell's
   exception. *)
let cell_row (dcols : dcol array) id rs derive (scratch : rt) =
  let r = row_of scratch.(rs) in
  let d = dcols.(id) in
  if d.dc_err then ignore (read_cell derive d.dc_vals.(r));
  r

(* Per invocation: the group slot of the tuple in the scratch row —
   dense, in first-seen order — and, for a new group, its key values.
   Groups are told apart by the key string, byte for byte
   [Group_key.composite_into] over the key values: a derived key
   splices its memoized component, any other key is evaluated once, in
   key order, so the first error raised is the same.  A single derived
   key reads its memoized component only the first time a value id is
   seen: the slot of every later row with that id is an array read. *)
type key_reader = {
  kr_slot : rt -> int;
  kr_values : unit -> Item.sequence list;
}

let key_reader (dcols : dcol array) (keys : cinput array) =
  let n = Array.length keys in
  let vals = Array.make n [] and rows = Array.make n 0 in
  let buf = Buffer.create 64 in
  let table = Hashtbl.create 16 in
  let slot_of_string k =
    match Hashtbl.find_opt table k with
    | Some s -> s
    | None ->
      let s = Hashtbl.length table in
      Hashtbl.add table k s;
      s
  in
  let load scratch i =
    match keys.(i) with
    | In_cell (id, rs, derive) -> rows.(i) <- cell_row dcols id rs derive scratch
    | In_expr c -> vals.(i) <- c scratch
  in
  let kr_slot =
    match keys with
    | [| In_cell (id, _, _) |] ->
      (* the id -> slot array of the column last read: a column
         republished mid-invocation (its source grew) starts a new one,
         the string table still deciding the slots *)
      let cur = ref no_dcol and ids = ref [||] and slots = ref [||] in
      fun scratch ->
        load scratch 0;
        let d = dcols.(id) in
        if d != !cur then begin
          let built = Option.is_none d.dc_ids in
          let x = dcol_ids d in
          if built then recount ();
          cur := d;
          ids := x.id_of;
          slots := Array.make x.nids (-1)
        end;
        let r = rows.(0) in
        let v = !ids.(r) in
        let s = !slots.(v) in
        if s >= 0 then s
        else begin
          let s = slot_of_string (dcol_keys d).(r) in
          !slots.(v) <- s;
          s
        end
    | _ ->
      fun scratch ->
        for i = 0 to n - 1 do
          load scratch i
        done;
        Buffer.clear buf;
        for i = 0 to n - 1 do
          match keys.(i) with
          | In_cell (id, _, _) ->
            Buffer.add_string buf (dcol_keys dcols.(id)).(rows.(i))
          | In_expr _ -> Group_key.add_component buf vals.(i)
        done;
        slot_of_string (Buffer.contents buf)
  in
  let kr_values () =
    List.init n (fun i ->
        match keys.(i) with
        | In_cell (id, _, _) -> dcols.(id).dc_vals.(rows.(i))
        | In_expr _ -> vals.(i))
  in
  { kr_slot; kr_values }

(* Per-group state by dense slot, grown by doubling. *)
type 'a groups = { mutable g : 'a array; mutable ng : int }

let groups () = { g = [||]; ng = 0 }

let add_group gs x =
  if gs.ng = Array.length gs.g then begin
    let a = Array.make (max 8 (2 * gs.ng)) x in
    Array.blit gs.g 0 a 0 gs.ng;
    gs.g <- a
  end;
  gs.g.(gs.ng) <- x;
  gs.ng <- gs.ng + 1

(* Fetch an expander's derived columns from its source's memo entry and
   publish them to this invocation's kernels and group keys. *)
let fetch_derived cctx dn e =
  if Array.length dn.dn_ids = 0 then [||]
  else begin
    let dcs = src_derived e dn.dn_specs in
    Array.iteri (fun k id -> cctx.cdcols.(id) <- dcs.(k)) dn.dn_ids;
    dcs
  end

module Slots = Set.Make (Int)

(* A FLWOR ready for lowering: its clauses after scan column
   projection, kernel fusion and cell derivation, with its return
   rewritten alike ([treturn]).  Planning is pure AST work; binding
   slots and reserving notes is [lower_flwor]'s. *)
type fplan = {
  projs : Optimize.projection list;
  tclauses : cclause list;
  treturn : X.expr;
  cells : Optimize.derived array;
}

let plan_flwor ~node_fns ~consts (f : X.flwor) =
  (* Fuse kernelizable group clauses with their post-group aggregate
     reads before compiling.  The rewrite happens here, in the
     lowering, so the interpreter keeps evaluating the original AST. *)
  let rec transform before clauses return_ =
    match clauses with
    | [] -> ([], return_)
    | (X.Group { grouped; partition; keys } as orig) :: rest -> (
      (* a grouped variable let-bound to a record constructor feeds its
         kernels through the constructor (constructor fusion F3) *)
      let record =
        Option.map fst (Optimize.record_binding (List.rev before) grouped)
      in
      match Optimize.group_kernels ?record ~grouped ~partition rest return_ with
      | Some (specs, rest', return') ->
        let rest'', return'' = transform (orig :: before) rest' return' in
        ( C_kernel
            { ck_partition = partition; ck_keys = keys; ck_specs = specs;
              ck_orig = orig }
          :: rest'',
          return'' )
      | None ->
        let rest', return' = transform (orig :: before) rest return_ in
        (C_plain orig :: rest', return'))
    | c :: rest ->
      let rest', return' = transform (c :: before) rest return_ in
      (C_plain c :: rest', return')
  in
  (* Scan column projection first, so kernels and record reads pick up
     the column variables it binds. *)
  let projs, pclauses, preturn =
    Optimize.scan_projections ~node_fns ~consts f.X.clauses f.X.return
  in
  let tclauses, treturn = transform [] pclauses preturn in
  (* Derived cell columns: the cell expressions kernels, group keys,
     probe keys and where operands evaluate per row become reads of
     cell variables bound with the scan variable. *)
  let tclauses, cells =
    if projs = [] then (tclauses, [||])
    else begin
      let dv = Optimize.deriver projs in
      let tclauses =
        List.map
          (function
            | C_plain c -> C_plain (Optimize.derive_clause dv c)
            | C_kernel k ->
              let ck_keys = Optimize.derive_keys dv k.ck_keys in
              C_kernel
                { k with ck_keys; ck_specs = Optimize.derive_specs dv k.ck_specs })
          tclauses
      in
      (tclauses, Array.of_list (Optimize.derived dv))
    end
  in
  { projs; tclauses; treturn; cells }

(* The text writer (paper section 4).  [Wrapper.wrap] joins the rows
   with [fn:string-join(F, "")], F one FLWOR or, for the outer-join
   halves and UNION ALL, a sequence of FLWORs, each returning per row a
   sequence of delimiter literals and cells
   [fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(e)),
   marker)].  Exactly that shape, checked on the planned returns, is
   lowered with a sink appending each row's text to one buffer; any
   other [fn:string-join] compiles as a call. *)
type text_part = T_lit of string | T_cell of X.expr * string

let text_parts (e : X.expr) =
  let part = function
    | X.Literal (Atomic.String s) -> Some (T_lit s)
    | X.Call
        ( "fn-bea:if-empty",
          [ X.Call
              ("fn-bea:xml-escape", [ X.Call ("fn-bea:serialize-atomic", [ v ]) ]);
            X.Literal (Atomic.String marker) ] ) ->
      Some (T_cell (v, marker))
    | _ -> None
  in
  match e with
  | X.Seq es ->
    let parts = List.filter_map part es in
    if
      List.compare_lengths parts es = 0
      && List.exists (function T_cell _ -> true | T_lit _ -> false) parts
    then Some parts
    else None
  | _ -> None

let text_plans ~node_fns ~consts name args =
  match (name, args) with
  | "fn:string-join", [ body; X.Literal (Atomic.String "") ] -> (
    let flwors =
      match body with
      | X.Flwor f -> [ f ]
      | X.Seq es ->
        let fs = List.filter_map (function X.Flwor f -> Some f | _ -> None) es in
        if List.compare_lengths fs es = 0 then fs else []
      | _ -> []
    in
    if flwors = [] || List.exists (fun f -> Option.is_none (text_parts f.X.return)) flwors
    then None
    else
      let plans =
        List.map
          (fun f ->
            let p = plan_flwor ~node_fns ~consts f in
            (p, text_parts p.treturn))
          flwors
      in
      if List.exists (fun (_, parts) -> Option.is_none parts) plans then None
      else Some (List.map (fun (p, parts) -> (p, Option.get parts)) plans))
  | _ -> None

(* One cell: the bytes [fn-bea:if-empty(fn-bea:xml-escape(
   fn-bea:serialize-atomic(v)), marker)] evaluates to, and for more
   than one atom its error. *)
let write_atomic buf (a : Atomic.t) =
  match a with
  | Atomic.Integer i -> Atomic.add_int buf i
  | Atomic.String s | Atomic.Untyped s -> Functions.xml_escape_into buf s
  | a -> Functions.xml_escape_into buf (Atomic.to_lexical a)

let write_cell buf marker (v : Item.sequence) =
  match v with
  | [] -> Buffer.add_string buf marker
  | [ Item.Atomic a ] -> write_atomic buf a
  | v -> (
    match Functions.opt_atomic "fn-bea:serialize-atomic" v with
    | None -> Buffer.add_string buf marker
    | Some a -> write_atomic buf a)

type wpart = W_lit of string | W_cell of comp * string

(* ------------------------------------------------------------------ *)
(* Compilation                                                        *)

(* the context-item pseudo-variable used by predicates *)
let dot = "."

let rec compile_expr_c (cenv : cenv) (e : X.expr) : comp =
  match e with
  | X.Literal a ->
    let item = [ Item.Atomic a ] in
    fun _ -> item
  | X.Var v -> (
    let slot = lookup_slot cenv v in
    match
      if cenv.cells = [] then None else Optimize.assoc_str v cenv.cells
    with
    | None -> fun rt -> rt.(slot)
    | Some derive -> fun rt -> read_cell derive rt.(slot))
  | X.Context_item ->
    let slot = lookup_slot cenv dot in
    fun rt -> rt.(slot)
  | X.Seq es ->
    let parts = List.map (compile_expr_c cenv) es in
    fun rt -> List.concat_map (fun c -> c rt) parts
  | X.Flwor f -> compile_flwor cenv f
  | X.Path (base, steps) -> (
    let cbase = compile_expr_c cenv base in
    let csteps =
      List.map
        (fun (s : X.step) ->
          ( compile_step_matcher s.X.name,
            List.map (compile_predicate cenv) s.X.predicates ))
        steps
    in
    match csteps with
    | [ (m, []) ] ->
      (* single unpredicated child step — the shape of every translated
         column access, worth keeping free of fold/closure overhead *)
      fun rt -> (
        match cbase rt with
        | [ item ] -> children_matching m item
        | seq -> List.concat_map (children_matching m) seq)
    | _ ->
      fun rt ->
        List.fold_left
          (fun seq (m, preds) ->
            let widened = List.concat_map (children_matching m) seq in
            List.fold_left (fun items p -> p rt items) widened preds)
          (cbase rt) csteps)
  | X.Call (name, args) -> (
    match text_plans ~node_fns:cenv.node_fns ~consts:(const_names cenv) name args with
    | Some plans -> compile_text_writer cenv plans
    | None -> (
    let cargs = List.map (compile_expr_c cenv) args in
    (* arity-specialized application: no per-call List.map closure for
       the ubiquitous nullary scans and unary fn:data wrappers *)
    let apply impl =
      match cargs with
      | [] -> fun _ -> impl []
      | [ c ] -> fun rt -> impl [ c rt ]
      | [ c1; c2 ] -> fun rt -> impl [ c1 rt; c2 rt ]
      | _ -> fun rt -> impl (List.map (fun c -> c rt) cargs)
    in
    match Functions.lookup name with
    | Some impl -> apply impl
    | None -> (
      match cenv.resolve name with
      | Some impl -> apply impl
      | None -> cfail "unknown function %s" name)))
  | X.Elem { name; content } ->
    let parts =
      List.map
        (fun part ->
          match part with
          | X.Text s ->
            let nodes = if s = "" then [] else [ Item.Node (Node.Text s) ] in
            fun _ -> nodes
          | _ -> compile_expr_c cenv part)
        content
    in
    fun rt ->
      let body =
        match parts with
        | [ p ] -> p rt
        | _ -> List.concat_map (fun c -> c rt) parts
      in
      (* fast paths for the dominant constructed shapes (a single
         atomized column value or a single node) — same results as
         [normalize_content], without its accumulator passes *)
      let children =
        match body with
        | [] -> []
        | [ Item.Atomic a ] -> [ Node.Text (Atomic.to_lexical a) ]
        | [ Item.Node n ] -> [ n ]
        | body -> normalize_content body
      in
      [ Item.Node (Node.Element { Node.name; attrs = []; children }) ]
  | X.Text s ->
    let v = Item.of_string s in
    fun _ -> v
  | X.If (c, t, e) ->
    let cc = compile_expr_c cenv c in
    let ct = compile_expr_c cenv t in
    let ce = compile_expr_c cenv e in
    fun rt ->
      if Item.effective_boolean_value (cc rt) then ct rt else ce rt
  | X.Binop (op, a, b) -> (
    let ca = compile_expr_c cenv a and cb = compile_expr_c cenv b in
    match op with
    | X.B_and ->
      fun rt ->
        Item.of_bool
          (Item.effective_boolean_value (ca rt)
          && Item.effective_boolean_value (cb rt))
    | X.B_or ->
      fun rt ->
        Item.of_bool
          (Item.effective_boolean_value (ca rt)
          || Item.effective_boolean_value (cb rt))
    | X.B_general cmp ->
      fun rt -> Item.of_bool (Eval.general_compare cmp (ca rt) (cb rt))
    | X.B_value cmp -> fun rt -> Eval.value_compare cmp (ca rt) (cb rt)
    | X.B_arith op -> (
      fun rt ->
        match (Item.atomize (ca rt), Item.atomize (cb rt)) with
        | [], _ | _, [] -> []
        | [ x ], [ y ] -> [ Item.Atomic (Eval.arith_atomic op x y) ]
        | _ -> dfail "arithmetic requires singleton operands"))
  | X.Neg a -> (
    let ca = compile_expr_c cenv a in
    fun rt ->
      match Item.atomize (ca rt) with
      | [] -> []
      | [ Atomic.Integer i ] -> Item.of_int (-i)
      | [ v ] -> [ Item.Atomic (Atomic.Double (-.Atomic.cast_double v)) ]
      | _ -> dfail "unary minus requires a singleton operand")
  | X.Quantified { every; bindings; satisfies } ->
    let rec build cenv = function
      | [] ->
        let cs = compile_expr_c cenv satisfies in
        fun rt -> Item.effective_boolean_value (cs rt)
      | (var, src) :: rest ->
        let csrc = compile_expr_c cenv src in
        let cenv', slot = bind_slot cenv var in
        let inner = build cenv' rest in
        fun rt ->
          let items = csrc rt in
          let test item =
            rt.(slot) <- [ item ];
            inner rt
          in
          if every then List.for_all test items else List.exists test items
    in
    let body = build cenv bindings in
    fun rt -> Item.of_bool (body rt)
  | X.Filter (base, pred) ->
    let cbase = compile_expr_c cenv base in
    let cpred = compile_predicate cenv pred in
    fun rt -> cpred rt (cbase rt)

(* Predicates rebind the context item per candidate and handle the
   positional case. *)
(* Boolean-context compilation: a condition consumed only for its
   effective boolean value skips the intermediate boolean item, and a
   general comparison against a literal hoists the constant atom out of
   the per-row path — the shape of every translated residual filter. *)
and compile_cond cenv (e : X.expr) : rt -> bool =
  match e with
  | X.Binop (X.B_and, a, b) ->
    let ca = compile_cond cenv a and cb = compile_cond cenv b in
    fun rt -> ca rt && cb rt
  | X.Binop (X.B_or, a, b) ->
    let ca = compile_cond cenv a and cb = compile_cond cenv b in
    fun rt -> ca rt || cb rt
  | X.Binop (X.B_general cmp, a, X.Literal atom) ->
    let ca = compile_expr_c cenv a in
    fun rt ->
      List.exists
        (fun l -> Eval.cmp_holds cmp (Atomic.compare_values l atom))
        (Item.atomize (ca rt))
  | X.Binop (X.B_general cmp, X.Literal atom, b) ->
    let cb = compile_expr_c cenv b in
    fun rt ->
      List.exists
        (fun r -> Eval.cmp_holds cmp (Atomic.compare_values atom r))
        (Item.atomize (cb rt))
  | X.Binop (X.B_general cmp, a, b) ->
    let ca = compile_expr_c cenv a and cb = compile_expr_c cenv b in
    fun rt -> Eval.general_compare cmp (ca rt) (cb rt)
  | _ ->
    let c = compile_expr_c cenv e in
    fun rt -> Item.effective_boolean_value (c rt)

and compile_predicate cenv (pred : X.expr) : rt -> Item.sequence -> Item.sequence =
  let cenv', slot = bind_slot cenv dot in
  let cpred = compile_expr_c cenv' pred in
  fun rt items ->
    List.filteri
      (fun i item ->
        rt.(slot) <- [ item ];
        match cpred rt with
        | [ Item.Atomic a ] when Atomic.is_numeric a ->
          Atomic.cast_double a = float_of_int (i + 1)
        | result -> Item.effective_boolean_value result)
      items

(* FLWOR compilation.  Each clause becomes a push-based operator over
   [Batch.columns] batches (one value vector per bound slot plus a
   selection vector); per-clause setup (slot resolution, key
   compilation, clause counters) is hoisted out of the inner loop.  A
   where clause compacts the selection vector in place; expanders (for,
   hash join) and barriers (order by, group by) append into a pooled
   output batch flushed downstream at {!Batch.size} rows.  Beyond that:

   - Required-column pruning.  Each expander/barrier computes at
     compile time which slots the *remainder* of the pipeline (later
     clauses plus the return) can still read, resolving every name
     where it is read (a later binding shadows, a group clause restores
     the FLWOR's entry scope), and copies only those columns into its
     output.  A batch arriving at an operator therefore has valid data
     exactly in the columns live at that point; everything else is
     stale storage no reader touches.  A let no later clause reads is
     skipped when its value cannot raise ([Optimize.cannot_fail]) —
     the record constructor fused away by constructor fusion.

   - Kernel-fused aggregation.  When every post-group read of the
     partition variable is one of the translator's aggregate shapes,
     [Optimize.group_kernels] rewrites them into reads of synthetic
     kernel variables and the group operator keeps one [Kernels.state]
     per (group, kernel) instead of materializing the partition: a
     tight per-tuple update loop during cpush, finished into output
     columns at flush.  Each kernel folds its per-tuple input
     ([k_arg]); when the grouped variable is let-bound to a record
     constructor that input reads the field through the constructor,
     so the record itself is dead and never built.

   Per-row expression evaluation reuses the scalar [comp] closures:
   each operator gathers its own free-variable columns into the shared
   per-invocation scratch row before evaluating.  The scratch is
   private to the invocation (never the caller's [rt]), so outer slots
   are never clobbered, and nested FLWORs / quantifiers write their own
   fresh slots before reading them.

   Resilience: [Budget.steps] is charged per batch receipt at every
   operator plus per produced row at expanders, so fuel accounting
   stays within a constant factor of the interpreter's and deadlines
   cancel between batches; "xqeval.batch" (via [cnote_batch]) fires at
   every batch creation, and "xqeval.clause"/"xqeval.hashjoin" once
   per clause per invocation, matching the interpreter's eager
   pipeline construction. *)
and compile_flwor cenv (f : X.flwor) : comp =
  let p = plan_flwor ~node_fns:cenv.node_fns ~consts:(const_names cenv) f in
  let cenv_ret, run = lower_flwor cenv p in
  let cret = compile_expr_c cenv_ret p.treturn in
  fun rt ->
    let results = ref [] in
    run rt (fun scratch -> results := cret scratch :: !results);
    List.concat (List.rev !results)

(* The text writer's lowering ([text_plans]): each FLWOR's pipeline
   ends in a sink writing its row's parts, adjacent literals joined at
   compile time, into a buffer owned by the invocation. *)
and compile_text_writer cenv plans : comp =
  let writers =
    List.map
      (fun ((p : fplan), parts) ->
        let cenv_ret, run = lower_flwor cenv p in
        reserve_note cenv
        := Some
             (N_text
                (List.length
                   (List.filter (function T_cell _ -> true | T_lit _ -> false) parts)));
        let rec compile_parts = function
          | [] -> []
          | T_lit a :: T_lit b :: rest -> compile_parts (T_lit (a ^ b) :: rest)
          | T_lit a :: rest -> W_lit a :: compile_parts rest
          | T_cell (e, marker) :: rest ->
            let c = compile_expr_c cenv_ret e in
            W_cell (c, marker) :: compile_parts rest
        in
        let wparts = Array.of_list (compile_parts parts) in
        fun rt buf ->
          run rt (fun scratch ->
              for k = 0 to Array.length wparts - 1 do
                match Array.unsafe_get wparts k with
                | W_lit s -> Buffer.add_string buf s
                | W_cell (c, marker) -> write_cell buf marker (c scratch)
              done))
      plans
  in
  fun rt ->
    (* small: a buffer that starts large is a major-heap block per call *)
    let buf = Buffer.create 256 in
    List.iter (fun w -> w rt buf) writers;
    [ Item.Atomic (Atomic.String (Buffer.contents buf)) ]

(* Lowers a planned FLWOR's clauses.  Returns the environment its
   return is compiled in and the runner: [run rt row] pushes the outer
   row [rt] through the pipeline and calls [row scratch] per result
   tuple, in order, with the return's free variables gathered into
   [scratch]. *)
and lower_flwor cenv (p : fplan) : cenv * (rt -> (rt -> unit) -> unit) =
  let { projs; tclauses; treturn; cells } = p in
  (* per clause position: the (step name, column variable) pairs its
     for or hash join binds besides its own variable, and the (cell
     index, derived cell) pairs bound with them *)
  let pcols = Array.make (List.length tclauses) [] in
  List.iter
    (fun (p : Optimize.projection) ->
      pcols.(p.Optimize.p_index) <- p.Optimize.p_cols)
    projs;
  let pcells = Array.make (List.length tclauses) [] in
  Array.iteri
    (fun id (d : Optimize.derived) ->
      let i = d.Optimize.d_index in
      pcells.(i) <- pcells.(i) @ [ (id, d) ])
    cells;
  (* each cell expression compiled once, over a one-slot environment *)
  let derives =
    Array.map
      (fun (d : Optimize.derived) ->
        let ccenv =
          { cenv with
            slots = [ (Optimize.cell_var, 0) ];
            next = ref 1;
            consts = [];
            cells = [] }
        in
        let c = compile_expr_c ccenv d.Optimize.d_expr in
        let n = !(ccenv.next) in
        fun cell ->
          let rt = Array.make n [] in
          rt.(0) <- cell;
          c rt)
      cells
  in
  (* the names an expander binds besides its variable *)
  let extra_names i =
    List.map snd pcols.(i)
    @
    match pcells.(i) with
    | [] -> []
    | (_, (d : Optimize.derived)) :: _ as ds ->
      Optimize.row_var d.Optimize.d_binding
      :: List.map (fun (_, (d : Optimize.derived)) -> d.Optimize.d_var) ds
  in
  (* Kernel inputs, group keys and probes by value id that are a whole
     derived cell read it through the tuple's row position: their reads
     are the row variable's. *)
  let cell_rows =
    Array.to_list
      (Array.mapi
         (fun id (d : Optimize.derived) ->
           (d.Optimize.d_var, (id, Optimize.row_var d.Optimize.d_binding)))
         cells)
  in
  let by_row vars =
    if cell_rows = [] then vars
    else
      Optimize.Vars.map
        (fun v ->
          match Optimize.assoc_str v cell_rows with
          | Some (_, row) -> row
          | None -> v)
        vars
  in
  (* Liveness by slot: the slots of [slots] (a binding environment at
     some clause position, innermost first) that the clauses [rest] and
     the return can still read.  Names resolve where they are read: a
     later binding shadows as a fresh (unmaterialized, -1) slot, and a
     group clause restores the FLWOR's entry environment — so a name
     shadowed here but read past a group keeps the outer column alive,
     and the shadowing binding never stands in for it. *)
  let entry_slots = cenv.slots in
  let cinput cenv (e : X.expr) =
    match e with
    | X.Var v -> (
      match Optimize.assoc_str v cell_rows with
      | Some (id, row) -> In_cell (id, lookup_slot cenv row, derives.(id))
      | None -> In_expr (compile_expr_c cenv e))
    | _ -> In_expr (compile_expr_c cenv e)
  in
  (* A hash join whose probe key is a whole derived cell of this FLWOR
     and whose build is reusable (the same table across invocations)
     probes by value id: it reads the cell through the row position,
     like a group key. *)
  let probe_cell = function
    | X.Hash_join { var; source; build_key; probe_key = X.Var v; _ } -> (
      match Optimize.assoc_str v cell_rows with
      | Some _ as cell when Optimize.reusable_build ~var ~source ~build_key -> cell
      | _ -> None)
    | _ -> None
  in
  (* the key a group reads by value id ([key_reader]) *)
  let key_id = function
    | [| In_cell (cid, _, _) |] -> Some cells.(cid)
    | _ -> None
  in
  let tarr = Array.of_list tclauses in
  let probe_cells =
    Array.map (function C_plain c -> probe_cell c | C_kernel _ -> None) tarr
  in
  let reads j = function
    | C_plain (X.Group _ as c) -> by_row (Optimize.clause_reads c)
    | C_plain (X.Hash_join _ as c) when Option.is_some probe_cells.(j) ->
      by_row (Optimize.clause_reads c)
    | C_plain c -> Optimize.clause_reads c
    | C_kernel k ->
      (* a kernel group reads its keys and kernel inputs, not the
         grouped variable itself *)
      by_row
        (Optimize.free_vars_all
           (List.map fst k.ck_keys
           @ List.map (fun (s : Optimize.kernel_spec) -> s.Optimize.k_arg)
               k.ck_specs))
  in
  (* [nodes_at.(i)]: the variables known to hold only nodes before
     clause [i], for the dead-let test *)
  let nodes_at = Array.make (Array.length tarr + 1) Optimize.Vars.empty in
  Array.iteri
    (fun i c ->
      nodes_at.(i + 1) <-
        List.fold_left
          (fun s (_, cv) -> Optimize.Vars.add cv s)
          (Optimize.nodes_after ~node_fns:cenv.node_fns
             ~entry:Optimize.Vars.empty nodes_at.(i) (cclause_view c))
          pcols.(i))
    tarr;
  let ret_reads = Optimize.free_vars treturn in
  (* A let nothing downstream reads (a record whose every read was
     fused away) whose value cannot raise is skipped, so it reads
     nothing either: the columns only it would read are not carried
     or fetched.  Decided by name from the end, which can only keep a
     let that liveness by slot would drop. *)
  let treads = Array.make (Array.length tarr) Optimize.Vars.empty in
  let dead_let = Array.make (Array.length tarr) false in
  let needed = ref ret_reads in
  for j = Array.length tarr - 1 downto 0 do
    match tarr.(j) with
    | C_plain (X.Let { var; value })
      when (not (Optimize.Vars.mem var !needed))
           && Optimize.cannot_fail ~nodes:nodes_at.(j) value ->
      dead_let.(j) <- true
    | c ->
      treads.(j) <- reads j c;
      needed := Optimize.Vars.union !needed treads.(j)
  done;
  (* The plan's externals are in the scratch row from the start of
     every run and never change: no operator carries or gathers them. *)
  let consts = Slots.of_list (List.map snd cenv.consts) in
  (* from clause index [from] on *)
  let live_slots slots from =
    let add slots vars acc =
      Optimize.Vars.fold
        (fun v acc ->
          match Optimize.assoc_str v slots with
          | Some s when s >= 0 && not (Slots.mem s consts) -> Slots.add s acc
          | _ -> acc)
        vars acc
    in
    let fresh slots v = (v, -1) :: slots in
    let rec walk slots acc j =
      if j >= Array.length tarr then add slots ret_reads acc
      else
        let c = tarr.(j) in
        let acc = add slots treads.(j) acc in
        let slots =
          match c with
          | C_plain (X.For { var; _ } | X.Hash_join { var; _ }) ->
            List.fold_left fresh (fresh slots var) (extra_names j)
          | C_plain (X.Let { var; _ }) -> fresh slots var
          | C_plain (X.Where _ | X.Order_by _) -> slots
          | C_plain (X.Group { partition; keys; _ }) ->
            List.fold_left fresh entry_slots (partition :: List.map snd keys)
          | C_kernel k ->
            List.fold_left fresh entry_slots
              ((k.ck_partition :: List.map snd k.ck_keys)
              @ List.map
                  (fun (s : Optimize.kernel_spec) -> s.Optimize.k_var)
                  k.ck_specs)
        in
        walk slots acc (j + 1)
    in
    walk slots Slots.empty from
  in
  let slot_array set = Array.of_list (Slots.elements set) in
  (* Slots of [vars] bound in [cenv] (innermost binding per name),
     deduplicated ascending. *)
  let bound_slots cenv vars =
    let slots =
      Optimize.Vars.fold
        (fun v acc ->
          match Optimize.assoc_str v cenv.slots with
          | Some s when not (Slots.mem s consts) -> s :: acc
          | _ -> acc)
        vars []
    in
    Array.of_list (List.sort_uniq compare slots)
  in
  let gather_of_vars cenv fv = bound_slots cenv fv in
  let gather_slots cenv exprs =
    gather_of_vars cenv (Optimize.free_vars_all exprs)
  in
  (* Load one selected row's gathered columns into the scratch row. *)
  let gather gslots (scratch : rt) (b : Batch.columns) idx =
    for t = 0 to Array.length gslots - 1 do
      let s = Array.unsafe_get gslots t in
      scratch.(s) <- b.Batch.cols.(s).(idx)
    done
  in
  let derivation ds row_slot dslots =
    { dn_ids = Array.of_list (List.map fst ds);
      dn_specs =
        Array.of_list
          (List.map
             (fun (id, (d : Optimize.derived)) ->
               ( d.Optimize.d_step, d.Optimize.d_expr,
                 Hashtbl.hash d.Optimize.d_expr, derives.(id) ))
             ds);
      dn_row = row_slot;
      dn_live =
        Array.of_list
          (List.filter (fun (_, s) -> s >= 0) (List.mapi (fun k s -> (k, s)) dslots)) }
  in
  (* The outputs of expander [i] (a for or hash join binding [var]):
     the environment with [var], its column variables and its derived
     cell variables bound, [var]'s slot, the carried slots, whether
     anything still reads [var] whole, the projected columns still read
     (step names, slots), and the derived cells (see [derivation]) — a
     column or variable no reader is left for is not written.  The
     decisions go to [note]. *)
  let inputs_at cenv i = lazy (Slots.cardinal (live_slots cenv.slots i)) in
  let expander ?probe_id cenv note label var i =
    let inputs = inputs_at cenv i in
    let cenv, slot = bind_slot cenv var in
    let cenv, cols =
      List.fold_left_map
        (fun ce (step, cv) ->
          let ce, s = bind_slot ce cv in
          (ce, (step, s)))
        cenv pcols.(i)
    in
    let cenv, row_slot, dslots =
      match pcells.(i) with
      | [] -> (cenv, -1, [])
      | ds ->
        let cenv, row_slot = bind_slot cenv (Optimize.row_var var) in
        let cenv, dslots =
          List.fold_left_map
            (fun ce (id, (d : Optimize.derived)) ->
              let ce, s = bind_slot ce d.Optimize.d_var in
              ({ ce with cells = (d.Optimize.d_var, derives.(id)) :: ce.cells }, s))
            cenv ds
        in
        (cenv, row_slot, dslots)
    in
    let live = live_slots cenv.slots (i + 1) in
    let copy =
      slot_array
        (Slots.diff live
           (Slots.of_list ((slot :: row_slot :: List.map snd cols) @ dslots)))
    in
    let cols = List.filter (fun (_, s) -> Slots.mem s live) cols in
    let written = List.map fst cols in
    note :=
      Some
        (N_expander
           { label; var; inputs; carried = Array.length copy;
             var_written = Slots.mem slot live;
             steps = List.map fst pcols.(i); written;
             cells =
               List.map2
                 (fun (_, d) s -> (d, Slots.mem s live))
                 pcells.(i) dslots;
             row_written = Slots.mem row_slot live; probe_id });
    ( cenv, slot, copy, Slots.mem slot live, written,
      Array.of_list (List.map snd cols),
      derivation pcells.(i) (if Slots.mem row_slot live then row_slot else -1)
        (List.map (fun s -> if Slots.mem s live then s else -1) dslots) )
  in
  let rec build cenv i clauses :
      (string * (cctx -> csink -> csink)) list * cenv =
    match clauses with
    | [] -> ([], cenv)
    | clause :: rest ->
      let labeled_mk, cenv' =
        match clause with
        | C_plain (X.For { var; source }) ->
          let note = reserve_note cenv in
          let label = "for $" ^ var in
          let gslots = gather_slots cenv [ source ] in
          let csrc = compile_expr_c cenv source in
          let cenv', slot, copy, var_live, steps, col_slots, dn =
            expander cenv note label var i
          in
          let copy_n = Array.length copy in
          let ncols = Array.length col_slots in
          let memo = ncols > 0 || Array.length dn.dn_ids > 0 in
          let ndlive = Array.length dn.dn_live in
          let mk cctx down =
            let count = ccounter cctx label in
            let pruned = max 0 (cctx.cnslots - copy_n) in
            let scratch = cctx.cscratch in
            let out = cctx.calloc () in
            let out_cols = Array.map (Batch.column out) copy in
            let var_col = Batch.column out slot in
            let out_pcols = Array.map (Batch.column out) col_slots in
            let out_dcols = Array.map (fun (_, s) -> Batch.column out s) dn.dn_live in
            let out_row = if dn.dn_row >= 0 then Batch.column out dn.dn_row else [||] in
            (* the source last served from the memo, with its columns:
               a closed source is the same list in every tuple *)
            let last_src = ref [] and last = ref [||] in
            let lastd = ref [||] and rows = ref [||] in
            let emit () =
              if out.Batch.n > 0 then begin
                cnote_batch out.Batch.n;
                Telemetry.add Telemetry.c_col_pruned_columns
                  (pruned * out.Batch.n);
                down.cpush out;
                out.Batch.n <- 0
              end
            in
            { cpush =
                (fun b ->
                  Budget.steps b.Batch.n;
                  let in_cols =
                    Array.map (fun s -> b.Batch.cols.(s)) copy
                  in
                  for k = 0 to b.Batch.n - 1 do
                    let idx = b.Batch.sel.(k) in
                    gather gslots scratch b idx;
                    match csrc scratch with
                    | [] -> ()
                    | items ->
                      let nitems = List.length items in
                      if memo && items != !last_src then begin
                        last_src := items;
                        let e = src_entry items in
                        last := src_columns e steps;
                        lastd := fetch_derived cctx dn e;
                        if dn.dn_row >= 0 then rows := rows_upto nitems
                      end;
                      let vecs = !last and dcs = !lastd and rowv = !rows in
                      Budget.steps nitems;
                      count nitems;
                      List.iteri
                        (fun r item ->
                          let j = out.Batch.n in
                          for t = 0 to copy_n - 1 do
                            out_cols.(t).(j) <- in_cols.(t).(idx)
                          done;
                          if var_live then var_col.(j) <- [ item ];
                          for c = 0 to ncols - 1 do
                            out_pcols.(c).(j) <- vecs.(c).(r)
                          done;
                          for c = 0 to ndlive - 1 do
                            out_dcols.(c).(j) <-
                              dcs.(fst dn.dn_live.(c)).dc_vals.(r)
                          done;
                          if dn.dn_row >= 0 then out_row.(j) <- rowv.(r);
                          out.Batch.sel.(j) <- j;
                          out.Batch.n <- j + 1;
                          if out.Batch.n = cctx.ccap then emit ())
                        items
                  done);
              cflush = (fun () -> emit (); down.cflush ());
            }
          in
          ((label, mk), cenv')
        | C_plain (X.Let { var; value }) ->
          let gslots = gather_slots cenv [ value ] in
          let cval = compile_expr_c cenv value in
          let cenv', slot = bind_slot cenv var in
          (* a let nothing downstream reads (a record whose every read
             was fused away) is skipped when building it cannot raise *)
          let dead =
            dead_let.(i)
            || (not (Slots.mem slot (live_slots cenv'.slots (i + 1))))
               && Optimize.cannot_fail ~nodes:nodes_at.(i) value
          in
          if dead then reserve_note cenv := Some (N_skipped (var, value));
          let label = "let $" ^ var in
          let mk cctx down =
            let count = ccounter cctx label in
            let scratch = cctx.cscratch in
            { cpush =
                (fun b ->
                  Budget.steps b.Batch.n;
                  (* in place: write the new column into the incoming
                     batch at the selected indices *)
                  if not dead then begin
                    let col = Batch.column b slot in
                    for k = 0 to b.Batch.n - 1 do
                      let idx = b.Batch.sel.(k) in
                      gather gslots scratch b idx;
                      col.(idx) <- cval scratch
                    done
                  end;
                  count b.Batch.n;
                  if b.Batch.n > 0 then down.cpush b);
              cflush = (fun () -> down.cflush ());
            }
          in
          ((label, mk), cenv')
        | C_plain (X.Where cond) ->
          let gslots = gather_slots cenv [ cond ] in
          let ccond = compile_cond cenv cond in
          let label = Printf.sprintf "where@%d" i in
          let mk cctx down =
            let count = ccounter cctx label in
            let scratch = cctx.cscratch in
            { cpush =
                (fun b ->
                  Budget.steps b.Batch.n;
                  let n = b.Batch.n in
                  let j = ref 0 in
                  for k = 0 to n - 1 do
                    let idx = b.Batch.sel.(k) in
                    gather gslots scratch b idx;
                    if ccond scratch then begin
                      b.Batch.sel.(!j) <- idx;
                      incr j
                    end
                  done;
                  b.Batch.n <- !j;
                  Telemetry.add Telemetry.c_batch_filtered (n - !j);
                  count !j;
                  if b.Batch.n > 0 then down.cpush b);
              cflush = (fun () -> down.cflush ());
            }
          in
          ((label, mk), cenv)
        | C_plain (X.Order_by specs) ->
          let note = reserve_note cenv in
          let gslots =
            gather_slots cenv (List.map (fun (s : X.order_spec) -> s.X.key) specs)
          in
          let ckeys =
            List.map
              (fun (s : X.order_spec) ->
                (compile_expr_c cenv s.X.key, s.X.descending, s.X.empty))
              specs
          in
          let retain = slot_array (live_slots cenv.slots (i + 1)) in
          let retain_n = Array.length retain in
          note :=
            Some (N_order { inputs = inputs_at cenv i; retained = retain_n });
          let label = Printf.sprintf "order-by@%d" i in
          let mk cctx down =
            let count = ccounter cctx label in
            let pruned = max 0 (cctx.cnslots - retain_n) in
            let scratch = cctx.cscratch in
            let acc = ref [] in
            let out = cctx.calloc () in
            let out_cols = Array.map (Batch.column out) retain in
            let emit () =
              if out.Batch.n > 0 then begin
                cnote_batch out.Batch.n;
                down.cpush out;
                out.Batch.n <- 0
              end
            in
            { cpush =
                (fun b ->
                  Budget.steps b.Batch.n;
                  Telemetry.add Telemetry.c_col_pruned_columns
                    (pruned * b.Batch.n);
                  let in_cols =
                    Array.map (fun s -> b.Batch.cols.(s)) retain
                  in
                  for k = 0 to b.Batch.n - 1 do
                    let idx = b.Batch.sel.(k) in
                    gather gslots scratch b idx;
                    let keys =
                      List.map
                        (fun (ck, _, _) -> Item.atomize (ck scratch))
                        ckeys
                    in
                    (* retained past this cpush: copy the live column
                       cells out of the batch *)
                    let saved = Array.map (fun c -> c.(idx)) in_cols in
                    acc := (keys, saved) :: !acc
                  done);
              cflush =
                (fun () ->
                  let keyed = List.rev !acc in
                  acc := [];
                  let sorted =
                    List.stable_sort
                      (fun (ka, _) (kb, _) -> compare_order_keys ckeys ka kb)
                      keyed
                  in
                  count (List.length sorted);
                  List.iter
                    (fun (_, saved) ->
                      let j = out.Batch.n in
                      for t = 0 to retain_n - 1 do
                        out_cols.(t).(j) <- saved.(t)
                      done;
                      out.Batch.sel.(j) <- j;
                      out.Batch.n <- j + 1;
                      if out.Batch.n = cctx.ccap then emit ())
                    sorted;
                  emit ();
                  down.cflush ());
            }
          in
          ((label, mk), cenv)
        | C_plain (X.Group { grouped; partition; keys }) ->
          (* materializing group: the partition column is built as the
             concatenation of each group's grouped cells *)
          let note = reserve_note cenv in
          let grouped_slot = lookup_slot cenv grouped in
          let gslots =
            gather_of_vars cenv
              (by_row (Optimize.free_vars_all (List.map fst keys)))
          in
          let ckeys = Array.of_list (List.map (fun (k, _) -> cinput cenv k) keys) in
          (* BEA scoping: only the FLWOR's entry bindings survive the
             group *)
          let entry_env = { cenv with slots = entry_slots } in
          let cenv_post, key_slots =
            List.fold_left
              (fun (ce, acc) (_, var) ->
                let ce', slot = bind_slot ce var in
                (ce', slot :: acc))
              (entry_env, []) keys
          in
          let key_slots = List.rev key_slots in
          let cenv_post, partition_slot = bind_slot cenv_post partition in
          let entry_copy =
            slot_array
              (Slots.diff
                 (live_slots cenv_post.slots (i + 1))
                 (Slots.of_list (partition_slot :: key_slots)))
          in
          let entry_n = Array.length entry_copy in
          let label = "group by -> $" ^ partition in
          note :=
            Some
              (N_group
                 { label; kernels = None; inputs = inputs_at cenv i;
                   carried = entry_n; keys = List.length key_slots;
                   key_id = key_id ckeys });
          let mk cctx down =
            let count = ccounter cctx label in
            let pruned = max 0 (cctx.cnslots - entry_n) in
            let scratch = cctx.cscratch in
            let gs = groups () in
            let keys = key_reader cctx.cdcols ckeys in
            let out = cctx.calloc () in
            let out_entry = Array.map (Batch.column out) entry_copy in
            let out_keys = List.map (Batch.column out) key_slots in
            let part_col = Batch.column out partition_slot in
            let emit () =
              if out.Batch.n > 0 then begin
                cnote_batch out.Batch.n;
                down.cpush out;
                out.Batch.n <- 0
              end
            in
            { cpush =
                (fun b ->
                  Budget.steps b.Batch.n;
                  let grouped_col = b.Batch.cols.(grouped_slot) in
                  let in_entry =
                    Array.map (fun s -> b.Batch.cols.(s)) entry_copy
                  in
                  for k = 0 to b.Batch.n - 1 do
                    let idx = b.Batch.sel.(k) in
                    gather gslots scratch b idx;
                    let g = keys.kr_slot scratch in
                    if g < gs.ng then begin
                      let acc, _, _ = gs.g.(g) in
                      acc := grouped_col.(idx) :: !acc
                    end
                    else
                      let saved = Array.map (fun c -> c.(idx)) in_entry in
                      add_group gs
                        (ref [ grouped_col.(idx) ], keys.kr_values (), saved)
                  done);
              cflush =
                (fun () ->
                  count gs.ng;
                  Telemetry.add Telemetry.c_col_pruned_columns (pruned * gs.ng);
                  for g = 0 to gs.ng - 1 do
                    let acc, key_values, saved = gs.g.(g) in
                    let j = out.Batch.n in
                    for t = 0 to entry_n - 1 do
                      out_entry.(t).(j) <- saved.(t)
                    done;
                    List.iter2 (fun c v -> c.(j) <- v) out_keys key_values;
                    part_col.(j) <- List.concat (List.rev !acc);
                    out.Batch.sel.(j) <- j;
                    out.Batch.n <- j + 1;
                    if out.Batch.n = cctx.ccap then emit ()
                  done;
                  emit ();
                  down.cflush ());
            }
          in
          ((label, mk), cenv_post)
        | C_kernel { ck_partition; ck_keys; ck_specs; ck_orig = _ } ->
          (* kernel group: the partition is never materialized — one
             aggregation-kernel state per (group, spec), updated in a
             tight loop per batch from the spec's per-tuple input,
             finished into output columns at flush *)
          let note = reserve_note cenv in
          let args =
            List.map (fun (s : Optimize.kernel_spec) -> s.Optimize.k_arg) ck_specs
          in
          let gslots =
            gather_of_vars cenv
              (by_row (Optimize.free_vars_all (List.map fst ck_keys @ args)))
          in
          let ckeys =
            Array.of_list (List.map (fun (k, _) -> cinput cenv k) ck_keys)
          in
          (* kernels over one column share its input: each distinct
             argument is evaluated once per tuple *)
          let distinct =
            List.fold_left
              (fun acc a -> if List.mem a acc then acc else acc @ [ a ])
              [] args
          in
          let cargs = Array.of_list (List.map (cinput cenv) distinct) in
          let arg_cell =
            Array.map (function In_cell _ -> true | In_expr _ -> false) cargs
          in
          let arg_of =
            Array.of_list
              (List.map
                 (fun a ->
                   let rec index i = function
                     | x :: rest -> if x = a then i else index (i + 1) rest
                     | [] -> assert false
                   in
                   index 0 distinct)
                 args)
          in
          let nargs = Array.length cargs in
          let entry_env = { cenv with slots = entry_slots } in
          let cenv_post, key_slots =
            List.fold_left
              (fun (ce, acc) (_, var) ->
                let ce', slot = bind_slot ce var in
                (ce', slot :: acc))
              (entry_env, []) ck_keys
          in
          let key_slots = List.rev key_slots in
          let cenv_post, spec_slots =
            List.fold_left
              (fun (ce, acc) (s : Optimize.kernel_spec) ->
                let ce', slot = bind_slot ce s.Optimize.k_var in
                (ce', slot :: acc))
              (cenv_post, []) ck_specs
          in
          let spec_slots = List.rev spec_slots in
          let entry_copy =
            slot_array
              (Slots.diff
                 (live_slots cenv_post.slots (i + 1))
                 (Slots.of_list (key_slots @ spec_slots)))
          in
          let entry_n = Array.length entry_copy in
          let spec_slots = Array.of_list spec_slots in
          let kinds =
            Array.of_list
              (List.map
                 (fun (s : Optimize.kernel_spec) -> s.Optimize.k_kind)
                 ck_specs)
          in
          let nspecs = Array.length kinds in
          let label = "group by -> $" ^ ck_partition in
          note :=
            Some
              (N_group
                 { label; kernels = Some ck_specs; inputs = inputs_at cenv i;
                   carried = entry_n; keys = List.length key_slots;
                   key_id = key_id ckeys });
          let mk cctx down =
            let count = ccounter cctx label in
            let pruned = max 0 (cctx.cnslots - entry_n) in
            let scratch = cctx.cscratch in
            let gs = groups () in
            let dcols = cctx.cdcols in
            let keys = key_reader dcols ckeys in
            let out = cctx.calloc () in
            let out_entry = Array.map (Batch.column out) entry_copy in
            let out_keys = List.map (Batch.column out) key_slots in
            let out_specs = Array.map (Batch.column out) spec_slots in
            let inputs = Array.make nargs [] in
            let cell_inputs = Array.make nargs (Kernels.cells [||]) in
            let cell_rows = Array.make nargs 0 in
            let emit () =
              if out.Batch.n > 0 then begin
                cnote_batch out.Batch.n;
                down.cpush out;
                out.Batch.n <- 0
              end
            in
            { cpush =
                (fun b ->
                  Budget.steps b.Batch.n;
                  Telemetry.with_span "xqeval.columnar.kernel" @@ fun () ->
                  Telemetry.add Telemetry.c_col_kernel_updates
                    (nspecs * b.Batch.n);
                  let in_entry =
                    Array.map (fun s -> b.Batch.cols.(s)) entry_copy
                  in
                  for k = 0 to b.Batch.n - 1 do
                    let idx = b.Batch.sel.(k) in
                    gather gslots scratch b idx;
                    let g = keys.kr_slot scratch in
                    let states =
                      if g < gs.ng then
                        let states, _, _ = gs.g.(g) in
                        states
                      else begin
                        let states = Array.map Kernels.create kinds in
                        let saved =
                          Array.map (fun c -> c.(idx)) in_entry
                        in
                        add_group gs (states, keys.kr_values (), saved);
                        states
                      end
                    in
                    for a = 0 to nargs - 1 do
                      match cargs.(a) with
                      | In_cell (id, rs, derive) ->
                        cell_rows.(a) <- cell_row dcols id rs derive scratch;
                        cell_inputs.(a) <- dcol_cells dcols.(id)
                      | In_expr c -> inputs.(a) <- c scratch
                    done;
                    for t = 0 to nspecs - 1 do
                      let a = arg_of.(t) in
                      if arg_cell.(a) then
                        Kernels.update_at states.(t) cell_inputs.(a) cell_rows.(a)
                      else Kernels.update states.(t) inputs.(a)
                    done
                  done);
              cflush =
                (fun () ->
                  Telemetry.with_span "xqeval.columnar.kernel" @@ fun () ->
                  count gs.ng;
                  Telemetry.add Telemetry.c_col_pruned_columns (pruned * gs.ng);
                  for g = 0 to gs.ng - 1 do
                    let states, key_values, saved = gs.g.(g) in
                    let j = out.Batch.n in
                    for t = 0 to entry_n - 1 do
                      out_entry.(t).(j) <- saved.(t)
                    done;
                    List.iter2 (fun c v -> c.(j) <- v) out_keys key_values;
                    for t = 0 to nspecs - 1 do
                      out_specs.(t).(j) <- Kernels.finish states.(t)
                    done;
                    out.Batch.sel.(j) <- j;
                    out.Batch.n <- j + 1;
                    if out.Batch.n = cctx.ccap then emit ()
                  done;
                  emit ();
                  down.cflush ());
            }
          in
          ((label, mk), cenv_post)
        | C_plain (X.Hash_join { var; source; build_key; probe_key; value_cmp })
          ->
          (* probing by value id: (cell index, row slot, evaluator) *)
          let by_id =
            Option.map
              (fun (cid, row) -> (cid, lookup_slot cenv row, derives.(cid)))
              probe_cells.(i)
          in
          (* gather set: [build_key]'s free vars minus the join
             variable — the variable resolves to the fresh slot (bound
             below), never to a same-named outer column, which may be
             pruned at this point — and the probe key's, unless it is
             read by row *)
          let gslots =
            gather_of_vars cenv
              (Optimize.Vars.union
                 (Optimize.free_vars source)
                 (Optimize.Vars.union
                    (if by_id = None then Optimize.free_vars probe_key
                     else Optimize.Vars.empty)
                    (Optimize.Vars.remove var (Optimize.free_vars build_key))))
          in
          let note = reserve_note cenv in
          let label = "hash-join $" ^ var in
          let csrc = compile_expr_c cenv source in
          let cprobe = compile_expr_c cenv probe_key in
          let cenv2, var_slot, copy, var_live, steps, col_slots, dn =
            expander cenv note label var i
              ?probe_id:(Option.map (fun (cid, _, _) -> cells.(cid)) by_id)
          in
          let memo = Array.length col_slots > 0 || Array.length dn.dn_ids > 0 in
          let ndlive = Array.length dn.dn_live in
          (* the build key sees the join variable, not its columns *)
          let cbuild =
            compile_expr_c
              { cenv with slots = (var, var_slot) :: cenv.slots }
              build_key
          in
          let copy_n = Array.length copy in
          let ncols = Array.length col_slots in
          let reusable = Optimize.reusable_build ~var ~source ~build_key in
          let mk cctx down =
            let count = ccounter cctx label in
            let pruned = max 0 (cctx.cnslots - copy_n) in
            let scratch = cctx.cscratch in
            let table = ref None in
            let vecs = ref [||] and dvecs = ref [||] and rows = ref [||] in
            let out = cctx.calloc () in
            let out_cols = Array.map (Batch.column out) copy in
            let var_col = Batch.column out var_slot in
            let out_pcols = Array.map (Batch.column out) col_slots in
            let out_dcols = Array.map (fun (_, s) -> Batch.column out s) dn.dn_live in
            let out_row = if dn.dn_row >= 0 then Batch.column out dn.dn_row else [||] in
            let emit () =
              if out.Batch.n > 0 then begin
                cnote_batch out.Batch.n;
                Telemetry.add Telemetry.c_col_pruned_columns
                  (pruned * out.Batch.n);
                down.cpush out;
                out.Batch.n <- 0
              end
            in
            { cpush =
                (fun b ->
                  Budget.steps b.Batch.n;
                  if b.Batch.n > 0 then begin
                    let in_cols =
                      Array.map (fun s -> b.Batch.cols.(s)) copy
                    in
                    let t =
                      match !table with
                      | Some t -> t
                      | None ->
                        (* [source]/[build_key] only read outer slots,
                           identical in every row: load from the first
                           selected row *)
                        gather gslots scratch b b.Batch.sel.(0);
                        let src = csrc scratch in
                        let key_of item =
                          scratch.(var_slot) <- [ item ];
                          cbuild scratch
                        in
                        let t =
                          if not memo then
                            join_table ~reusable src build_key value_cmp ~key_of
                          else begin
                            (* a projected source is a scan: the table
                               indexes the memo's array, which the
                               columns are indexed like *)
                            let e = src_entry src in
                            let t =
                              entry_join_table ~reusable e build_key value_cmp
                                ~key_of
                            in
                            vecs := src_columns e steps;
                            dvecs := fetch_derived cctx dn e;
                            if dn.dn_row >= 0 then
                              rows := rows_upto (Array.length t.Join_table.items);
                            t
                          end
                        in
                        table := Some t;
                        t
                    in
                    let vecs = !vecs and dcs = !dvecs and rowv = !rows in
                    let emit_match k m =
                      Budget.step ();
                      count 1;
                      let idx = b.Batch.sel.(k) in
                      let j = out.Batch.n in
                      for c = 0 to copy_n - 1 do
                        out_cols.(c).(j) <- in_cols.(c).(idx)
                      done;
                      if var_live then var_col.(j) <- [ t.Join_table.items.(m) ];
                      for c = 0 to ncols - 1 do
                        out_pcols.(c).(j) <- vecs.(c).(m)
                      done;
                      for c = 0 to ndlive - 1 do
                        out_dcols.(c).(j) <- dcs.(fst dn.dn_live.(c)).dc_vals.(m)
                      done;
                      if dn.dn_row >= 0 then out_row.(j) <- rowv.(m);
                      out.Batch.sel.(j) <- j;
                      out.Batch.n <- j + 1;
                      if out.Batch.n = cctx.ccap then emit ()
                    in
                    match by_id with
                    | None ->
                      Join_table.probe_batch t ~value_cmp ~rows:b.Batch.n
                        ~atoms_of:(fun k ->
                          let idx = b.Batch.sel.(k) in
                          gather gslots scratch b idx;
                          Item.atomize (cprobe scratch))
                        ~emit:emit_match
                    | Some (cid, rs, derive) -> (
                      (* the probe key is the row's cell: an error cell
                         raises here, as reading the cell would *)
                      let d = cctx.cdcols.(cid) and rowc = b.Batch.cols.(rs) in
                      let row k =
                        let r = row_of rowc.(b.Batch.sel.(k)) in
                        if d.dc_err then ignore (read_cell derive d.dc_vals.(r));
                        r
                      in
                      match join_memo d t with
                      | None ->
                        Join_table.probe_batch t ~value_cmp ~rows:b.Batch.n
                          ~atoms_of:(fun k -> Item.atomize d.dc_vals.(row k))
                          ~emit:emit_match
                      | Some jm ->
                        (* one probe per distinct value id, memoized with
                           the column; a probe that raises is not
                           memoized and raises again at its row *)
                        let ids = (dcol_ids d).id_of in
                        Telemetry.add Telemetry.c_hash_join_probes b.Batch.n;
                        for k = 0 to b.Batch.n - 1 do
                          let r = row k in
                          let v = ids.(r) in
                          let ms =
                            match jm.jm_rows.(v) with
                            | ms when ms != unprobed -> ms
                            | _ ->
                              let ms =
                                Join_table.matches t ~value_cmp
                                  (Item.atomize d.dc_vals.(r))
                              in
                              jm.jm_rows.(v) <- ms;
                              ms
                          in
                          List.iter (emit_match k) ms
                        done)
                  end);
              cflush = (fun () -> emit (); down.cflush ());
            }
          in
          ((label, mk), cenv2)
      in
      let mks, cenv_out = build cenv' (i + 1) rest in
      (labeled_mk :: mks, cenv_out)
  in
  let mks, cenv_ret = build cenv 0 tclauses in
  let ret_gslots = gather_slots cenv_ret [ treturn ] in
  let entry_copy = slot_array (live_slots cenv.slots 0) in
  let xclauses = List.map cclause_view tclauses in
  let next_ref = cenv.next in
  let ncells = Array.length cells in
  cenv_ret,
  fun rt row ->
    (* clause failpoints fire once per clause per invocation, like the
       interpreter's eager pipeline fold *)
    List.iter
      (fun clause ->
        Failpoint.hit "xqeval.clause";
        match clause with
        | X.Hash_join _ -> Failpoint.hit "xqeval.hashjoin"
        | _ -> ())
      xclauses;
    let cap = Batch.size () in
    let nslots = max 1 !next_ref in
    let pool = cbatch_pool_for cap in
    let acquired = ref [] in
    let calloc () =
      let b =
        match !pool with
        | b :: rest ->
          pool := rest;
          Batch.ensure_columns b ~slots:nslots ~cap;
          b
        | [] -> Batch.make_columns ~slots:nslots ~cap
      in
      acquired := b :: !acquired;
      b
    in
    let scratch = Array.make nslots [] in
    List.iter (fun (_, s) -> scratch.(s) <- rt.(s)) cenv.consts;
    let cctx =
      { ccap = cap; calloc; cinstr = Telemetry.enabled ();
        cnslots = nslots; cscratch = scratch;
        cdcols = Array.make ncells no_dcol }
    in
    (* counters register in pipeline order (the chain below is built
       downstream-first) *)
    if cctx.cinstr then
      List.iter
        (fun (label, _) -> ignore (Telemetry.clause_counter label))
        mks;
    let sink =
      { cpush =
          (fun b ->
            Budget.steps b.Batch.n;
            for k = 0 to b.Batch.n - 1 do
              let idx = b.Batch.sel.(k) in
              gather ret_gslots scratch b idx;
              row scratch
            done);
        cflush = (fun () -> ());
      }
    in
    let chain =
      List.fold_left (fun down (_, mk) -> mk cctx down) sink (List.rev mks)
    in
    let feed = calloc () in
    Array.iter
      (fun s -> (Batch.column feed s).(0) <- rt.(s))
      entry_copy;
    feed.Batch.sel.(0) <- 0;
    feed.Batch.n <- 1;
    cnote_batch 1;
    chain.cpush feed;
    chain.cflush ();
    cbatch_release pool !acquired

(* ------------------------------------------------------------------ *)

type compiled = {
  code : comp;
  size : int;
  externals : (string * int) list;  (* runtime bindings -> slots *)
  notes : note option ref list;  (* newest first *)
}

let no_resolve _ = None

let compile_expr ?(optimize = true) ?(resolve = no_resolve)
    ?(node_fns = fun _ -> false) ?(vars = []) (e : X.expr) =
  (* scoping is checked on the un-optimized AST: pushdown deliberately
     leaves hazardous predicates in place, and the error should point
     at what the caller wrote *)
  (let bound =
     List.fold_left
       (fun s v -> Optimize.Vars.add v s)
       Optimize.Vars.empty vars
   in
   match Optimize.scoping_hazard ~bound e with
   | Some v -> cfail "where clause references $%s before it is bound" v
   | None -> ());
  (* [node_fns] resolves a name against the catalog; the optimizer and
     the lowering ask about the same few scans at every clause *)
  let node_fns =
    let known = ref [] in
    fun name ->
      match Optimize.assoc_str name !known with
      | Some b -> b
      | None ->
        let b = node_fns name in
        known := (name, b) :: !known;
        b
  in
  let e =
    if optimize then fst (Optimize.expr ~node_fns e)
    else e
  in
  let notes = ref [] in
  let cenv =
    { slots = []; next = ref 0; resolve; node_fns; consts = []; cells = [];
      notes }
  in
  let cenv, externals =
    List.fold_left
      (fun (ce, acc) v ->
        let ce', slot = bind_slot ce v in
        (ce', (v, slot) :: acc))
      (cenv, []) vars
  in
  let cenv = { cenv with consts = externals } in
  let code = compile_expr_c cenv e in
  { code; size = !(cenv.next); externals = List.rev externals; notes = !notes }

let compile ?optimize ?resolve ?node_fns ?vars (q : X.query) =
  compile_expr ?optimize ?resolve ?node_fns ?vars q.X.body

let run ?(bindings = []) t =
  let rt = Array.make (max t.size 1) [] in
  (* bindings usually come in the externals' order (a cached plan binds
     hundreds for a long IN-list): take them in step, looking a name up
     only when the order differs *)
  let rec bind externals rest =
    match externals with
    | [] -> ()
    | (name, slot) :: externals -> (
      match rest with
      | (n, seq) :: rest when String.equal n name ->
        rt.(slot) <- seq;
        bind externals rest
      | _ -> (
        match List.assoc_opt name bindings with
        | Some seq ->
          rt.(slot) <- seq;
          bind externals rest
        | None -> dfail "external variable $%s is not bound" name))
  in
  bind t.externals bindings;
  t.code rt

let kept verb inputs n =
  let inputs = Lazy.force inputs in
  Printf.sprintf "%s %d of %d input column(s) (pruned %d)" verb n inputs
    (inputs - n)

let by_value_id label verb = function
  | None -> []
  | Some d ->
    [ Printf.sprintf "columnar: %s %s by value id (%s)" label verb
        (Optimize.derived_label d) ]

let note_lines = function
  | N_expander x ->
    let listed what noun items =
      Printf.sprintf "columnar: %s %s %d %s%s" x.label what (List.length items)
        noun
        (if items = [] then "" else " (" ^ String.concat ", " items ^ ")")
    in
    let derived = List.map fst x.cells in
    let projected =
      List.filter
        (fun step ->
          List.mem step x.written
          || List.exists
               (fun (d : Optimize.derived) -> d.d_step = step)
               derived)
        x.steps
    in
    let writes =
      (if x.var_written then [ "$" ^ x.var ] else [])
      @ x.written
      @ List.filter_map
          (fun (d, w) ->
            if w then Some ("cell " ^ Optimize.derived_label d) else None)
          x.cells
      @ if x.row_written then [ "row position" ] else []
    in
    Printf.sprintf "columnar: %s %s" x.label (kept "carries" x.inputs x.carried)
    :: (listed "writes" "column(s)" writes
       ^ if x.var_written then "" else Printf.sprintf "; $%s not written" x.var)
    :: (if projected = [] then []
        else [ listed "projects" "column(s)" projected ])
    @ (if derived = [] then []
       else
         [ listed "derives" "cell column(s)"
             (List.map Optimize.derived_label derived) ])
    @ by_value_id x.label "probes" x.probe_id
  | N_group g ->
    let what, writes =
      match g.kernels with
      | Some specs ->
        ( Printf.sprintf "kernels [%s]; partition not materialized"
            (if specs = [] then "none"
             else String.concat "; " (List.map Optimize.spec_label specs)),
          Printf.sprintf "%d key and %d kernel column(s)" g.keys
            (List.length specs) )
      | None ->
        ( "materializes the partition (aggregates not kernelizable)",
          Printf.sprintf "%d key column(s) and the partition" g.keys )
    in
    Printf.sprintf "columnar: %s %s; %s, writes %s" g.label what
      (kept "carries" g.inputs g.carried) writes
    :: by_value_id g.label "keys" g.key_id
  | N_order o -> [ "columnar: order by " ^ kept "retains" o.inputs o.retained ]
  | N_skipped (var, X.Elem _) ->
    [ Printf.sprintf "columnar: let $%s skipped, $%s's record not built" var var ]
  | N_skipped (var, _) ->
    [ Printf.sprintf "columnar: let $%s skipped (nothing reads it)" var ]
  | N_text cells ->
    [ Printf.sprintf "columnar: string-join text writer, %d cell(s) per row" cells ]

let shape t =
  Printf.sprintf
    "flwor pipelines execute as %d-row batches (selection-vector filtering)"
    (Batch.size ())
  :: "columnar layout: one value vector per bound variable (required-column \
      pruning active)"
  :: List.concat_map
       (fun r -> match !r with Some n -> note_lines n | None -> [])
       (List.rev t.notes)
