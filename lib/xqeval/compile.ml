module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item
module Node = Aqua_xml.Node
module X = Aqua_xquery.Ast
module Telemetry = Aqua_core.Telemetry
module Budget = Aqua_resilience.Budget
module Failpoint = Aqua_resilience.Failpoint
open Operator

exception Compile_error of string

let cfail fmt = Format.kasprintf (fun s -> raise (Compile_error s)) fmt
let dfail = Error.fail

type resolver = string -> Eval.external_fn option

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
  runs : int ref;
      (* run slots handed out: one per hoisted value and per probe
         table over one ([run_slot], {!Hoisted}) *)
}

let reserve_note cenv =
  let r = ref None in
  cenv.notes := r :: !(cenv.notes);
  r

let run_slot cenv =
  let k = !(cenv.runs) in
  incr cenv.runs;
  k

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
(* FLWOR lowering: planning                                            *)

(* The expression compiler, passed to the lowering: the clauses'
   expressions are compiled by [compile_expr_c], whose FLWORs are in
   turn lowered here. *)
type exprc = {
  expr : cenv -> X.expr -> comp;
  cond : cenv -> X.expr -> rt -> bool;
}

(* What every clause's lowering reads about its FLWOR, computed once:
   per clause position the (step name, column variable) pairs its for
   or hash join binds besides its own variable ([pcols]) and the (cell
   index, derived cell) pairs bound with them ([pcells]); each cell
   expression compiled once ([derives]); the row variable each cell is
   read through ([cell_rows]); the names each clause reads ([treads]),
   the lets skipped as dead ([dead_let]) and the variables known to
   hold only nodes before each clause ([nodes_at]). *)
type lowering = {
  xc : exprc;
  entry_slots : (string * int) list;
  pcols : (string * string) list array;
  pcells : (int * Optimize.derived) list array;
  cells : Optimize.derived array;
  derives : (Item.sequence -> Item.sequence) array;
  cell_rows : (string * (int * string)) list;
  tarr : cclause array;
  probe_cells : (int * string) option array;
  treads : Optimize.Vars.t array;
  dead_let : bool array;
  nodes_at : Optimize.Vars.t array;
  ret_reads : Optimize.Vars.t;
  consts : Slots.t;
      (* the plan's externals: in the scratch row from the start of
         every run and never changed, so no operator carries or
         gathers them *)
}

(* Kernel inputs, group keys and probes by value id that are a whole
   derived cell read it through the tuple's row position: their reads
   are the row variable's. *)
let by_row cell_rows vars =
  if cell_rows = [] then vars
  else
    Optimize.Vars.map
      (fun v -> match Optimize.assoc_str v cell_rows with Some (_, row) -> row | None -> v)
      vars

(* A hash join whose probe key is a whole derived cell of this FLWOR
   and whose build is reusable (the same table across invocations)
   probes by value id: it reads the cell through the row position,
   like a group key. *)
let probe_cell cell_rows = function
  | X.Hash_join { var; source; build_key; probe_key = X.Var v; _ } -> (
    match Optimize.assoc_str v cell_rows with
    | Some _ as cell when Optimize.reusable_build ~var ~source ~build_key -> cell
    | _ -> None)
  | _ -> None

let lowering xc cenv ({ projs; tclauses; treturn; cells } : fplan) =
  let n = List.length tclauses in
  let pcols = Array.make n [] in
  List.iter (fun (p : Optimize.projection) -> pcols.(p.p_index) <- p.p_cols) projs;
  let pcells = Array.make n [] in
  Array.iteri
    (fun id (d : Optimize.derived) -> pcells.(d.d_index) <- pcells.(d.d_index) @ [ (id, d) ])
    cells;
  (* each cell expression compiled once, over a one-slot environment *)
  let derives =
    Array.map
      (fun (d : Optimize.derived) ->
        let ccenv =
          { cenv with slots = [ (Optimize.cell_var, 0) ]; next = ref 1; consts = []; cells = [] }
        in
        let c = xc.expr ccenv d.d_expr in
        let n = !(ccenv.next) in
        fun cell ->
          let rt = Array.make n [] in
          rt.(0) <- cell;
          c rt)
      cells
  in
  let cell_rows =
    Array.to_list
      (Array.mapi
         (fun id (d : Optimize.derived) -> (d.d_var, (id, Optimize.row_var d.d_binding)))
         cells)
  in
  let tarr = Array.of_list tclauses in
  let probe_cells =
    Array.map (function C_plain c -> probe_cell cell_rows c | C_kernel _ -> None) tarr
  in
  let reads j = function
    | C_plain (X.Group _ as c) -> by_row cell_rows (Optimize.clause_reads c)
    | C_plain (X.Hash_join _ as c) when Option.is_some probe_cells.(j) ->
      by_row cell_rows (Optimize.clause_reads c)
    | C_plain c -> Optimize.clause_reads c
    | C_kernel k ->
      (* a kernel group reads its keys and kernel inputs, not the
         grouped variable itself *)
      by_row cell_rows
        (Optimize.free_vars_all
           (List.map fst k.ck_keys
           @ List.map (fun (s : Optimize.kernel_spec) -> s.k_arg) k.ck_specs))
  in
  let nodes_at = Array.make (n + 1) Optimize.Vars.empty in
  Array.iteri
    (fun i c ->
      nodes_at.(i + 1) <-
        List.fold_left
          (fun s (_, cv) -> Optimize.Vars.add cv s)
          (Optimize.nodes_after ~node_fns:cenv.node_fns ~entry:Optimize.Vars.empty
             nodes_at.(i) (cclause_view c))
          pcols.(i))
    tarr;
  let ret_reads = Optimize.free_vars treturn in
  (* A let nothing downstream reads (a record whose every read was
     fused away) whose value cannot raise is skipped, so it reads
     nothing either: the columns only it would read are not carried or
     fetched.  Decided by name from the end, which can only keep a let
     that liveness by slot would drop. *)
  let treads = Array.make n Optimize.Vars.empty in
  let dead_let = Array.make n false in
  let needed = ref ret_reads in
  for j = n - 1 downto 0 do
    match tarr.(j) with
    | C_plain (X.Let { var; value })
      when (not (Optimize.Vars.mem var !needed))
           && Optimize.cannot_fail ~nodes:nodes_at.(j) value ->
      dead_let.(j) <- true
    | c ->
      treads.(j) <- reads j c;
      needed := Optimize.Vars.union !needed treads.(j)
  done;
  { xc; entry_slots = cenv.slots; pcols; pcells; cells; derives; cell_rows; tarr;
    probe_cells; treads; dead_let; nodes_at; ret_reads;
    consts = Slots.of_list (List.map snd cenv.consts) }

(* the names an expander binds besides its variable *)
let extra_names lw i =
  List.map snd lw.pcols.(i)
  @
  match lw.pcells.(i) with
  | [] -> []
  | (_, (d : Optimize.derived)) :: _ as ds ->
    Optimize.row_var d.d_binding
    :: List.map (fun (_, (d : Optimize.derived)) -> d.d_var) ds

(* Required-column pruning.  Each expander and barrier copies into its
   output only the slots the remainder of the pipeline (later clauses
   plus the return) can still read, so a batch arriving at an operator
   has valid data exactly in the columns live at that point; everything
   else is stale storage no reader touches.  A let no later clause reads
   is skipped when its value cannot raise ([Optimize.cannot_fail]): the
   record constructor fused away by constructor fusion.

   Liveness by slot: the slots of [slots] (a binding environment at
   clause position [from], innermost first) that the clauses from
   [from] on and the return can still read.  Names resolve where they
   are read: a later binding shadows as a fresh (unmaterialized, -1)
   slot, and a group clause restores the FLWOR's entry environment — so
   a name shadowed here but read past a group keeps the outer column
   alive, and the shadowing binding never stands in for it. *)
let live_slots lw slots from =
  let add slots vars acc =
    Optimize.Vars.fold
      (fun v acc ->
        match Optimize.assoc_str v slots with
        | Some s when s >= 0 && not (Slots.mem s lw.consts) -> Slots.add s acc
        | _ -> acc)
      vars acc
  in
  let fresh slots v = (v, -1) :: slots in
  let rec walk slots acc j =
    if j >= Array.length lw.tarr then add slots lw.ret_reads acc
    else
      let acc = add slots lw.treads.(j) acc in
      let slots =
        match lw.tarr.(j) with
        | C_plain (X.For { var; _ } | X.Hash_join { var; _ }) ->
          List.fold_left fresh (fresh slots var) (extra_names lw j)
        | C_plain (X.Let { var; _ }) -> fresh slots var
        | C_plain (X.Where _ | X.Order_by _) -> slots
        | C_plain (X.Group { partition; keys; _ }) ->
          List.fold_left fresh lw.entry_slots (partition :: List.map snd keys)
        | C_kernel k ->
          List.fold_left fresh lw.entry_slots
            ((k.ck_partition :: List.map snd k.ck_keys)
            @ List.map (fun (s : Optimize.kernel_spec) -> s.k_var) k.ck_specs)
      in
      walk slots acc (j + 1)
  in
  walk slots Slots.empty from

let slot_array set = Array.of_list (Slots.elements set)

(* The columns an operator gathers into the scratch row before
   evaluating: the slots of [vars] bound in [cenv] (innermost binding
   per name), deduplicated ascending. *)
let bound_slots lw cenv vars =
  let slots =
    Optimize.Vars.fold
      (fun v acc ->
        match Optimize.assoc_str v cenv.slots with
        | Some s when not (Slots.mem s lw.consts) -> s :: acc
        | _ -> acc)
      vars []
  in
  Array.of_list (List.sort_uniq compare slots)

let gather_slots lw cenv exprs = bound_slots lw cenv (Optimize.free_vars_all exprs)

let inputs_at lw cenv i = lazy (Slots.cardinal (live_slots lw cenv.slots i))

let cinput lw cenv (e : X.expr) =
  match e with
  | X.Var v -> (
    match Optimize.assoc_str v lw.cell_rows with
    | Some (id, row) -> Group.In_cell (id, lookup_slot cenv row, lw.derives.(id))
    | None -> Group.In_expr (lw.xc.expr cenv e))
  | _ -> Group.In_expr (lw.xc.expr cenv e)

let fill note (op : Operator.t) =
  note := op.note;
  op

(* The outputs of expander [i] (a for or hash join binding [var]): the
   environment with [var], its column variables and its derived cell
   variables bound, and what it writes — a column or variable no reader
   is left for is not written. *)
let expander ?probe_id lw cenv label var i =
  let inputs = inputs_at lw cenv i in
  let cenv, slot = bind_slot cenv var in
  let cenv, cols =
    List.fold_left_map
      (fun ce (step, cv) ->
        let ce, s = bind_slot ce cv in
        (ce, (step, s)))
      cenv lw.pcols.(i)
  in
  let cenv, row_slot, dslots =
    match lw.pcells.(i) with
    | [] -> (cenv, -1, [])
    | ds ->
      let cenv, row_slot = bind_slot cenv (Optimize.row_var var) in
      let cenv, dslots =
        List.fold_left_map
          (fun ce (id, (d : Optimize.derived)) ->
            let ce, s = bind_slot ce d.d_var in
            ({ ce with cells = (d.d_var, lw.derives.(id)) :: ce.cells }, s))
          cenv ds
      in
      (cenv, row_slot, dslots)
  in
  let live = live_slots lw cenv.slots (i + 1) in
  let copy =
    slot_array
      (Slots.diff live (Slots.of_list ((slot :: row_slot :: List.map snd cols) @ dslots)))
  in
  let cols = List.filter (fun (_, s) -> Slots.mem s live) cols in
  let written = List.map fst cols in
  let live_or_none s = if Slots.mem s live then s else -1 in
  let ds = lw.pcells.(i) in
  ( cenv,
    { Expand.label;
      note =
        N_expander
          { label; var; inputs; carried = Array.length copy;
            var_written = Slots.mem slot live; steps = List.map fst lw.pcols.(i); written;
            cells = List.map2 (fun (_, d) s -> (d, Slots.mem s live)) ds dslots;
            row_written = Slots.mem row_slot live; probe_id };
      var_slot = slot; var_live = Slots.mem slot live; copy; steps = written;
      col_slots = Array.of_list (List.map snd cols);
      dn =
        { dn_ids = Array.of_list (List.map fst ds);
          dn_specs =
            Array.of_list
              (List.map
                 (fun (id, (d : Optimize.derived)) ->
                   (d.d_step, d.d_expr, Hashtbl.hash d.d_expr, lw.derives.(id)))
                 ds);
          dn_row = live_or_none row_slot;
          dn_live =
            Array.of_list
              (List.filter
                 (fun (_, s) -> s >= 0)
                 (List.mapi (fun k s -> (k, live_or_none s)) dslots)) } } )

let lower_for lw cenv i var source =
  let note = reserve_note cenv in
  let gslots = gather_slots lw cenv [ source ] in
  let csrc = lw.xc.expr cenv source in
  let cenv, o = expander lw cenv ("for $" ^ var) var i in
  (fill note (Expand.for_ o ~gslots ~source:csrc), cenv)

let lower_let lw cenv i var value =
  let gslots = gather_slots lw cenv [ value ] in
  let cval = lw.xc.expr cenv value in
  let cenv', slot = bind_slot cenv var in
  (* a let nothing downstream reads (a record whose every read was
     fused away) is skipped when building it cannot raise *)
  let dead =
    lw.dead_let.(i)
    || (not (Slots.mem slot (live_slots lw cenv'.slots (i + 1))))
       && Optimize.cannot_fail ~nodes:lw.nodes_at.(i) value
  in
  if dead then reserve_note cenv := Some (N_skipped (var, value));
  (Inplace.let_ ~label:("let $" ^ var) ~gslots ~value:(if dead then None else Some cval) ~slot, cenv')

let lower_where lw cenv i cond =
  Inplace.where ~label:(Printf.sprintf "where@%d" i) ~gslots:(gather_slots lw cenv [ cond ])
    ~cond:(lw.xc.cond cenv cond)

let lower_order lw cenv i specs =
  let note = reserve_note cenv in
  let gslots = gather_slots lw cenv (List.map (fun (s : X.order_spec) -> s.key) specs) in
  let keys =
    List.map
      (fun (s : X.order_spec) -> (lw.xc.expr cenv s.key, s.descending, s.empty))
      specs
  in
  let retain = slot_array (live_slots lw cenv.slots (i + 1)) in
  fill note
    (Order.order_by ~label:(Printf.sprintf "order-by@%d" i)
       ~note:(N_order { inputs = inputs_at lw cenv i; retained = Array.length retain })
       ~gslots ~keys ~retain)

(* Past a group only the FLWOR's entry bindings survive (BEA scoping):
   [names] (the keys, then the partition or the kernel variables) are
   bound after them, and the group carries the entry columns still
   read. *)
let post_group lw cenv i names =
  let cenv, slots = List.fold_left_map bind_slot { cenv with slots = lw.entry_slots } names in
  let carried = Slots.diff (live_slots lw cenv.slots (i + 1)) (Slots.of_list slots) in
  (cenv, slots, slot_array carried)

let group_plan lw cenv i ~label ~kernels ~gslots ~keys ~key_slots ~entry_copy =
  { Group.label;
    note =
      N_group
        { label; kernels; inputs = inputs_at lw cenv i; carried = Array.length entry_copy;
          keys = List.length key_slots;
          (* the key a group reads by value id *)
          key_id =
            (match keys with [| Group.In_cell (cid, _, _) |] -> Some lw.cells.(cid) | _ -> None) };
    gslots; keys; key_slots; entry_copy }

let lower_group lw cenv i ~grouped ~partition ~keys =
  let note = reserve_note cenv in
  let grouped = lookup_slot cenv grouped in
  let gslots = bound_slots lw cenv (by_row lw.cell_rows (Optimize.free_vars_all (List.map fst keys))) in
  let ckeys = Array.of_list (List.map (fun (k, _) -> cinput lw cenv k) keys) in
  let cenv', slots, entry_copy = post_group lw cenv i (List.map snd keys @ [ partition ]) in
  let nkeys = List.length keys in
  let key_slots = List.filteri (fun j _ -> j < nkeys) slots in
  let p =
    group_plan lw cenv i ~label:("group by -> $" ^ partition) ~kernels:None ~gslots ~keys:ckeys
      ~key_slots ~entry_copy
  in
  (fill note (Group.materialize p ~grouped ~partition:(List.nth slots nkeys)), cenv')

let lower_kernel lw cenv i ~partition ~keys ~specs =
  let note = reserve_note cenv in
  let args = List.map (fun (s : Optimize.kernel_spec) -> s.k_arg) specs in
  let gslots =
    bound_slots lw cenv (by_row lw.cell_rows (Optimize.free_vars_all (List.map fst keys @ args)))
  in
  let ckeys = Array.of_list (List.map (fun (k, _) -> cinput lw cenv k) keys) in
  let distinct =
    List.fold_left (fun acc a -> if List.mem a acc then acc else acc @ [ a ]) [] args
  in
  let inputs = List.map (fun a -> (a, cinput lw cenv a)) distinct in
  let cenv', slots, entry_copy =
    post_group lw cenv i
      (List.map snd keys @ List.map (fun (s : Optimize.kernel_spec) -> s.k_var) specs)
  in
  let nkeys = List.length keys in
  let p =
    group_plan lw cenv i ~label:("group by -> $" ^ partition) ~kernels:(Some specs)
      ~gslots ~keys:ckeys ~key_slots:(List.filteri (fun j _ -> j < nkeys) slots) ~entry_copy
  in
  let spec_slots = Array.of_list (List.filteri (fun j _ -> j >= nkeys) slots) in
  (fill note (Group.kernel p ~specs:specs ~inputs ~spec_slots), cenv')

let lower_hash_join lw cenv i ~var ~source ~build_key ~probe_key ~value_cmp =
  (* probing by value id: (cell index, row slot, evaluator) *)
  let by_id =
    Option.map
      (fun (cid, row) -> (cid, lookup_slot cenv row, lw.derives.(cid)))
      lw.probe_cells.(i)
  in
  (* gather set: [build_key]'s free vars minus the join variable — the
     variable resolves to the fresh slot (bound below), never to a
     same-named outer column, which may be pruned at this point — and
     the probe key's, unless it is read by row *)
  let gslots =
    bound_slots lw cenv
      (Optimize.Vars.union (Optimize.free_vars source)
         (Optimize.Vars.union
            (if by_id = None then Optimize.free_vars probe_key else Optimize.Vars.empty)
            (Optimize.Vars.remove var (Optimize.free_vars build_key))))
  in
  let note = reserve_note cenv in
  let csrc = lw.xc.expr cenv source in
  let cprobe = lw.xc.expr cenv probe_key in
  let cenv', o =
    expander lw cenv ("hash-join $" ^ var) var i
      ?probe_id:(Option.map (fun (cid, _, _) -> lw.cells.(cid)) by_id)
  in
  (* the build key sees the join variable, not its columns *)
  let cbuild = lw.xc.expr { cenv with slots = (var, o.var_slot) :: cenv.slots } build_key in
  let reusable = Optimize.reusable_build ~var ~source ~build_key in
  ( fill note
      (Expand.hash_join o ~gslots ~source:csrc ~build:cbuild ~probe:cprobe ~build_key ~value_cmp
         ~reusable ~by_id),
    cenv' )

let lower_clause lw cenv i = function
  | C_plain (X.For { var; source }) -> lower_for lw cenv i var source
  | C_plain (X.Let { var; value }) -> lower_let lw cenv i var value
  | C_plain (X.Where cond) -> (lower_where lw cenv i cond, cenv)
  | C_plain (X.Order_by specs) -> (lower_order lw cenv i specs, cenv)
  | C_plain (X.Group { grouped; partition; keys }) ->
    lower_group lw cenv i ~grouped ~partition ~keys
  | C_kernel { ck_partition; ck_keys; ck_specs; ck_orig = _ } ->
    lower_kernel lw cenv i ~partition:ck_partition ~keys:ck_keys ~specs:ck_specs
  | C_plain (X.Hash_join { var; source; build_key; probe_key; value_cmp }) ->
    lower_hash_join lw cenv i ~var ~source ~build_key ~probe_key ~value_cmp

(* Lowers a planned FLWOR's clauses.  Returns the environment its
   return is compiled in and the runner: [run rt row] pushes the outer
   row [rt] through the pipeline and calls [row scratch] per result
   tuple, in order, with the return's free variables gathered into
   [scratch]. *)
let lower_flwor xc cenv (p : fplan) : cenv * (rt -> (rt -> unit) -> unit) =
  let lw = lowering xc cenv p in
  let rec build cenv i = function
    | [] -> ([], cenv)
    | clause :: rest ->
      let op, cenv' = lower_clause lw cenv i clause in
      let ops, cenv_out = build cenv' (i + 1) rest in
      (op :: ops, cenv_out)
  in
  let ops, cenv_ret = build cenv 0 p.tclauses in
  let ret_gslots = gather_slots lw cenv_ret [ p.treturn ] in
  let entry_copy = slot_array (live_slots lw cenv.slots 0) in
  let xclauses = List.map cclause_view p.tclauses in
  let next_ref = cenv.next in
  let ncells = Array.length p.cells in
  ( cenv_ret,
    fun rt row ->
      (* clause failpoints fire once per clause per invocation, like the
         interpreter's eager pipeline fold *)
      List.iter
        (fun clause ->
          Failpoint.hit "xqeval.clause";
          match clause with X.Hash_join _ -> Failpoint.hit "xqeval.hashjoin" | _ -> ())
        xclauses;
      Operator.run ops ~slots:(max 1 !next_ref) ~cells:ncells ~consts:cenv.consts
        ~entry:entry_copy ~ret:ret_gslots rt row )
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
    | Some derive -> fun rt -> Src_memo.read_cell derive rt.(slot))
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
          ( Src_memo.step_matcher s.X.name,
            List.map (compile_predicate cenv) s.X.predicates ))
        steps
    in
    match csteps with
    | [ (m, []) ] ->
      (* single unpredicated child step — the shape of every translated
         column access, worth keeping free of fold/closure overhead *)
      fun rt -> (
        match cbase rt with
        | [ item ] -> Src_memo.children_matching m item
        | seq -> List.concat_map (Src_memo.children_matching m) seq)
    | _ ->
      fun rt ->
        List.fold_left
          (fun seq (m, preds) ->
            let widened = List.concat_map (Src_memo.children_matching m) seq in
            List.fold_left (fun items p -> p rt items) widened preds)
          (cbase rt) csteps)
  | X.Call (name, [ arg ]) when String.equal name Functions.hoisted_name ->
    let k = run_slot cenv in
    reserve_note cenv := Some (N_hoisted (k, arg));
    let c = compile_expr_c cenv arg in
    fun rt -> Hoisted.hoisted_value k c rt
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
  | X.Binop _ when Option.is_some (Optimize.semi_join e) ->
    let c = compile_semi_join cenv (Option.get (Optimize.semi_join e)) in
    fun rt -> Item.of_bool (c rt)
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
  | X.Quantified { every; bindings; satisfies } -> (
    match Optimize.quantified_probe e with
    | Some q ->
      let c = compile_quantified_probe cenv q satisfies in
      fun rt -> Item.of_bool (c rt)
    | None ->
      let c = compile_quantified cenv every bindings satisfies in
      fun rt -> Item.of_bool (c rt))
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
  | X.Binop _ when Option.is_some (Optimize.semi_join e) ->
    compile_semi_join cenv (Option.get (Optimize.semi_join e))
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

and compile_quantified cenv every bindings satisfies : rt -> bool =
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
  build cenv bindings

(* Probes over hoisted values (DESIGN.md section 7).  Each builds its
   table from the hoisted value once per run, in a run slot of its own,
   and evaluates the operands in the order the comparison it replaces
   does, so an error surfaces at the same tuple.  Keying is
   [Join_table]'s, faithful to general comparison (untypedAtomic
   promotion, NaN); like the hash join, a pair of incomparable types
   simply does not match where the nested loop would raise. *)

(* [L = H]: the hash set of [H]'s atoms, probed with [L]'s. *)
and compile_semi_join cenv (sj : Optimize.semi_join) : rt -> bool =
  let k = run_slot cenv in
  reserve_note cenv
  := Some (N_probe "semi-join probe: hash set over the hoisted value, built once per run");
  let cset = compile_expr_c cenv sj.Optimize.sj_set in
  let cprobe = compile_expr_c cenv sj.Optimize.sj_probe in
  if sj.Optimize.sj_set_right then fun rt ->
    let set = cset rt in
    let probe = cprobe rt in
    Join_table.has_match (Hoisted.set_table k set) (Item.atomize probe)
  else fun rt ->
    let probe = cprobe rt in
    let set = cset rt in
    Join_table.has_match (Hoisted.set_table k set) (Item.atomize probe)

(* [some $w in H satisfies L = $w/C] and [every $w in H satisfies L !=
   $w/C]: [L] is read only when [H] is not empty, as the nested loop
   reads it at the first item.  SQL's NULL rules fall out of the
   comparison: for NOT IN, an empty cell ($w/C, a NULL on the right)
   makes every item's test false, and an empty [L] (a NULL on the left)
   does too, so a row is kept only when [H] is empty.  Items that are
   not all nodes, and a multi-atom [L] or cell under [every], take the
   nested loop ([nested]) over the memoized [H]. *)
and compile_quantified_probe cenv (q : Optimize.quantified_probe) satisfies :
    rt -> bool =
  let k = run_slot cenv in
  reserve_note cenv
  := Some
       (N_probe
          (Printf.sprintf "%s probe: $%s/%s hashed once per run"
             (if q.Optimize.qp_every then "anti-join" else "semi-join")
             q.Optimize.qp_var q.Optimize.qp_step));
  let every = q.Optimize.qp_every in
  let cset = compile_expr_c cenv q.Optimize.qp_set in
  let cprobe = compile_expr_c cenv q.Optimize.qp_probe in
  let matches = Src_memo.step_matcher q.Optimize.qp_step in
  (* the quantifier itself over the memoized items *)
  let cenv', slot = bind_slot cenv q.Optimize.qp_var in
  let csat = compile_expr_c cenv' satisfies in
  let nested rt set =
    let test item =
      rt.(slot) <- [ item ];
      Item.effective_boolean_value (csat rt)
    in
    if every then List.for_all test set else List.exists test set
  in
  fun rt ->
    match cset rt with
    | [] -> every
    | set -> (
      match Hoisted.quant_table k matches set with
      | Hoisted.Q_nested -> nested rt set
      | Hoisted.Q_probe t -> (
        let probe = Item.atomize (cprobe rt) in
        if not every then Join_table.has_match t.tbl probe
        else if t.null then false
        else
          match probe with
          | [] -> false
          | [ _ ] when t.single -> not (Join_table.has_match t.tbl probe)
          | _ -> nested rt set))

(* FLWOR compilation: a set operation's matches FLWOR is one probe;
   any other is planned ([plan_flwor]), lowered to a pipeline of
   operators ([lower_flwor]) and its return compiled per result tuple. *)
and compile_flwor cenv (f : X.flwor) : comp =
  match Optimize.setop_probe f with
  | Some p -> compile_setop_probe cenv f p
  | None -> compile_pipeline cenv f

(* The set operations' matches FLWOR ([Optimize.setop_probe]) as one
   probe per invocation: the right-hand records are keyed once per run
   by their composite null-safe key (an empty cell is its own
   component), and the invocation's key variables look their matches up
   in build order.  Records or keys outside the string class of
   [setop_table] take the nested loop over the memoized records. *)
and compile_setop_probe cenv (f : X.flwor) (p : Optimize.setop_probe) : comp =
  let k = run_slot cenv in
  reserve_note cenv
  := Some
       (N_probe
          (Printf.sprintf
             "set-op probe: $%s matched on a %d-column null-safe key, hash \
              table built once per run"
             p.Optimize.sp_var (List.length p.Optimize.sp_keys)));
  let csrc = compile_expr_c cenv p.Optimize.sp_source in
  let ckeys =
    Array.of_list
      (List.map (fun (kv, _) -> compile_expr_c cenv (X.Var kv)) p.Optimize.sp_keys)
  in
  let matchers =
    Array.of_list
      (List.map (fun (_, c) -> Src_memo.step_matcher c) p.Optimize.sp_keys)
  in
  let cenv_r, r_slot = bind_slot cenv p.Optimize.sp_var in
  let cret =
    match f.X.return with
    | X.Var v when String.equal v p.Optimize.sp_var -> None
    | r -> Some (compile_expr_c cenv_r r)
  in
  let emit rt item =
    match cret with
    | None -> [ item ]
    | Some c ->
      rt.(r_slot) <- [ item ];
      c rt
  in
  let conds =
    List.filter_map
      (function X.Where c -> Some (compile_cond cenv_r c) | _ -> None)
      f.X.clauses
  in
  let nested rt set =
    List.concat_map
      (fun item ->
        rt.(r_slot) <- [ item ];
        if List.for_all (fun c -> c rt) conds then emit rt item else [])
      set
  in
  let nclauses = List.length f.X.clauses in
  fun rt ->
    (* the pipeline's clause failpoints and feed batch *)
    for _ = 1 to nclauses do
      Failpoint.hit "xqeval.clause"
    done;
    cnote_batch 1;
    Budget.steps 1;
    match csrc rt with
    | [] -> []
    | set ->
      let t = Hoisted.setop_table k matchers set in
      let buf = Buffer.create 32 in
      if
        not
          (t.Hoisted.so_exact && Array.for_all (fun c -> Hoisted.setop_component buf (c rt)) ckeys)
      then nested rt set
      else begin
        Telemetry.incr Telemetry.c_hash_join_probes;
        let rows = List.rev (Hashtbl.find_all t.so_rows (Buffer.contents buf)) in
        Budget.steps (List.length rows);
        List.concat_map (fun r -> emit rt t.so_items.(r)) rows
      end

and compile_pipeline cenv (f : X.flwor) : comp =
  let p = plan_flwor ~node_fns:cenv.node_fns ~consts:(const_names cenv) f in
  let cenv_ret, run = lower_flwor xc cenv p in
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
        let cenv_ret, run = lower_flwor xc cenv p in
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

and xc = { expr = compile_expr_c; cond = compile_cond }

(* ------------------------------------------------------------------ *)

type compiled = {
  code : comp;
  size : int;
  externals : (string * int) list;  (* runtime bindings -> slots *)
  notes : note option ref list;  (* newest first *)
  runs : int;  (* run slots a run needs ([run_slot]) *)
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
      notes; runs = ref 0 }
  in
  let cenv, slots = List.fold_left_map bind_slot cenv vars in
  let externals = List.combine vars slots in
  let cenv = { cenv with consts = externals } in
  let code = compile_expr_c cenv e in
  { code; size = !(cenv.next); externals; notes = !notes; runs = !(cenv.runs) }

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
  (* this run's hoisted values *)
  Hoisted.within t.runs t.code rt

let shape t =
  Printf.sprintf
    "flwor pipelines execute as %d-row batches (selection-vector filtering)"
    (Batch.size ())
  :: "columnar layout: one value vector per bound variable (required-column \
      pruning active)"
  :: List.concat_map
       (fun r -> match !r with Some n -> note_lines n | None -> [])
       (List.rev t.notes)
