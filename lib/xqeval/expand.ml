module Item = Aqua_xml.Item
module Telemetry = Aqua_core.Telemetry
module Budget = Aqua_resilience.Budget
open Operator

type derivation = {
  dn_ids : int array;
  dn_specs : Src_memo.spec array;
  dn_row : int;
  dn_live : (int * int) array;
}

type outputs = {
  label : string;
  note : note;
  var_slot : int;
  var_live : bool;
  copy : int array;
  steps : string list;
  col_slots : int array;
  dn : derivation;
}

(* One invocation's output batch and the columns of the source being
   served, shared by both expanders: [write] appends one output row,
   the carried cells of input row [idx] followed by source row [r]. *)
type writer = {
  o : outputs;
  down : csink;
  pruned : int;
  cap : int;
  out : Batch.columns;
  out_cols : Item.sequence array array;
  var_col : Item.sequence array;
  out_pcols : Item.sequence array array;
  out_dcols : Item.sequence array array;
  out_row : Item.sequence array;
  mutable in_cols : Item.sequence array array;
  mutable vecs : Item.sequence array array;
  mutable dcs : Src_memo.dcol array;
  mutable rowv : Item.sequence array;
}

let writer cctx down o =
  let out = cctx.calloc () in
  { o; down; pruned = max 0 (cctx.cnslots - Array.length o.copy); cap = cctx.ccap; out;
    out_cols = Array.map (Batch.column out) o.copy;
    var_col = Batch.column out o.var_slot;
    out_pcols = Array.map (Batch.column out) o.col_slots;
    out_dcols = Array.map (fun (_, s) -> Batch.column out s) o.dn.dn_live;
    out_row = (if o.dn.dn_row >= 0 then Batch.column out o.dn.dn_row else [||]);
    in_cols = [||]; vecs = [||]; dcs = [||]; rowv = [||] }

let write w idx item r =
  let out = w.out in
  let j = out.Batch.n in
  let in_cols = w.in_cols and vecs = w.vecs and dcs = w.dcs in
  for t = 0 to Array.length in_cols - 1 do
    w.out_cols.(t).(j) <- in_cols.(t).(idx)
  done;
  if w.o.var_live then w.var_col.(j) <- [ item ];
  for c = 0 to Array.length vecs - 1 do
    w.out_pcols.(c).(j) <- vecs.(c).(r)
  done;
  let live = w.o.dn.dn_live in
  for c = 0 to Array.length live - 1 do
    w.out_dcols.(c).(j) <- dcs.(fst live.(c)).Src_memo.dc_vals.(r)
  done;
  if w.o.dn.dn_row >= 0 then w.out_row.(j) <- w.rowv.(r);
  out.Batch.sel.(j) <- j;
  out.Batch.n <- j + 1;
  if out.Batch.n = w.cap then emit w.down w.pruned out

let take_in w (b : Batch.columns) = w.in_cols <- Array.map (fun s -> b.Batch.cols.(s)) w.o.copy

(* Serve source rows [0, n) from memo entry [e]: its projected columns,
   and its derived columns published to this invocation's kernels and
   group keys. *)
let serve w cctx e n =
  let dn = w.o.dn in
  w.vecs <- Src_memo.columns e w.o.steps;
  if Array.length dn.dn_ids > 0 then begin
    w.dcs <- Src_memo.derived e dn.dn_specs;
    Array.iteri (fun k id -> cctx.cdcols.(id) <- w.dcs.(k)) dn.dn_ids
  end;
  if dn.dn_row >= 0 then w.rowv <- Src_memo.rows_upto n

let memoized o = Array.length o.col_slots > 0 || Array.length o.dn.dn_ids > 0

let for_ o ~gslots ~source =
  let memo = memoized o in
  let mk cctx down =
    let count = ccounter cctx o.label in
    let scratch = cctx.cscratch in
    let w = writer cctx down o in
    (* the source last served from the memo: a closed source is the
       same list in every tuple *)
    let last_src = ref [] in
    { cpush =
        (fun b ->
          Budget.steps b.Batch.n;
          take_in w b;
          for k = 0 to b.Batch.n - 1 do
            let idx = b.Batch.sel.(k) in
            gather gslots scratch b idx;
            match source scratch with
            | [] -> ()
            | items ->
              let nitems = List.length items in
              if memo && items != !last_src then begin
                last_src := items;
                serve w cctx (Src_memo.entry ~retain:true items) nitems
              end;
              Budget.steps nitems;
              count nitems;
              List.iteri (fun r item -> write w idx item r) items
          done);
      cflush = (fun () -> emit down w.pruned w.out; down.cflush ()) }
  in
  { label = o.label; note = Some o.note; mk }

(* [by_id]: the probe key is a whole derived cell read through the
   tuple's row position (cell index, row slot, the cell expression's
   evaluator), and the build is reusable: probes go by value id. *)
let hash_join o ~gslots ~source ~build ~probe ~build_key ~value_cmp ~reusable ~by_id =
  let retain = memoized o || reusable in
  let mk cctx down =
    let count = ccounter cctx o.label in
    let scratch = cctx.cscratch in
    let w = writer cctx down o in
    let table = ref None in
    { cpush =
        (fun b ->
          Budget.steps b.Batch.n;
          if b.Batch.n > 0 then begin
            take_in w b;
            let t =
              match !table with
              | Some t -> t
              | None ->
                (* [source]/[build_key] only read outer slots, identical
                   in every row: load from the first selected row *)
                gather gslots scratch b b.Batch.sel.(0);
                let e = Src_memo.entry ~retain (source scratch) in
                let key_of item =
                  scratch.(o.var_slot) <- [ item ];
                  build scratch
                in
                (* a projected source is a scan: the table indexes the
                   memo's array, which the columns are indexed like *)
                let t = Src_memo.join_table ~reusable e build_key value_cmp ~key_of in
                serve w cctx e (Array.length t.Join_table.items);
                table := Some t;
                t
            in
            let emit_match k m =
              Budget.step ();
              count 1;
              write w b.Batch.sel.(k) t.Join_table.items.(m) m
            in
            match by_id with
            | None ->
              Join_table.probe_batch t ~value_cmp ~rows:b.Batch.n
                ~atoms_of:(fun k ->
                  let idx = b.Batch.sel.(k) in
                  gather gslots scratch b idx;
                  Item.atomize (probe scratch))
                ~emit:emit_match
            | Some (cid, rs, derive) -> (
              (* the probe key is the row's cell: an error cell raises
                 here, as reading the cell would *)
              let d = cctx.cdcols.(cid) and rowc = b.Batch.cols.(rs) in
              let row k =
                let r = Src_memo.row_of rowc.(b.Batch.sel.(k)) in
                if d.Src_memo.dc_err then ignore (Src_memo.read_cell derive d.dc_vals.(r));
                r
              in
              match Src_memo.join_memo d t with
              | None ->
                Join_table.probe_batch t ~value_cmp ~rows:b.Batch.n
                  ~atoms_of:(fun k -> Item.atomize d.Src_memo.dc_vals.(row k))
                  ~emit:emit_match
              | Some jm ->
                (* one probe per distinct value id, memoized with the
                   column; a probe that raises is not memoized and
                   raises again at its row *)
                let ids = (Src_memo.ids d).Src_memo.id_of in
                Telemetry.add Telemetry.c_hash_join_probes b.Batch.n;
                for k = 0 to b.Batch.n - 1 do
                  let r = row k in
                  let v = ids.(r) in
                  let ms =
                    match jm.Src_memo.jm_rows.(v) with
                    | ms when ms != Src_memo.unprobed -> ms
                    | _ ->
                      let ms = Join_table.matches t ~value_cmp (Item.atomize d.dc_vals.(r)) in
                      jm.jm_rows.(v) <- ms;
                      ms
                  in
                  List.iter (emit_match k) ms
                done)
          end);
      cflush = (fun () -> emit down w.pruned w.out; down.cflush ()) }
  in
  { label = o.label; note = Some o.note; mk }
