module Item = Aqua_xml.Item
module X = Aqua_xquery.Ast
module Telemetry = Aqua_core.Telemetry
module Mcore = Aqua_multicore.Mcore
module Budget = Aqua_resilience.Budget
open Operator

type cinput =
  | In_cell of int * int * (Item.sequence -> Item.sequence)
  | In_expr of comp

type plan = {
  label : string;
  note : note;
  gslots : int array;
  keys : cinput array;
  key_slots : int list;
  entry_copy : int array;
}

(* The scan row of a derived input, raising its error cell's
   exception. *)
let cell_row (dcols : Src_memo.dcol array) id rs derive (scratch : rt) =
  let r = Src_memo.row_of scratch.(rs) in
  let d = dcols.(id) in
  if d.Src_memo.dc_err then ignore (Src_memo.read_cell derive d.dc_vals.(r));
  r

(* Per invocation: the group slot of the tuple in the scratch row —
   dense, in first-seen order — and, for a new group, its key values.
   Groups are told apart by the key string, byte for byte
   [Group_key.composite_into] over the key values: a derived key
   splices its memoized component, any other key is evaluated once, in
   key order, so the first error raised is the same.  A single derived
   key reads its memoized component only the first time a value id is
   seen: the slot of every later row with that id is an array read,
   and [kr_by_row] reads it straight from a scan row.  Such a key also
   bounds the slots: at most one per value id of each column read
   ([kr_bound]), which sizes the kernel accumulators once. *)
type key_reader = {
  kr_slot : rt -> int;
  kr_values : unit -> Item.sequence list;
  kr_by_row : (int -> int) option;
      (* a single derived key: the slot of a scan row, which must not
         hold an error cell *)
  kr_bound : unit -> int;  (* slots this column can reach; 0: no bound *)
}

let key_reader (dcols : Src_memo.dcol array) (keys : cinput array) =
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
  let kr_values () =
    List.init n (fun i ->
        match keys.(i) with
        | In_cell (id, _, _) -> dcols.(id).Src_memo.dc_vals.(rows.(i))
        | In_expr _ -> vals.(i))
  in
  match keys with
  | [| In_cell (id, _, _) |] ->
    (* the id -> slot array of the column last read: a column
       republished mid-invocation (its source grew) starts a new one,
       the string table still deciding the slots *)
    let cur = ref Src_memo.no_dcol and ids = ref [||] and slots = ref [||] in
    let bound = ref 0 in
    let by_row r =
      let d = dcols.(id) in
      if d != !cur then begin
        let x = Src_memo.ids d in
        cur := d;
        ids := x.Src_memo.id_of;
        slots := Array.make x.nids (-1);
        bound := Hashtbl.length table + x.nids
      end;
      rows.(0) <- r;
      let v = !ids.(r) in
      let s = !slots.(v) in
      if s >= 0 then s
      else begin
        let s = slot_of_string (Src_memo.keys d).(r) in
        !slots.(v) <- s;
        s
      end
    in
    { kr_slot =
        (fun scratch ->
          load scratch 0;
          by_row rows.(0));
      kr_values; kr_by_row = Some by_row; kr_bound = (fun () -> !bound) }
  | _ ->
    let kr_slot scratch =
      for i = 0 to n - 1 do
        load scratch i
      done;
      Buffer.clear buf;
      for i = 0 to n - 1 do
        match keys.(i) with
        | In_cell (id, _, _) -> Buffer.add_string buf (Src_memo.keys dcols.(id)).(rows.(i))
        | In_expr _ -> Group_key.add_component buf vals.(i)
      done;
      slot_of_string (Buffer.contents buf)
    in
    { kr_slot; kr_values; kr_by_row = None; kr_bound = (fun () -> 0) }

(* One invocation's groups, shared by both kinds: per-group key values
   and carried entry columns by dense slot, the key reader and the
   output batch.  The arrays grow by copying into arrays filled with
   constants: [Array.make] of more than 256 words with a freshly
   allocated initial value would empty the minor heap first. *)
type state = {
  mutable g_keys : Item.sequence list array;
  mutable g_saved : Item.sequence array array;
  mutable ng : int;
  kr : key_reader;
  out : Batch.columns;
  out_entry : Item.sequence array array;
  out_keys : Item.sequence array list;
  pruned : int;
}

let start cctx p =
  let out = cctx.calloc () in
  { g_keys = [||]; g_saved = [||]; ng = 0; kr = key_reader cctx.cdcols p.keys; out;
    out_entry = Array.map (Batch.column out) p.entry_copy;
    out_keys = List.map (Batch.column out) p.key_slots;
    pruned = max 0 (cctx.cnslots - Array.length p.entry_copy) }

let regrow a n fill =
  let b = Array.make n fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Register the next group: its key values and the carried entry cells
   of batch row [idx].  When full, grow to the key's bound if it has
   one, else by doubling, and let [grow] resize the caller's own
   per-group arrays to the same capacity. *)
let new_group st ~grow in_entry idx =
  let cap = Array.length st.g_keys in
  if st.ng = cap then begin
    let b = st.kr.kr_bound () in
    let n = if b > cap then b else max 8 (2 * cap) in
    st.g_keys <- regrow st.g_keys n [];
    st.g_saved <- regrow st.g_saved n [||];
    grow n
  end;
  let g = st.ng in
  st.g_keys.(g) <- st.kr.kr_values ();
  if Array.length in_entry > 0 then
    st.g_saved.(g) <- Array.map (fun (c : Item.sequence array) -> c.(idx)) in_entry;
  st.ng <- g + 1

let entry_cols p (b : Batch.columns) = Array.map (fun s -> b.Batch.cols.(s)) p.entry_copy

(* One output row per group: its carried entry cells, its keys, and
   what [write g j] puts in row [j] for group [g]. *)
let flush cctx down st count write =
  count st.ng;
  let out = st.out in
  for g = 0 to st.ng - 1 do
    let saved = st.g_saved.(g) in
    let j = out.Batch.n in
    for t = 0 to Array.length st.out_entry - 1 do
      st.out_entry.(t).(j) <- saved.(t)
    done;
    List.iter2 (fun c v -> c.(j) <- v) st.out_keys st.g_keys.(g);
    write g j;
    out.Batch.sel.(j) <- j;
    out.Batch.n <- j + 1;
    if out.Batch.n = cctx.ccap then emit down st.pruned out
  done;
  emit down st.pruned out;
  down.cflush ()

(* Materializing group: the partition column is built as the
   concatenation of each group's grouped cells. *)
let materialize p ~grouped ~partition =
  let mk cctx down =
    let count = ccounter cctx p.label in
    let scratch = cctx.cscratch in
    let st = start cctx p in
    (* each group's grouped cells, newest first *)
    let parts = ref [||] in
    let grow n = parts := regrow !parts n [] in
    let part_col = Batch.column st.out partition in
    { cpush =
        (fun b ->
          Budget.steps b.Batch.n;
          let grouped_col = b.Batch.cols.(grouped) in
          let in_entry = entry_cols p b in
          for k = 0 to b.Batch.n - 1 do
            let idx = b.Batch.sel.(k) in
            gather p.gslots scratch b idx;
            let g = st.kr.kr_slot scratch in
            if g = st.ng then new_group st ~grow in_entry idx;
            !parts.(g) <- grouped_col.(idx) :: !parts.(g)
          done);
      cflush =
        (fun () ->
          flush cctx down st count (fun g j ->
              part_col.(j) <- List.concat (List.rev !parts.(g)))) }
  in
  { label = p.label; note = Some p.note; mk }

(* Int vectors for the kernel group's slot and row vectors, pooled per
   domain like the batch buffers.  A vector is taken for one batch and
   given back after it, so an invocation nested in that batch (an input
   that runs a subquery) takes others; one is allocated, at the batch's
   size, only when none in the pool is long enough.  The pool is a
   fixed stack, so taking and giving allocate nothing. *)
type int_pool = { vecs : int array array; mutable nvecs : int }

let int_vecs_cap = 16

let int_vecs : int_pool Mcore.Dls.key =
  Mcore.Dls.new_key (fun () -> { vecs = Array.make int_vecs_cap [||]; nvecs = 0 })

let take_ints n =
  let p = Mcore.Dls.get int_vecs in
  let i = ref (p.nvecs - 1) in
  while !i >= 0 && Array.length p.vecs.(!i) < n do
    decr i
  done;
  if !i < 0 then Array.make n 0
  else begin
    let v = p.vecs.(!i) in
    p.nvecs <- p.nvecs - 1;
    p.vecs.(!i) <- p.vecs.(p.nvecs);
    p.vecs.(p.nvecs) <- [||];
    v
  end

let give_ints v =
  let p = Mcore.Dls.get int_vecs in
  if p.nvecs < int_vecs_cap then begin
    p.vecs.(p.nvecs) <- v;
    p.nvecs <- p.nvecs + 1
  end

(* Kernel group: the partition is never materialized.  Each spec folds
   into one accumulator indexed by group slot ([Kernels.acc]), a column
   at a time per batch: a slot vector from the key, one row vector per
   derived row slot, then one loop per spec.  Inputs and keys that may
   raise go through a per-row pass first, in the unfused order.
   [inputs] pairs each distinct kernel argument with its compiled
   input: kernels over one column share it, evaluated once per tuple. *)
let kernel p ~specs ~inputs ~spec_slots =
  let distinct = List.map fst inputs in
  let cargs = Array.of_list (List.map snd inputs) in
  (* a literal input (COUNT( * )'s) is the same every row: counted,
     never evaluated *)
  let arg_const =
    Array.of_list
      (List.map (function X.Literal a -> Some [ Item.Atomic a ] | _ -> None) distinct)
  in
  let arg_of =
    Array.of_list
      (List.map
         (fun (s : Optimize.kernel_spec) ->
           let rec index i = function
             | x :: rest -> if x = s.Optimize.k_arg then i else index (i + 1) rest
             | [] -> assert false
           in
           index 0 distinct)
         specs)
  in
  let nargs = Array.length cargs in
  (* some input is an expression evaluated per row *)
  let evaluated =
    Array.exists2
      (fun c k -> match c with In_expr _ -> Option.is_none k | In_cell _ -> false)
      cargs arg_const
  in
  (* the specs each argument feeds, for the per-row pass *)
  let specs_of =
    Array.init nargs (fun a ->
        Array.of_list
          (List.filter (fun t -> arg_of.(t) = a) (List.init (Array.length arg_of) Fun.id)))
  in
  (* row slots read straight from the batch: a single derived key's and
     each derived input's, one row vector each *)
  let key_cell =
    match p.keys with [| In_cell (id, rs, _) |] -> Some (id, rs) | _ -> None
  in
  let row_slots =
    Array.of_list
      (List.sort_uniq compare
         (Option.to_list (Option.map snd key_cell)
         @ List.filter_map
             (function In_cell (_, rs, _) -> Some rs | In_expr _ -> None)
             (Array.to_list cargs)))
  in
  let row_vec rs =
    let rec find v = if row_slots.(v) = rs then v else find (v + 1) in
    find 0
  in
  let arg_rows =
    Array.map (function In_cell (_, rs, _) -> row_vec rs | In_expr _ -> -1) cargs
  in
  let kinds =
    Array.of_list (List.map (fun (s : Optimize.kernel_spec) -> s.Optimize.k_kind) specs)
  in
  let nspecs = Array.length kinds in
  let mk cctx down =
    let count = ccounter cctx p.label in
    let scratch = cctx.cscratch in
    let st = start cctx p in
    let dcols = cctx.cdcols in
    let accs = Array.map (fun kind -> Kernels.acc kind 0) kinds in
    let out_specs = Array.map (Batch.column st.out) spec_slots in
    let rowv = Array.make (Array.length row_slots) [||] in
    let grow n = Array.iter (fun a -> Kernels.reserve a n) accs in
    (* the per-row pass: a key that may raise, then the inputs that may
       or are expressions, in argument order *)
    let row_pass ~key slots b in_entry =
      let sel = b.Batch.sel in
      for k = 0 to b.Batch.n - 1 do
        let idx = sel.(k) in
        gather p.gslots scratch b idx;
        if key then begin
          let g = st.kr.kr_slot scratch in
          if g = st.ng then new_group st ~grow in_entry idx;
          slots.(k) <- g
        end;
        for a = 0 to nargs - 1 do
          match cargs.(a) with
          | In_cell (id, _, derive) ->
            let d = dcols.(id) in
            if d.Src_memo.dc_err then
              ignore (Src_memo.read_cell derive d.dc_vals.(rowv.(arg_rows.(a)).(k)))
          | In_expr c ->
            if Option.is_none arg_const.(a) then begin
              let v = c scratch in
              Array.iter (fun t -> Kernels.add accs.(t) slots.(k) v) specs_of.(a)
            end
        done
      done
    in
    { cpush =
        (fun b ->
          let n = b.Batch.n in
          Budget.steps n;
          Telemetry.with_span "xqeval.columnar.kernel" @@ fun () ->
          Telemetry.add Telemetry.c_col_kernel_updates (nspecs * n);
          let in_entry = entry_cols p b in
          let sel = b.Batch.sel in
          let slots = take_ints n in
          for v = 0 to Array.length row_slots - 1 do
            let rv = take_ints n and col = b.Batch.cols.(row_slots.(v)) in
            for k = 0 to n - 1 do
              rv.(k) <- Src_memo.row_of col.(sel.(k))
            done;
            rowv.(v) <- rv
          done;
          let by_row =
            match (st.kr.kr_by_row, key_cell) with
            | Some f, Some (id, rs) when not dcols.(id).Src_memo.dc_err ->
              Some (f, rowv.(row_vec rs))
            | _ -> None
          in
          (match by_row with
          | Some (slot_of, rows) ->
            for k = 0 to n - 1 do
              let g = slot_of rows.(k) in
              if g = st.ng then new_group st ~grow in_entry sel.(k);
              slots.(k) <- g
            done
          | None -> ());
          let per_row =
            Option.is_none by_row || evaluated
            || Array.exists
                 (function
                   | In_cell (id, _, _) -> dcols.(id).Src_memo.dc_err | In_expr _ -> false)
                 cargs
          in
          if per_row then row_pass ~key:(Option.is_none by_row) slots b in_entry;
          for t = 0 to nspecs - 1 do
            let a = arg_of.(t) in
            match (cargs.(a), arg_const.(a)) with
            | In_cell (id, _, _), _ ->
              Kernels.add_cells accs.(t) (Src_memo.cells dcols.(id)) ~slots
                ~rows:rowv.(arg_rows.(a)) n
            | In_expr _, Some v -> Kernels.add_const accs.(t) ~slots n v
            | In_expr _, None -> ()
          done;
          give_ints slots;
          Array.iter give_ints rowv);
      cflush =
        (fun () ->
          Telemetry.with_span "xqeval.columnar.kernel" @@ fun () ->
          flush cctx down st count (fun g j ->
              for t = 0 to nspecs - 1 do
                out_specs.(t).(j) <- Kernels.result accs.(t) g
              done)) }
  in
  { label = p.label; note = Some p.note; mk }
