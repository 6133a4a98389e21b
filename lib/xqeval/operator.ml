module Item = Aqua_xml.Item
module X = Aqua_xquery.Ast
module Telemetry = Aqua_core.Telemetry
module Mcore = Aqua_multicore.Mcore
module Failpoint = Aqua_resilience.Failpoint
module Budget = Aqua_resilience.Budget

type rt = Item.sequence array

type comp = rt -> Item.sequence

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
  | N_hoisted of int * X.expr  (* a hoisted value's run slot, its expression *)
  | N_probe of string  (* a probe over a hoisted value, described *)

let kept verb inputs n =
  let inputs = Lazy.force inputs in
  Printf.sprintf "%s %d of %d input column(s) (pruned %d)" verb n inputs
    (inputs - n)

let by_value_id label verb = function
  | None -> []
  | Some d ->
    [ Printf.sprintf "columnar: %s %s by value id (%s)" label verb
        (Optimize.derived_label d) ]

(* A note's lines, as [Compile.shape] prints them. *)
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
  | N_hoisted (k, e) ->
    [ Printf.sprintf
        "columnar: hoisted value #%d, evaluated at most once per run on first \
         demand: %s"
        k (Optimize.summary e) ]
  | N_probe what -> [ "columnar: " ^ what ]

type csink = {
  cpush : Batch.columns -> unit;
  cflush : unit -> unit;
}

type cctx = {
  ccap : int;
  calloc : unit -> Batch.columns;
  cinstr : bool;
  cnslots : int;
  cscratch : rt;
  cdcols : Src_memo.dcol array;
}

type t = {
  label : string;
  note : note option;
  mk : cctx -> csink -> csink;
}

let cnote_batch n =
  Failpoint.hit "xqeval.batch";
  Telemetry.incr Telemetry.c_batch_batches;
  Telemetry.add Telemetry.c_batch_rows n;
  Telemetry.incr Telemetry.c_col_batches;
  Telemetry.add Telemetry.c_col_rows n

let emit down pruned (out : Batch.columns) =
  if out.Batch.n > 0 then begin
    cnote_batch out.Batch.n;
    Telemetry.add Telemetry.c_col_pruned_columns (pruned * out.Batch.n);
    down.cpush out;
    out.Batch.n <- 0
  end

let gather gslots (scratch : rt) (b : Batch.columns) idx =
  for t = 0 to Array.length gslots - 1 do
    let s = Array.unsafe_get gslots t in
    scratch.(s) <- b.Batch.cols.(s).(idx)
  done

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

(* Batch buffers are pooled per domain, not per compiled plan: a
   plan-cache hit reuses its compiled plan, but a miss (the [adhoc]
   shape), the cache-off oracle and a logical body compiled per call
   each compile anew, so a per-closure pool would often never see a
   second invocation, and at large batch sizes the O(capacity) buffer
   allocation per call is the dominant driver cost.  Acquire removes a
   buffer from the pool (re-entrant pipelines therefore just take
   distinct buffers) and re-shapes it to the current plan's slot count
   and capacity ([Batch.ensure_columns]); a normal completion returns
   them, a failed invocation drops them to the GC.  The pool is
   bounded, because pooled buffers retain the last invocation's values
   until overwritten.

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

let run ops ~slots ~cells ~consts ~entry ~ret (rt : rt) row =
  let cap = Batch.size () in
  let pool = cbatch_pool_for cap in
  let acquired = ref [] in
  let calloc () =
    let b =
      match !pool with
      | b :: rest ->
        pool := rest;
        Batch.ensure_columns b ~slots ~cap;
        b
      | [] -> Batch.make_columns ~slots ~cap
    in
    acquired := b :: !acquired;
    b
  in
  let scratch = Array.make slots [] in
  List.iter (fun (_, s) -> scratch.(s) <- rt.(s)) consts;
  let cctx =
    { ccap = cap; calloc; cinstr = Telemetry.enabled (); cnslots = slots; cscratch = scratch;
      cdcols = Array.make cells Src_memo.no_dcol }
  in
  (* counters register in pipeline order (the chain below is built
     downstream-first) *)
  if cctx.cinstr then List.iter (fun op -> ignore (Telemetry.clause_counter op.label)) ops;
  let sink =
    { cpush =
        (fun b ->
          Budget.steps b.Batch.n;
          for k = 0 to b.Batch.n - 1 do
            gather ret scratch b b.Batch.sel.(k);
            row scratch
          done);
      cflush = (fun () -> ()) }
  in
  let chain = List.fold_left (fun down op -> op.mk cctx down) sink (List.rev ops) in
  let feed = cctx.calloc () in
  Array.iter (fun s -> (Batch.column feed s).(0) <- rt.(s)) entry;
  feed.Batch.sel.(0) <- 0;
  feed.Batch.n <- 1;
  cnote_batch 1;
  chain.cpush feed;
  chain.cflush ();
  pool := take cbatch_pool_cap (List.rev_append !acquired !pool)
