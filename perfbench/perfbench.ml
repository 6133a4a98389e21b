(* Layer-attributed benchmark of the SQL-to-XQuery driver and wire paths.

     perfbench --workload report|adhoc|wire_churn --seed N --seconds S
               --trace 0|1 [--commit ID] [--spans DIR]

   With --trace 0 it runs the workload as shipped (closed loop, one
   client) and reports the end-to-end metrics; with --trace 1 it
   replays the same operation sequence one layer call at a time and
   attributes time, allocation and counts to the layers.  Every result
   is checked against the reference SQL engine.  The last line of
   standard output is one JSON object: correct, attempted, failed and
   metrics.  perfbench/run.py builds this program and checks that line
   against BENCHMARK.json. *)

module Connection = Aqua_driver.Connection
module Result_set = Aqua_driver.Result_set
module Sql_error = Aqua_driver.Sql_error
module Translator = Aqua_translator.Translator
module Server = Aqua_dsp.Server
module Scan_cache = Aqua_dsp.Scan_cache
module Optimize = Aqua_xqeval.Optimize
module Telemetry = Aqua_core.Telemetry
module Fingerprint = Aqua_obs.Fingerprint
module Netserver = Aqua_net.Netserver
module Client = Aqua_net.Client
module Wire = Aqua_net.Wire
module Rowset = Aqua_relational.Rowset
module Table = Aqua_relational.Table
module Item = Aqua_xml.Item
module W = Workloads

let now = Monotonic_clock.now
let elapsed t0 = Int64.to_float (Int64.sub (now ()) t0)

(* the library's own spans (translator stages, data-service calls) use
   the same clock as the benchmark *)
let () = Telemetry.set_clock now

(* ------------------------------------------------------------------ *)
(* Arguments                                                          *)

type args = {
  workload : W.name;
  seed : int;
  seconds : int;
  trace : bool;
  commit : string;
  spans_dir : string option;
}

let parse_args () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and commit = ref "unknown" and spans = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "report|adhoc|wire_churn");
      ("--seed", Arg.Set_int seed, "workload seed");
      ("--seconds", Arg.Set_int seconds, "measured seconds");
      ("--trace", Arg.Set_int trace, "0: end-to-end, 1: per-layer");
      ("--commit", Arg.Set_string commit, "source revision for the stamp");
      ("--spans", Arg.Set_string spans, "directory for the traced spans") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  match W.name_of_string !workload with
  | None -> failwith ("unknown workload " ^ !workload)
  | Some w ->
    if !seconds < 1 then failwith "--seconds must be at least 1";
    {
      workload = w;
      seed = !seed;
      seconds = !seconds;
      trace = !trace <> 0;
      commit = !commit;
      spans_dir = (if !spans = "" then None else Some !spans);
    }

(* ------------------------------------------------------------------ *)
(* Small statistics                                                   *)

let sorted a =
  let a = Array.copy a in
  Array.sort compare a;
  a

(* nearest-rank quantile of a sorted array *)
let quantile s q =
  let n = Array.length s in
  if n = 0 then nan
  else s.(max 0 (min (n - 1) (int_of_float (Float.ceil (q *. float n)) - 1)))

let median a = quantile (sorted a) 0.5
let ratio a b = if b = 0. then 0. else a /. b

(* A growable float vector. *)
module Vec = struct
  type t = { mutable a : float array; mutable n : int }

  let create () = { a = Array.make 1024 0.; n = 0 }

  let push v x =
    if v.n = Array.length v.a then
      v.a <- Array.append v.a (Array.make v.n 0.);
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let to_array v = Array.sub v.a 0 v.n
  let sum v = Array.fold_left ( +. ) 0. (to_array v)
end

(* ------------------------------------------------------------------ *)
(* Output                                                             *)

type metric = { name : string; unit_ : string; value : float }

let metric name unit_ value = { name; unit_; value }

let json_metrics ms =
  String.concat ", "
    (List.map
       (fun m ->
         if not (Float.is_finite m.value) then
           failwith (Printf.sprintf "metric %s is %f" m.name m.value);
         Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.name
           m.value m.unit_)
       ms)

let print_result ~attempted ~failed ms =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": \
     {%s}}\n%!"
    (failed = 0 && attempted > 0)
    attempted failed (json_metrics ms)

let env_stamp args =
  let g = Gc.get () in
  Printf.printf
    "env {\"cores\": %d, \"ocaml\": %S, \"multicore\": %b, \"gc\": \
     {\"minor_heap_words\": %d, \"space_overhead\": %d, \
     \"major_heap_increment\": %d, \"allocation_policy\": %d}, \"seed\": \
     %d, \"commit\": %S, \"workload\": %S, \"seconds\": %d, \"trace\": %b}\n%!"
    (Aqua_multicore.Mcore.num_cores ())
    Sys.ocaml_version Aqua_multicore.Mcore.multicore g.Gc.minor_heap_size
    g.Gc.space_overhead g.Gc.major_heap_increment g.Gc.allocation_policy
    args.seed args.commit
    (W.to_string args.workload)
    args.seconds args.trace

(* ------------------------------------------------------------------ *)
(* Set-up                                                             *)

type wire = { server : Netserver.t; client : Client.t }

type system = {
  app : Aqua_dsp.Artifact.application;
  conn : Connection.t;
  wire : wire option;  (* wire_churn only *)
}

let wire_config =
  { Netserver.default_config with
    port = 0;
    pool_size = 1;
    workers = 1;
    queue_depth = 4 }

let connect_client port =
  match Client.connect ~host:"127.0.0.1" ~port () with
  | Ok c -> c
  | Error (code, msg) -> failwith (Printf.sprintf "connect: [%s] %s" code msg)

let teardown s =
  Option.iter
    (fun w ->
      Client.close w.client;
      Netserver.drain w.server)
    s.wire

let query_ops (wl : W.t) =
  Array.to_list wl.W.ops
  |> List.filter_map (function W.Query q -> Some q.sql | W.Insert _ -> None)

(* The warm-up fills the caches a steady client would have filled and
   grows the heap: four report rounds; the first 1024 adhoc statements
   (the LRU then holds statements the cycle reaches last); and wire
   queries from a differently seeded sequence, which inserts nothing,
   so the expected results stay valid. *)
let warm_sqls (wl : W.t) ~seed =
  match wl.W.name with
  | W.Report ->
    let q = query_ops wl in
    List.concat [ q; q; q; q ]
  | W.Adhoc -> List.filteri (fun i _ -> i < 1024) (query_ops wl)
  | W.Wire_churn ->
    query_ops (W.make W.Wire_churn ~seed:(seed + 1) ~seconds:1)

let setup_system (wl : W.t) ~seed ~over_wire =
  let app = W.application wl.W.name ~seed in
  let conn = Connection.connect app in
  let wire =
    if over_wire then
      let server = Netserver.start ~config:wire_config conn in
      Some { server; client = connect_client (Netserver.port server) }
    else None
  in
  let s = { app; conn; wire } in
  List.iter
    (fun sql ->
      match s.wire with
      | Some w -> ignore (Client.query w.client sql)
      | None -> ignore (Connection.execute_query conn sql))
    (warm_sqls wl ~seed);
  s

(* Set up [reps] times; report the median and keep the last system.
   A full major collection after each discarded system (outside the
   timing) keeps one repetition's garbage from inflating the next one's
   heap and the run's peak. *)
let timed_setups wl ~seed ~reps =
  let times = Array.make reps 0. in
  let rec go i =
    Gc.full_major ();
    let t0 = now () in
    let s = setup_system wl ~seed ~over_wire:(wl.W.name = W.Wire_churn) in
    times.(i) <- elapsed t0 /. 1e9;
    if i + 1 < reps then begin
      teardown s;
      go (i + 1)
    end
    else s
  in
  let s = go 0 in
  (s, median times)

(* ------------------------------------------------------------------ *)
(* End-to-end loop                                                    *)

type outcome = {
  latencies : Vec.t;  (* ns per statement, in sequence order *)
  mutable minor_words : float;
}

let fresh_outcome () = { latencies = Vec.create (); minor_words = 0. }

(* What every pass records for the check after the measurement. *)
type checks = {
  statements : Aqua_sql.Ast.statement option array;  (* by operation *)
  rowsets : W.Checker.t;  (* in-process result digests *)
  replies : W.Checker.t;  (* wire result digests *)
}

let record_rowset checks k r =
  W.Checker.record checks.rowsets k
    (Result.map (W.rowset_digest (Option.get checks.statements.(k))) r)

(* In-process: cycle through the operations until [seconds] have passed.
   Only the statement itself is timed. *)
let run_inprocess s (wl : W.t) checks ~seconds =
  let o = fresh_outcome () in
  let deadline = Int64.add (now ()) (Int64.of_float (seconds *. 1e9)) in
  let n = Array.length wl.W.ops in
  let i = ref 0 in
  while Int64.compare (now ()) deadline < 0 do
    let k = !i mod n in
    incr i;
    match wl.W.ops.(k) with
    | W.Query { sql; _ } ->
      let w0 = Gc.minor_words () in
      let t0 = now () in
      let r = try Ok (Connection.execute_query s.conn sql) with x -> Error x in
      Vec.push o.latencies (elapsed t0);
      o.minor_words <- o.minor_words +. (Gc.minor_words () -. w0);
      record_rowset checks k (Result.map Result_set.to_rowset r)
    | W.Insert _ -> failwith "in-process workloads have no inserts"
  done;
  o

(* Over the wire: run the fixed sequence once; inserts go straight into
   the server's ORDERS table between statements, when nothing is in
   flight.  Allocation is read from [Gc.quick_stat], which sums every
   domain — the server's included — less what this client domain
   allocated outside the statements (inserts, result digests). *)
let run_wire s (wl : W.t) checks =
  let w = Option.get s.wire in
  let o = fresh_outcome () in
  let orders = W.orders_table s.app in
  let outside = ref 0. in
  Gc.minor ();
  let g0 = (Gc.quick_stat ()).Gc.minor_words in
  let mark = ref (Gc.minor_words ()) in
  let harness () =
    let m = Gc.minor_words () in
    outside := !outside +. (m -. !mark);
    mark := m
  in
  Array.iteri
    (fun k op ->
      match op with
      | W.Insert row -> Table.insert orders row
      | W.Query { sql; _ } ->
        harness ();
        let t0 = now () in
        let r = Client.query w.client sql in
        Vec.push o.latencies (elapsed t0);
        mark := Gc.minor_words ();
        W.Checker.record checks.replies k
          (Result.map (fun reply -> W.wire_digest reply.Client.rows) r))
    wl.W.ops;
  harness ();
  Gc.minor ();
  o.minor_words <- (Gc.quick_stat ()).Gc.minor_words -. g0 -. !outside;
  o

let qps_of (o : outcome) =
  ratio (float o.latencies.Vec.n) (Vec.sum o.latencies /. 1e9)

let end_to_end args (wl : W.t) checks =
  let s, setup_s = timed_setups wl ~seed:args.seed ~reps:5 in
  Fun.protect ~finally:(fun () -> teardown s) @@ fun () ->
  let o =
    match wl.W.name with
    | W.Wire_churn -> run_wire s wl checks
    | W.Report | W.Adhoc ->
      run_inprocess s wl checks ~seconds:(float args.seconds)
  in
  let peak_mb =
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
  in
  let lat = sorted (Vec.to_array o.latencies) in
  Printf.printf "statements %d\n" (Array.length lat);
  [ metric "setup_s" "s" setup_s;
    metric "qps" "1/s" (qps_of o);
    metric "latency_p50_ms" "ms" (quantile lat 0.5 /. 1e6);
    metric "latency_p90_ms" "ms" (quantile lat 0.9 /. 1e6);
    metric "alloc_mwords_per_op" "Mwords"
      (ratio o.minor_words (float (Array.length lat)) /. 1e6);
    metric "peak_heap_mb" "MB" peak_mb ]

(* ------------------------------------------------------------------ *)
(* Traced pass                                                        *)

(* Running sums of the library's own span totals, fed by a Telemetry
   span observer while the traced pass runs in this domain. *)
let dsp_ns = ref 0L
let parse_ns = ref 0L
let semantic_ns = ref 0L
let generate_ns = ref 0L

let observe name d =
  let add r = r := Int64.add !r d in
  if String.starts_with ~prefix:"dsp.call." name then add dsp_ns
  else
    match name with
    | "translate.parse" -> add parse_ns
    | "translate.semantic" -> add semantic_ns
    | "translate.generate" -> add generate_ns
    | _ -> ()

(* Per-label sums of the traced figures; label "all" totals them. *)
module Sums = struct
  type t = (string, (string, float) Hashtbl.t) Hashtbl.t

  let create () : t = Hashtbl.create 8

  let table (t : t) label =
    match Hashtbl.find_opt t label with
    | Some h -> h
    | None ->
      let h = Hashtbl.create 32 in
      Hashtbl.add t label h;
      h

  let add1 t label key v =
    let h = table t label in
    let v0 = Option.value ~default:0. (Hashtbl.find_opt h key) in
    Hashtbl.replace h key (v0 +. v)

  let add t label key v =
    add1 t label key v;
    add1 t "all" key v

  let get t label key =
    Option.value ~default:0. (Hashtbl.find_opt (table t label) key)
end

let ns_since r0 r = Int64.to_float (Int64.sub !r r0)

(* Time [f ()] in ns, outside any span. *)
let clock f =
  let t0 = now () in
  let r = f () in
  (r, elapsed t0)

let concat_text items =
  let b = Buffer.create 1024 in
  List.iter
    (function
      | Item.Atomic a -> Buffer.add_string b (Aqua_xml.Atomic.to_lexical a)
      | Item.Node _ -> failwith "text transport expected a string result")
    items;
  Buffer.contents b

let run_counters =
  [ ("rows_emitted", Telemetry.c_rows_emitted);
    ("hash_join_probes", Telemetry.c_hash_join_probes);
    ("hash_join_reused", Telemetry.c_hash_join_reused);
    ("kernel_updates", Telemetry.c_col_kernel_updates);
    ("pruned_columns", Telemetry.c_col_pruned_columns);
    ("input_rows_batch", Telemetry.c_batch_rows);
    ("input_rows_col", Telemetry.c_col_rows) ]

(* One statement replayed a layer call at a time, in the order
   [Connection.execute_query] makes them, under an "op" root span.  The
   optimizer's share of [Server.prepare], the wrapper's share of the run
   and the statement's XQuery size are measured after the root closes,
   so they add nothing to its duration.  Returns the decoded rows. *)
let staged_exn sp sums ~op ~label s sql =
  let add = Sums.add sums label in
  let srv = Connection.server s.conn in
  let scans = Connection.scan_cache s.conn in
  let span name f = Spans.span_id sp ~op name f in
  let (tr, wrapped, rs, run_id, prep_id, run_dsp), root_id =
    span "op" @@ fun () ->
    ignore (span "obs.fingerprint" (fun () -> Fingerprint.fingerprint sql));
    let p0 = !parse_ns and s0 = !semantic_ns and g0 = !generate_ns in
    let hits0 = Telemetry.value Telemetry.c_cache_hits in
    let misses0 = Telemetry.value Telemetry.c_cache_misses in
    let tr, lru_id =
      span "driver.lru" (fun () -> Connection.translate s.conn sql)
    in
    add "lru_hits" (float (Telemetry.value Telemetry.c_cache_hits - hits0));
    add "lru_misses"
      (float (Telemetry.value Telemetry.c_cache_misses - misses0));
    (* a miss runs the three translation stages inside the LRU call *)
    List.iter
      (fun (name, r0, r) ->
        let ns = ns_since r0 r in
        add name ns;
        Spans.derived sp ~op ~parent:lru_id ("translator." ^ name) ns)
      [ ("parse", p0, parse_ns); ("semantic", s0, semantic_ns);
        ("generate", g0, generate_ns) ];
    let wrapped, _ =
      span "wrapper.wrap" (fun () -> Translator.for_text_transport tr)
    in
    (* Server.execute falls back to the interpreter when the compiler
       rejects a plan; so does the replay *)
    let prepared, prep_id =
      span "compile.prepare" (fun () ->
          try Some (Server.prepare srv wrapped)
          with Aqua_xqeval.Compile.Compile_error _ -> None)
    in
    let sc0 = Scan_cache.stats scans in
    let d0 = !dsp_ns in
    let before = List.map (fun (_, c) -> Telemetry.value c) run_counters in
    let w0 = Gc.minor_words () in
    let items, run_id =
      span "run.execute" (fun () ->
          match prepared with
          | Some p -> Server.execute_prepared p
          | None -> Server.execute srv wrapped)
    in
    add "run_minor_words" (Gc.minor_words () -. w0);
    List.iter2
      (fun (key, c) v0 -> add key (float (Telemetry.value c - v0)))
      run_counters before;
    let sc1 = Scan_cache.stats scans in
    add "scan_hits" (float (sc1.Scan_cache.hits - sc0.Scan_cache.hits));
    add "scan_misses" (float (sc1.Scan_cache.misses - sc0.Scan_cache.misses));
    let run_dsp = ns_since d0 dsp_ns in
    let text, _ = span "wrapper.concat" (fun () -> concat_text items) in
    let rs, _ =
      span "driver.decode" (fun () ->
          Result_set.of_encoded_text tr.Translator.columns text)
    in
    add "text_bytes" (float (String.length text));
    (tr, wrapped, rs, run_id, prep_id, run_dsp)
  in
  add "root_ns" (Spans.dur sp root_id);
  let clamp hi x = Float.max 0. (Float.min hi x) in
  (* the optimizer runs inside Server.prepare: time the same call on its
     own and carve it out of compile *)
  let (_, report), opt_ns = clock (fun () -> Optimize.query wrapped) in
  Spans.derived sp ~op ~parent:prep_id "optimize.query"
    (clamp (Spans.dur sp prep_id) opt_ns);
  add "rewrites"
    (float
       (report.Optimize.pushed_predicates + report.Optimize.hash_joins
      + report.Optimize.shared_scans));
  let run_ns = Spans.dur sp run_id in
  let dsp = clamp run_ns run_dsp in
  Spans.derived sp ~op ~parent:run_id "dsp.scan" dsp;
  (* the wrapper's evaluation cost: the wrapped run minus a run of the
     bare RECORDSET query, data-service time taken out of both *)
  (match Server.prepare srv tr.Translator.xquery with
  | bare ->
    let d1 = !dsp_ns in
    let _, bare_ns = clock (fun () -> Server.execute_prepared bare) in
    let bare_run = bare_ns -. ns_since d1 dsp_ns in
    Spans.derived sp ~op ~parent:run_id "wrapper.eval"
      (clamp (run_ns -. dsp) (run_ns -. dsp -. bare_run))
  | exception Aqua_xqeval.Compile.Compile_error _ -> ());
  add "xquery_bytes" (float (String.length (Translator.to_string tr)));
  let rows = Result_set.to_rowset rs in
  add "rows" (float (List.length rows.Rowset.rows));
  (rows, Result_set.columns rs, root_id)

(* A failure the driver would have rerun unoptimized counts as a
   fallback; any failure counts against the result check. *)
let staged sp sums ~op ~label s sql =
  match staged_exn sp sums ~op ~label s sql with
  | r -> Ok r
  | exception e ->
    if Sql_error.degradable e then Sums.add sums label "fallbacks" 1.;
    Error e

type traced = {
  sp : Spans.t;
  sums : Sums.t;
  op_labels : (int, string) Hashtbl.t;  (* span op id -> statement kind *)
  labels : string list;  (* statement kinds, in first-seen order *)
  untraced_qps : float;
  traced_qps : float;
  gc_ops : int;
  gc0 : Gc.stat;  (* around the untraced pass *)
  gc1 : Gc.stat;
  materialize_us_per_row : float;
  wire : bool;
}

let labels_of (wl : W.t) =
  Array.fold_left
    (fun acc -> function
      | W.Query { label; _ } when not (List.mem label acc) -> label :: acc
      | _ -> acc)
    [] wl.W.ops
  |> List.rev

let start_tracing () =
  Telemetry.reset ();
  Telemetry.set_enabled true

let stop_tracing () =
  Telemetry.set_span_observer None;
  Telemetry.set_enabled false

(* Cold materialization of every physical table after a scan-cache
   flush, through the public data-service entry point; median of five. *)
let materialize_us_per_row s =
  let srv = Connection.server s.conn in
  let fns = W.physical_functions s.app in
  median
    (Array.init 5 (fun _ ->
         Scan_cache.flush (Connection.scan_cache s.conn);
         let rows, ns =
           clock (fun () ->
               List.fold_left
                 (fun n (path, name, fn) ->
                   let rows = Server.call_function srv ~path ~name ~fn [] in
                   n + List.length rows)
                 0 fns)
         in
         ns /. float (max rows 1) /. 1e3))

(* report / adhoc: half the time untraced, half replayed stage by stage
   on the same connection. *)
let traced_inprocess args (wl : W.t) checks =
  let s = setup_system wl ~seed:args.seed ~over_wire:false in
  let half = float args.seconds /. 2. in
  let gc0 = Gc.quick_stat () in
  let a = run_inprocess s wl checks ~seconds:half in
  let gc1 = Gc.quick_stat () in
  let sp = Spans.create () and sums = Sums.create () in
  let op_labels = Hashtbl.create 1024 in
  start_tracing ();
  Telemetry.set_span_observer (Some observe);
  let deadline = Int64.add (now ()) (Int64.of_float (half *. 1e9)) in
  let n = Array.length wl.W.ops in
  let op = ref 0 in
  while Int64.compare (now ()) deadline < 0 do
    let k = !op mod n in
    (match wl.W.ops.(k) with
    | W.Query { sql; label } ->
      Hashtbl.replace op_labels !op label;
      Sums.add sums label "ops" 1.;
      let r = staged sp sums ~op:!op ~label s sql in
      record_rowset checks k (Result.map (fun (rows, _, _) -> rows) r)
    | W.Insert _ -> failwith "in-process workloads have no inserts");
    incr op
  done;
  stop_tracing ();
  {
    sp;
    sums;
    op_labels;
    labels = labels_of wl;
    untraced_qps = qps_of a;
    traced_qps =
      ratio (Sums.get sums "all" "ops") (Sums.get sums "all" "root_ns" /. 1e9);
    gc_ops = a.latencies.Vec.n;
    gc0;
    gc1;
    materialize_us_per_row = materialize_us_per_row s;
    wire = false;
  }

(* wire_churn: three passes over the same fixed sequence, each on a
   fresh copy of the data so each sees the same cache states — over the
   wire untraced, over the wire with Telemetry on, and in process stage
   by stage.  The wire's own share of an operation is its traced wire
   latency minus its in-process replay. *)
let traced_wire args (wl : W.t) checks =
  let over_wire f =
    let s = setup_system wl ~seed:args.seed ~over_wire:true in
    Fun.protect ~finally:(fun () -> teardown s) (fun () -> f s)
  in
  let gc0, a, gc1 =
    over_wire (fun s ->
        let gc0 = Gc.quick_stat () in
        let a = run_wire s wl checks in
        (gc0, a, Gc.quick_stat ()))
  in
  start_tracing ();
  let b = over_wire (fun s -> run_wire s wl checks) in
  let s = setup_system wl ~seed:args.seed ~over_wire:false in
  let orders = W.orders_table s.app in
  let sp = Spans.create () and sums = Sums.create () in
  let op_labels = Hashtbl.create 1024 in
  Telemetry.set_span_observer (Some observe);
  let j = ref 0 in
  Array.iteri
    (fun k op ->
      match op with
      | W.Insert row -> Table.insert orders row
      | W.Query { sql; label } ->
        let add = Sums.add sums label in
        let wire_ns = b.latencies.Vec.a.(!j) in
        incr j;
        Hashtbl.replace op_labels k label;
        add "ops" 1.;
        add "wire_ns" wire_ns;
        let r = staged sp sums ~op:k ~label s sql in
        W.Checker.record checks.replies k
          (Result.map (fun (rows, _, _) -> W.wire_digest (W.text_rows rows)) r);
        match r with
        | Error _ -> ()
        | Ok (rows, cols, root_id) ->
            add "net_ns" (wire_ns -. Spans.dur sp root_id);
            let buf = Buffer.create 4096 in
            let (), enc_ns =
              clock (fun () ->
                  Wire.row_description buf cols;
                  List.iter (Wire.data_row buf) rows.Rowset.rows)
            in
            add "encode_ns" enc_ns;
            add "encode_rows" (float (List.length rows.Rowset.rows)))
    wl.W.ops;
  stop_tracing ();
  {
    sp;
    sums;
    op_labels;
    labels = labels_of wl;
    untraced_qps = qps_of a;
    traced_qps = qps_of b;
    gc_ops = a.latencies.Vec.n;
    gc0;
    gc1;
    materialize_us_per_row = materialize_us_per_row s;
    wire = true;
  }

(* The per-layer metrics of one statement kind (or "all").  Times are
   means per statement; translator stage times are means per LRU miss. *)
let layer_metrics t label =
  let g = Sums.get t.sums label in
  let self =
    let tbl =
      Spans.totals t.sp ~keep:(fun op ->
          label = "all" || Hashtbl.find_opt t.op_labels op = Some label)
    in
    fun name -> Option.value ~default:0. (Hashtbl.find_opt tbl name)
  in
  let ops = g "ops" in
  let per_op x = ratio x ops in
  let us x = per_op x /. 1e3 in
  let hits = g "lru_hits" and misses = g "lru_misses" in
  let per_miss x = ratio x misses /. 1e3 in
  let scan_hits = g "scan_hits" and scan_misses = g "scan_misses" in
  let e2e = if t.wire then g "wire_ns" else g "root_ns" in
  [ metric "net.self_us" "us" (us (g "net_ns"));
    metric "net.encode_us_per_row" "us"
      (ratio (g "encode_ns") (g "encode_rows") /. 1e3);
    metric "obs.fingerprint_us" "us" (us (self "obs.fingerprint"));
    metric "driver.translation_hit_ratio" "ratio" (ratio hits (hits +. misses));
    metric "driver.lru_us" "us" (us (self "driver.lru"));
    metric "driver.decode_us" "us" (us (self "driver.decode"));
    metric "driver.fallbacks" "count" (g "fallbacks");
    metric "translator.parse_us" "us" (per_miss (g "parse"));
    metric "translator.semantic_us" "us" (per_miss (g "semantic"));
    metric "translator.generate_us" "us" (per_miss (g "generate"));
    metric "translator.xquery_bytes" "bytes" (per_op (g "xquery_bytes"));
    metric "wrapper.wrap_us" "us"
      (us (self "wrapper.wrap" +. self "wrapper.concat"));
    metric "wrapper.eval_us" "us" (us (self "wrapper.eval"));
    metric "wrapper.text_bytes_per_row" "bytes"
      (ratio (g "text_bytes") (g "rows"));
    metric "optimize.us" "us" (us (self "optimize.query"));
    metric "optimize.rewrites" "count" (per_op (g "rewrites"));
    metric "compile.us" "us" (us (self "compile.prepare"));
    metric "run.us" "us" (us (self "run.execute"));
    metric "run.ns_per_input_row" "ns"
      (ratio (self "run.execute") (g "input_rows_batch" +. g "input_rows_col"));
    metric "run.minor_mwords" "Mwords" (per_op (g "run_minor_words") /. 1e6);
    metric "run.rows_emitted" "count" (per_op (g "rows_emitted"));
    metric "run.hash_join_probes" "count" (per_op (g "hash_join_probes"));
    metric "run.hash_join_reused" "count" (per_op (g "hash_join_reused"));
    metric "run.kernel_updates" "count" (per_op (g "kernel_updates"));
    metric "run.pruned_columns" "count" (per_op (g "pruned_columns"));
    metric "dsp.scan_us" "us" (us (self "dsp.scan"));
    metric "dsp.scan_cache_hit_ratio" "ratio"
      (ratio scan_hits (scan_hits +. scan_misses));
    metric "trace.unattributed_share" "ratio" (ratio (self "op") e2e) ]

(* Figures of the whole run rather than of one statement kind. *)
let run_metrics t =
  let per_gc_op f = ratio (float (f t.gc1 - f t.gc0)) (float t.gc_ops) in
  [ metric "dsp.materialize_us_per_row" "us" t.materialize_us_per_row;
    metric "gc.minor_collections_per_op" "count"
      (per_gc_op (fun g -> g.Gc.minor_collections));
    metric "gc.major_collections_per_op" "count"
      (per_gc_op (fun g -> g.Gc.major_collections));
    metric "trace.overhead_ratio" "ratio" (ratio t.traced_qps t.untraced_qps) ]

let per_layer args (wl : W.t) checks =
  let t =
    match wl.W.name with
    | W.Wire_churn -> traced_wire args wl checks
    | W.Report | W.Adhoc -> traced_inprocess args wl checks
  in
  Option.iter
    (fun dir ->
      Spans.write t.sp
        (Filename.concat dir
           (Printf.sprintf "%s-seed%d.ndjson" (W.to_string wl.W.name)
              args.seed)))
    args.spans_dir;
  (* one row per statement kind, with the same metric names *)
  if List.length t.labels > 1 then
    List.iter
      (fun label ->
        Printf.printf "stmt {\"statement\": %S, \"metrics\": {%s}}\n" label
          (json_metrics (layer_metrics t label)))
      t.labels;
  layer_metrics t "all" @ run_metrics t

(* ------------------------------------------------------------------ *)

let () =
  let args = parse_args () in
  env_stamp args;
  let wl = W.make args.workload ~seed:args.seed ~seconds:args.seconds in
  (* self-check: the sequence is a function of the seed alone *)
  let digest = W.digest wl in
  if W.digest (W.make args.workload ~seed:args.seed ~seconds:args.seconds)
     <> digest
  then failwith "operation sequence is not deterministic for its seed";
  Printf.printf "ops %d (queries %d), digest %s\n%!" (Array.length wl.W.ops)
    (W.queries wl) digest;
  let checks =
    { statements = W.statements wl;
      rowsets = W.Checker.create ();
      replies = W.Checker.create () }
  in
  let ms =
    if args.trace then per_layer args wl checks
    else end_to_end args wl checks
  in
  (* expected results come last: neither timed nor part of setup_s *)
  let expected = W.expected wl ~seed:args.seed in
  let a1, f1 =
    W.Checker.verify checks.rowsets (fun k -> Option.map fst expected.(k))
  in
  let a2, f2 =
    W.Checker.verify checks.replies (fun k -> Option.map snd expected.(k))
  in
  Printf.printf "checked %d statements against the reference engine: %d \
                 failed\n"
    (a1 + a2) (f1 + f2);
  print_result ~attempted:(a1 + a2) ~failed:(f1 + f2) ms
