module Value = Aqua_relational.Value
module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item
module Metadata = Aqua_dsp.Metadata
module Server = Aqua_dsp.Server
module Artifact = Aqua_dsp.Artifact
module Translator = Aqua_translator.Translator
module Semantic = Aqua_translator.Semantic
module Budget = Aqua_resilience.Budget
module Mcore = Aqua_multicore.Mcore
module Failpoint = Aqua_resilience.Failpoint
module A = Aqua_sql.Ast

type transport = Xml | Text

(* Bounded LRU over translated queries, keyed by SQL text.  The
   JDBC-reporting workload of the paper re-issues identical ad-hoc SQL
   constantly; caching skips the parse/semantic/generate stages.  LRU
   order is kept in a doubly-linked-list-free way: a use counter per
   entry, evicting the least recently used entry when full.  The
   counter is renumbered (compacted to 0..n-1, preserving order) when
   it reaches [stamp_limit], so a long-lived connection can never
   overflow it. *)
module Lru = struct
  type 'a entry = { value : 'a; mutable stamp : int }

  type 'a t = {
    table : (string, 'a entry) Hashtbl.t;
    capacity : int;
    stamp_limit : int;
    lock : Mcore.Mutex.t;  (* guards table, clock and every stamp *)
    mutable clock : int;
    mutable enabled : bool;
  }

  let create ?(stamp_limit = max_int - 1) ~enabled capacity =
    {
      table = Hashtbl.create 64;
      capacity;
      stamp_limit;
      lock = Mcore.Mutex.create ();
      clock = 0;
      enabled;
    }

  (* Reassign stamps 0..n-1 in current LRU order; recency is all the
     eviction scan looks at, so the compaction is invisible. *)
  let renumber t =
    let entries = Hashtbl.fold (fun _ e acc -> e :: acc) t.table [] in
    let entries =
      List.sort (fun a b -> compare a.stamp b.stamp) entries
    in
    List.iteri (fun i e -> e.stamp <- i) entries;
    t.clock <- List.length entries

  let tick t =
    if t.clock >= t.stamp_limit then renumber t;
    t.clock <- t.clock + 1;
    t.clock

  let find t key =
    if not t.enabled then None
    else
      Mcore.Mutex.protect t.lock @@ fun () ->
      match Hashtbl.find_opt t.table key with
      | Some e ->
        e.stamp <- tick t;
        Some e.value
      | None -> None

  let evict_lru t =
    let victim = ref None in
    Hashtbl.iter
      (fun k e ->
        match !victim with
        | Some (_, stamp) when stamp <= e.stamp -> ()
        | _ -> victim := Some (k, e.stamp))
      t.table;
    match !victim with
    | Some (k, _) -> Hashtbl.remove t.table k
    | None -> ()

  let add t key value =
    if t.enabled then
      Mcore.Mutex.protect t.lock @@ fun () ->
      if not (Hashtbl.mem t.table key) then begin
        if Hashtbl.length t.table >= t.capacity then evict_lru t;
        Hashtbl.add t.table key { value; stamp = tick t }
      end

  let length t = Mcore.Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
  let clock t = Mcore.Mutex.protect t.lock (fun () -> t.clock)
  let clear t = Mcore.Mutex.protect t.lock (fun () -> Hashtbl.reset t.table)
end

let translation_cache_capacity = 128

type t = {
  app : Artifact.application;
  srv : Server.t;
  cache : Metadata.Cache.t;
  translations : Translator.t Lru.t;
  env : Semantic.env;
  optimize : bool;
  rev_lock : Mcore.Mutex.t;
      (* serializes [revalidate]/[invalidate]: exactly one domain
         performs the three-cache flush for a given revision bump *)
  mutable limits : Budget.limits;
  mutable transport : transport;
  mutable seen_revision : int;
}

let connect ?(transport = Text) ?(metadata_cache = true)
    ?(translation_cache = true) ?(optimize = true) ?(scan_cache = true)
    ?(limits = Budget.no_limits) app =
  let cache = Metadata.Cache.create ~enabled:metadata_cache app in
  {
    app;
    srv = Server.create ~optimize ~scan_cache app;
    cache;
    translations = Lru.create ~enabled:translation_cache translation_cache_capacity;
    env = Semantic.env_of_cache cache;
    optimize;
    rev_lock = Mcore.Mutex.create ();
    limits;
    transport;
    seen_revision = Artifact.revision app;
  }

let transport t = t.transport
let set_transport t tr = t.transport <- tr
let server t = t.srv
let application t = t.app
let translator_env t = t.env
let metadata_cache t = t.cache
let limits t = t.limits
let set_limits t l = t.limits <- l
let scan_cache t = Server.scan_cache t.srv

(* A metadata change (a service added after connect) silently
   invalidates every cached translation and catalog answer; compare
   the application's revision on each use and flush when stale. *)
let revalidate t =
  Mcore.Mutex.protect t.rev_lock @@ fun () ->
  let rev = Artifact.revision t.app in
  if rev <> t.seen_revision then begin
    Lru.clear t.translations;
    Metadata.Cache.clear t.cache;
    (* the scan cache also self-checks the revision on every touch;
       flushing here keeps the two invalidation paths in lockstep *)
    Aqua_dsp.Scan_cache.flush (scan_cache t);
    t.seen_revision <- rev
  end

let invalidate t =
  Mcore.Mutex.protect t.rev_lock @@ fun () ->
  Lru.clear t.translations;
  Metadata.Cache.clear t.cache;
  Aqua_dsp.Scan_cache.flush (scan_cache t);
  t.seen_revision <- Artifact.revision t.app

let translate_cached t sql =
  let module T = Aqua_core.Telemetry in
  revalidate t;
  Failpoint.hit "driver.translate";
  match Lru.find t.translations sql with
  | Some tr ->
    T.incr T.c_cache_hits;
    (tr, true)
  | None ->
    T.incr T.c_cache_misses;
    let tr = Translator.translate t.env sql in
    Lru.add t.translations sql tr;
    (tr, false)

let translate t sql = fst (translate_cached t sql)

let translation_cache_size t = Lru.length t.translations
let translation_cache_clock t = Lru.clock t.translations
let clear_translation_cache t = Lru.clear t.translations

(* --- per-statement stage clocks and observation -------------------- *)

(* Accumulators for the three driver-visible stages of one statement;
   [timed] adds each stage's cost to them. *)
type stages = {
  mutable translate_ns : int64;
  mutable execute_ns : int64;
  mutable decode_ns : int64;
  mutable cache_hit : bool;
}

let fresh_stages () =
  { translate_ns = 0L; execute_ns = 0L; decode_ns = 0L; cache_hit = false }

(* Time [f], crediting the (0-clamped) elapsed time via [credit] even
   when [f] raises — a failing stage's cost is still its cost. *)
let timed credit f =
  let module T = Aqua_core.Telemetry in
  let t0 = T.now_ns () in
  let finish () =
    let d = Int64.sub (T.now_ns ()) t0 in
    credit (if Int64.compare d 0L < 0 then 0L else d)
  in
  match f () with
  | v ->
    finish ();
    v
  | exception e ->
    finish ();
    raise e

(* One statement through the connection's transport: [execute tr]
   runs the server-side plan for transport [tr] (the RECORDSET query
   for XML, the section-4 wrapper for text), which the client then
   decodes into [columns]. *)
let run_on conn ~stages ~columns execute =
  let exec d = stages.execute_ns <- Int64.add stages.execute_ns d in
  let dec d = stages.decode_ns <- Int64.add stages.decode_ns d in
  match conn.transport with
  | Xml ->
    (* server executes, serializes; the client parses the text *)
    let text =
      timed exec (fun () ->
          Aqua_xml.Serialize.sequence_to_string (execute Xml))
    in
    timed dec (fun () -> Result_set.of_xml_text columns text)
  | Text ->
    let text =
      timed exec (fun () -> Server.text_of_sequence (execute Text))
    in
    timed dec (fun () -> Result_set.of_encoded_text columns text)

module Stats = Aqua_obs.Stats
module Recorder = Aqua_obs.Recorder
module Fingerprint = Aqua_obs.Fingerprint

(* Run one statement under observation: feed the per-fingerprint stats
   registry and the flight recorder, tagging the event with the
   resilience outcome (deltas of the telemetry counters across the
   call — meaningful when telemetry is enabled, zero otherwise).  When
   a SQLSTATE error escapes, the recorder ring is dumped to its sink
   so the operator sees what the last statements actually did. *)
let observe_run ~digest ~shape ~stages ~plan run =
  let module T = Aqua_core.Telemetry in
  let start = T.now_ns () in
  let b_retries = T.value T.c_retry_attempts in
  let b_fallbacks = T.value T.c_fallbacks_unoptimized in
  let b_faults = T.value T.c_faults_injected in
  let b_rejections = T.value T.c_breaker_rejections in
  let finish ~rows outcome error =
    let dur = Int64.sub (T.now_ns ()) start in
    let dur = if Int64.compare dur 0L < 0 then 0L else dur in
    let resilience =
      {
        Recorder.retries = T.value T.c_retry_attempts - b_retries;
        fallbacks = T.value T.c_fallbacks_unoptimized - b_fallbacks;
        faults = T.value T.c_faults_injected - b_faults;
        breaker_rejections = T.value T.c_breaker_rejections - b_rejections;
      }
    in
    let plan =
      if resilience.Recorder.fallbacks > 0 then "fallback-unoptimized"
      else plan
    in
    Stats.observe ~digest ~shape ~translate_ns:stages.translate_ns
      ~execute_ns:stages.execute_ns ~decode_ns:stages.decode_ns ~rows
      ~cache_hit:stages.cache_hit ?error ~total_ns:dur ();
    Recorder.record ~fingerprint:digest ~shape ~start_ns:start ~dur_ns:dur
      ~rows ~cache_hit:stages.cache_hit ~plan ~resilience outcome
  in
  match run () with
  | rs ->
    finish ~rows:(Result_set.row_count rs) Recorder.Done None;
    rs
  | exception (Aqua_resilience.Sqlstate.Error e as ex) ->
    finish ~rows:0 (Recorder.Failed e.Aqua_resilience.Sqlstate.sqlstate)
      (Some e.Aqua_resilience.Sqlstate.sqlstate);
    ignore (Recorder.dump_to_sink ~reason:e.Aqua_resilience.Sqlstate.sqlstate ());
    raise ex

let observing () = Stats.enabled () || Recorder.enabled ()

let execute_query ?limits t sql =
  let stages = fresh_stages () in
  let limits = match limits with Some l -> l | None -> t.limits in
  let run () =
    Sql_error.wrap @@ fun () ->
    Budget.with_budget limits @@ fun () ->
    let tr =
      timed
        (fun d -> stages.translate_ns <- Int64.add stages.translate_ns d)
        (fun () ->
          let tr, hit = translate_cached t sql in
          stages.cache_hit <- hit;
          tr)
    in
    run_on t ~stages ~columns:tr.Translator.columns (function
      | Xml -> Server.execute t.srv tr.Translator.xquery
      | Text -> Server.execute t.srv (Translator.for_text_transport tr))
  in
  if not (observing ()) then run ()
  else
    let digest, shape = Fingerprint.fingerprint sql in
    let plan = if t.optimize then "optimized" else "unoptimized" in
    observe_run ~digest ~shape ~stages ~plan run

(* Concurrent entry point: execute a batch of statements across
   [domains] domains sharing THIS connection (its translation, metadata
   and scan caches).  Statements are dealt round-robin; results come
   back in input order, each independently an [Ok result_set] or the
   [Error exn] that statement raised (one failing statement must not
   mask its siblings' results).  On a single-core build the shim runs
   the domains sequentially, so the function is portable — merely not
   parallel — on 4.14. *)
let execute_concurrent ?domains t sqls =
  let stmts = Array.of_list sqls in
  let n = Array.length stmts in
  let d =
    match domains with
    | Some d -> max 1 (min d (max 1 n))
    | None -> max 1 (min (Mcore.num_cores ()) n)
  in
  let out = Array.make n (Error Not_found) in
  let worker w () =
    let rec go i =
      if i < n then begin
        (out.(i) <-
           (match execute_query t stmts.(i) with
           | rs -> Ok rs
           | exception e -> Error e));
        go (i + d)
      end
    in
    go w
  in
  (* each worker writes a disjoint stride of [out], so the only shared
     state is the connection itself *)
  let outcomes = Mcore.Domains.parallel (List.init d (fun w -> worker w)) in
  List.iter (function Ok () -> () | Error e -> raise e) outcomes;
  Array.to_list out

(* ------------------------------------------------------------------ *)

module Prepared = struct
  (* Preparation compiles both transport variants of the translated
     query once (the server's compiled-query path); execution just
     re-binds parameters. *)
  type stmt = {
    conn : t;
    translated : Translator.t;
    compiled_xml : Server.prepared;
    compiled_text : Server.prepared;
    params : Item.sequence option array;
    fp_digest : string;
    fp_shape : string;
  }

  let count_params (s : A.statement) =
    (* parameters are numbered consecutively by the parser *)
    let rec expr_max acc (e : A.expr) =
      A.fold_expr
        (fun acc e ->
          let acc =
            match e with A.Param n -> max acc n | _ -> acc
          in
          List.fold_left query_max acc (A.subqueries_of_expr e))
        acc e
    and spec_max acc (spec : A.query_spec) =
      let acc =
        List.fold_left
          (fun acc item ->
            match item with
            | A.Expr_item (e, _) -> expr_max acc e
            | A.Star | A.Table_star _ -> acc)
          acc spec.A.select
      in
      let acc = List.fold_left table_ref_max acc spec.A.from in
      let acc =
        match spec.A.where with Some w -> expr_max acc w | None -> acc
      in
      let acc = List.fold_left expr_max acc spec.A.group_by in
      match spec.A.having with Some h -> expr_max acc h | None -> acc
    and table_ref_max acc (tr : A.table_ref) =
      match tr with
      | A.Primary (A.Table_ref_name _) -> acc
      | A.Primary (A.Derived { query; _ }) -> query_max acc query
      | A.Join { left; right; cond; _ } ->
        let acc = table_ref_max acc left in
        let acc = table_ref_max acc right in
        (match cond with Some c -> expr_max acc c | None -> acc)
    and query_max acc (q : A.query) =
      match q with
      | A.Spec spec -> spec_max acc spec
      | A.Set { left; right; _ } -> query_max (query_max acc left) right
    in
    let acc = query_max 0 s.A.body in
    List.fold_left
      (fun acc (o : A.order_item) ->
        match o.A.key with
        | A.Ord_expr e -> expr_max acc e
        | A.Ord_position _ -> acc)
      acc s.A.order_by

  let prepare conn sql =
    let translated = translate conn sql in
    let n = count_params translated.Translator.statement in
    let vars = List.init n (fun i -> Printf.sprintf "param%d" (i + 1)) in
    let compiled_xml =
      Server.prepare ~vars conn.srv translated.Translator.xquery
    in
    let compiled_text =
      Server.prepare ~vars conn.srv (Translator.for_text_transport translated)
    in
    let fp_digest, fp_shape = Fingerprint.fingerprint sql in
    {
      conn;
      translated;
      compiled_xml;
      compiled_text;
      params = Array.make n None;
      fp_digest;
      fp_shape;
    }

  let parameter_count stmt = Array.length stmt.params

  let item_of_value (v : Value.t) : Item.sequence =
    match v with
    | Value.Null -> []
    | Value.Int i -> [ Item.Atomic (Atomic.Integer i) ]
    | Value.Num f -> [ Item.Atomic (Atomic.Decimal f) ]
    | Value.Str s -> [ Item.Atomic (Atomic.String s) ]
    | Value.Bool b -> [ Item.Atomic (Atomic.Boolean b) ]
    | Value.Date d -> [ Item.Atomic (Atomic.Date d) ]
    | Value.Time tm -> [ Item.Atomic (Atomic.Time tm) ]
    | Value.Timestamp ts -> [ Item.Atomic (Atomic.Timestamp ts) ]

  let set_value stmt i v =
    if i < 1 || i > Array.length stmt.params then
      invalid_arg (Printf.sprintf "parameter index %d out of range" i);
    stmt.params.(i - 1) <- Some (item_of_value v)

  let set_int stmt i v = set_value stmt i (Value.Int v)
  let set_string stmt i v = set_value stmt i (Value.Str v)
  let set_float stmt i v = set_value stmt i (Value.Num v)
  let set_null stmt i = set_value stmt i Value.Null

  let clear_parameters stmt = Array.fill stmt.params 0 (Array.length stmt.params) None

  let execute_query stmt =
    let bindings =
      Array.to_list
        (Array.mapi
           (fun i p ->
             match p with
             | Some seq -> (Printf.sprintf "param%d" (i + 1), seq)
             | None ->
               invalid_arg
                 (Printf.sprintf "parameter %d is not bound" (i + 1)))
           stmt.params)
    in
    let columns = stmt.translated.Translator.columns in
    let stages = fresh_stages () in
    (* translation happened at prepare time: a prepared execution is
       the cache-hit case by construction *)
    stages.cache_hit <- true;
    let run () =
      Sql_error.wrap @@ fun () ->
      Budget.with_budget stmt.conn.limits @@ fun () ->
      run_on stmt.conn ~stages ~columns (function
        | Xml -> Server.execute_prepared ~bindings stmt.compiled_xml
        | Text -> Server.execute_prepared ~bindings stmt.compiled_text)
    in
    if not (observing ()) then run ()
    else
      observe_run ~digest:stmt.fp_digest ~shape:stmt.fp_shape ~stages
        ~plan:"prepared" run
end

(* ------------------------------------------------------------------ *)

module Database_metadata = struct
  let catalog t = t.app.Artifact.app_name

  let schemas t =
    revalidate t;
    List.sort_uniq String.compare
      (List.map
         (fun (m : Metadata.table) -> m.Metadata.schema)
         (Metadata.list_tables t.app))

  let tables t =
    revalidate t;
    Metadata.list_tables t.app

  let columns t ~table =
    revalidate t;
    match Metadata.lookup t.app table with
    | Ok m -> Some m.Metadata.columns
    | Error _ -> None

  let procedures t =
    revalidate t;
    Metadata.list_procedures t.app
end
