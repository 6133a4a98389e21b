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

type transport = Xml | Text

(* Bounded LRU over cached plans, keyed by the plan key of
   [Fingerprint.key].  LRU order is kept in a doubly-linked-list-free
   way: a use counter per entry, evicting the least recently used entry
   when full.  The counter is renumbered (compacted to 0..n-1,
   preserving order) when it reaches [stamp_limit], so a long-lived
   connection can never overflow it. *)
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
      if not (Hashtbl.mem t.table key)
         && Hashtbl.length t.table >= t.capacity
      then evict_lru t;
      Hashtbl.replace t.table key { value; stamp = tick t }

  let enabled t = t.enabled

  let length t = Mcore.Mutex.protect t.lock (fun () -> Hashtbl.length t.table)
  let clock t = Mcore.Mutex.protect t.lock (fun () -> t.clock)
  let clear t = Mcore.Mutex.protect t.lock (fun () -> Hashtbl.reset t.table)
end

let translation_cache_capacity = 128

module Fingerprint = Aqua_obs.Fingerprint
module Stats = Aqua_obs.Stats
module Recorder = Aqua_obs.Recorder

(* A cached plan (DESIGN.md section 17): the lifted translation of the
   text that built it, that text's fingerprint (shared by every text
   with its plan key), and per transport the server's plan, made on
   first use and compiled on its first execution. *)
type plan = {
  lifted : Translator.lifted;
  sql : string;
  digest : string;
  shape : string;
  vars : string list;  (* the externals: parameters, then lifted literals *)
  xml : Server.prepared option Stdlib.Atomic.t;
  text : Server.prepared option Stdlib.Atomic.t;
}

type t = {
  app : Artifact.application;
  srv : Server.t;
  cache : Metadata.Cache.t;
  plans : plan Lru.t;
  env : Semantic.env;
  optimize : bool;
  rev_lock : Mcore.Mutex.t;
      (* serializes [revalidate]/[invalidate]: exactly one domain
         performs the three-cache flush for a given revision bump *)
  mutable limits : Budget.limits;
  mutable transport : transport;
  mutable seen_revision : int;
}

let connect ?(transport = Text) ?(translation_cache = true) ?(optimize = true)
    ?(scan_cache = true) ?(limits = Budget.no_limits) app =
  let cache = Metadata.Cache.create app in
  {
    app;
    srv = Server.create ~optimize ~scan_cache app;
    cache;
    plans = Lru.create ~enabled:translation_cache translation_cache_capacity;
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
   invalidates every cached plan and catalog answer; compare the
   application's revision on each use and flush when stale. *)
let revalidate t =
  Mcore.Mutex.protect t.rev_lock @@ fun () ->
  let rev = Artifact.revision t.app in
  if rev <> t.seen_revision then begin
    Lru.clear t.plans;
    Metadata.Cache.clear t.cache;
    (* the scan cache also self-checks the revision on every touch;
       flushing here keeps the two invalidation paths in lockstep *)
    Aqua_dsp.Scan_cache.flush (scan_cache t);
    t.seen_revision <- rev
  end

let invalidate t =
  Mcore.Mutex.protect t.rev_lock @@ fun () ->
  Lru.clear t.plans;
  Metadata.Cache.clear t.cache;
  Aqua_dsp.Scan_cache.flush (scan_cache t);
  t.seen_revision <- Artifact.revision t.app

let param_var i = Printf.sprintf "param%d" (i + 1)

(* The plan for [sql] (whose key pass is [key]), the literal values it
   runs with, and whether it was reused.  A miss parses the key's
   tokens, so the plan's literals are the key's. *)
let plan_for t (key : Fingerprint.key) sql =
  let module T = Aqua_core.Telemetry in
  revalidate t;
  Failpoint.hit "driver.translate";
  let values =
    Array.map (fun (l : Fingerprint.literal) -> l.value) key.Fingerprint.literals
  in
  let cached =
    match key.Fingerprint.plan with
    | Some k -> Lru.find t.plans k
    | None -> None
  in
  match cached with
  | Some p when Translator.reusable p.lifted values ->
    T.incr T.c_cache_hits;
    (p, values, true)
  | _ ->
    T.incr T.c_cache_misses;
    let lifted = Translator.translate_lifted t.env key.Fingerprint.tokens in
    let p =
      {
        lifted;
        sql;
        digest = key.Fingerprint.digest;
        shape = key.Fingerprint.shape;
        vars =
          List.init lifted.Translator.params param_var
          @ List.map (fun (l : Aqua_translator.Generate.lifted) -> l.var)
              lifted.Translator.externals;
        xml = Stdlib.Atomic.make None;
        text = Stdlib.Atomic.make None;
      }
    in
    Option.iter (fun k -> Lru.add t.plans k p) key.Fingerprint.plan;
    (p, values, false)

let query p = function
  | Xml -> p.lifted.Translator.plan.Translator.xquery
  | Text -> Translator.for_text_transport p.lifted.Translator.plan

(* The server's plan of [p] for transport [tr]. *)
let prepared t p tr =
  let cell = match tr with Xml -> p.xml | Text -> p.text in
  match Stdlib.Atomic.get cell with
  | Some s -> s
  | None ->
    let s = Server.prepare_lazy ~vars:p.vars t.srv (query p tr) in
    if Stdlib.Atomic.compare_and_set cell None (Some s) then s
    else Option.get (Stdlib.Atomic.get cell)

let translate t sql =
  let module T = Aqua_core.Telemetry in
  if not (Lru.enabled t.plans) then begin
    revalidate t;
    Failpoint.hit "driver.translate";
    T.incr T.c_cache_misses;
    Translator.translate t.env sql
  end
  else
    let key = Fingerprint.key sql in
    let p, values, _ = plan_for t key sql in
    let statement =
      if String.equal p.sql sql then p.lifted.Translator.plan.Translator.statement
      else fst (Aqua_sql.Parser.parse_tokens key.Fingerprint.tokens)
    in
    {
      Translator.statement;
      xquery = Translator.instantiate p.lifted values;
      columns = p.lifted.Translator.plan.Translator.columns;
    }

let translation_cache_size t = Lru.length t.plans
let clear_translation_cache t = Lru.clear t.plans

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

(* With the plan cache on, the statement's key pass keys the plan and
   fingerprints it; with it off, the statement is translated and run
   afresh, as the reference for the cached path. *)
let execute_query ?key ?limits t sql =
  let stages = fresh_stages () in
  let limits = match limits with Some l -> l | None -> t.limits in
  let key =
    match key with
    | Some k -> Lazy.from_val k
    | None -> lazy (Fingerprint.key sql)
  in
  let translating f =
    timed (fun d -> stages.translate_ns <- Int64.add stages.translate_ns d) f
  in
  let run () =
    Sql_error.wrap @@ fun () ->
    Budget.with_budget limits @@ fun () ->
    if Lru.enabled t.plans then begin
      let p, values, hit =
        translating (fun () -> plan_for t (Lazy.force key) sql)
      in
      stages.cache_hit <- hit;
      let bindings = Translator.bindings p.lifted values in
      run_on t ~stages ~columns:p.lifted.Translator.plan.Translator.columns
        (fun tr ->
          if hit then Server.execute_prepared ~bindings (prepared t p tr)
          else Server.execute ~bindings t.srv (query p tr))
    end
    else
      let tr = translating (fun () -> translate t sql) in
      run_on t ~stages ~columns:tr.Translator.columns (function
        | Xml -> Server.execute t.srv tr.Translator.xquery
        | Text -> Server.execute t.srv (Translator.for_text_transport tr))
  in
  if not (observing ()) then run ()
  else
    let key = Lazy.force key in
    let plan = if t.optimize then "optimized" else "unoptimized" in
    observe_run ~digest:key.Fingerprint.digest ~shape:key.Fingerprint.shape
      ~stages ~plan run

(* Concurrent entry point: execute a batch of statements across
   [domains] domains sharing THIS connection (its plan, metadata and
   scan caches).  Statements are dealt round-robin; results come back
   in input order, each independently an [Ok result_set] or the
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

module Prepared = struct
  (* A prepared statement is a plan of the connection's cache (made
     for it when the cache is off) with its literals' values: execution
     binds the parameters beside them and runs the transport's plan. *)
  type stmt = {
    conn : t;
    plan : plan;
    literals : (string * Item.sequence) list;
    params : Item.sequence option array;
  }

  let prepare conn sql =
    let plan, values, _ = plan_for conn (Fingerprint.key sql) sql in
    {
      conn;
      plan;
      literals = Translator.bindings plan.lifted values;
      params = Array.make plan.lifted.Translator.params None;
    }

  let parameter_count stmt = Array.length stmt.params

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
      List.mapi
        (fun i p ->
          match p with
          | Some seq -> (param_var i, seq)
          | None ->
            invalid_arg (Printf.sprintf "parameter %d is not bound" (i + 1)))
        (Array.to_list stmt.params)
      @ stmt.literals
    in
    let conn = stmt.conn and plan = stmt.plan in
    let stages = fresh_stages () in
    (* the plan was found or made at prepare time: a prepared execution
       is the cache-hit case by construction *)
    stages.cache_hit <- true;
    let run () =
      Sql_error.wrap @@ fun () ->
      Budget.with_budget conn.limits @@ fun () ->
      run_on conn ~stages ~columns:plan.lifted.Translator.plan.Translator.columns
        (fun tr -> Server.execute_prepared ~bindings (prepared conn plan tr))
    in
    if not (observing ()) then run ()
    else
      observe_run ~digest:plan.digest ~shape:plan.shape ~stages
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
