(* Concurrent serving: N domains replaying the differential battery
   through one shared connection/session pool must produce exactly the
   rows the sequential oracle produces, with coherent caches and exact
   counters.  On a pre-5.0 build the Mcore shim runs every "domain"
   inline, so the suite still executes (sequentially) and still checks
   the same invariants — only the true-parallelism aspect is vacuous.

   AQUA_STRESS=<n> multiplies the replay rounds (CI runs the suite with
   AQUA_STRESS=20 to shake out schedule-dependent races). *)

module T = Aqua_core.Telemetry
module Mcore = Aqua_multicore.Mcore
module Budget = Aqua_resilience.Budget
module Sqlstate = Aqua_resilience.Sqlstate
module Failpoint = Aqua_resilience.Failpoint
module Table = Aqua_relational.Table
module Value = Aqua_relational.Value
module Rowset = Aqua_relational.Rowset
module Artifact = Aqua_dsp.Artifact
module Scan_cache = Aqua_dsp.Scan_cache
module Engine = Aqua_sqlengine.Engine
module Connection = Aqua_driver.Connection
module Session_pool = Aqua_driver.Session_pool
module Result_set = Aqua_driver.Result_set
module Stats = Aqua_obs.Stats
module Histogram = Aqua_obs.Histogram

let stress =
  match Option.bind (Sys.getenv_opt "AQUA_STRESS") int_of_string_opt with
  | Some n when n > 0 -> n
  | _ -> 1

let domains = 4

(* a small, join-heavy slice of the differential battery — enough to
   exercise translation, both cache layers and the vectorized path on
   every round without making the stress loop minutes long *)
let workload =
  let rec take n = function
    | [] -> []
    | x :: rest -> if n = 0 then [] else x :: take (n - 1) rest
  in
  take 24 Test_differential.battery

let with_telemetry f =
  let was = T.enabled () in
  T.set_enabled true;
  T.reset ();
  Fun.protect ~finally:(fun () -> T.set_enabled was) f

(* ------------------------------------------------------------------ *)

(* Satellite (c): the counter-race regression.  Four domains hammer one
   counter; with plain [mutable count] increments this loses updates on
   a multicore runtime, with [Atomic.t] the total is exact. *)
let counter_hammer () =
  with_telemetry @@ fun () ->
  let c = T.counter "test.concurrency.hammer" in
  let per_domain = 10_000 in
  let outcomes =
    Mcore.Domains.parallel
      (List.init domains (fun _ () ->
           for _ = 1 to per_domain do
             T.incr c
           done))
  in
  List.iter (function Ok () -> () | Error e -> raise e) outcomes;
  Alcotest.(check int)
    "no increment lost across domains" (domains * per_domain) (T.value c)

(* ------------------------------------------------------------------ *)

let rowset_of rs = Result_set.to_rowset rs

let check_same sql expected actual =
  match Rowset.diff_summary expected actual with
  | None -> ()
  | Some msg ->
    Alcotest.failf "concurrent result diverged on %s: %s" sql msg

(* The heart of the suite: the battery slice replayed by [domains]
   domains through one shared session pool must row-for-row match the
   baseline engine oracle, on every stress round. *)
let pool_replay () =
  let app = Helpers.demo_app () in
  let oracle_env = Engine.env_of_application app in
  let oracle = List.map (Engine.execute_sql oracle_env) workload in
  let conn = Connection.connect app in
  let pool = Session_pool.create ~capacity:domains conn in
  for _round = 1 to stress do
    let results =
      Session_pool.execute_concurrent ~domains ~wait_ms:10_000 pool workload
    in
    List.iter2
      (fun (sql, expected) result ->
        match result with
        | Ok rs -> check_same sql expected (rowset_of rs)
        | Error e ->
          Alcotest.failf "statement failed concurrently: %s: %s" sql
            (Printexc.to_string e))
      (List.combine workload oracle)
      results
  done;
  let s = Session_pool.stats pool in
  Alcotest.(check int) "all sessions returned" 0 s.Session_pool.in_use;
  Alcotest.(check bool)
    "borrows accounted"
    true
    (s.Session_pool.borrows >= stress * List.length workload)

(* Same replay through the raw connection entry point (no pool). *)
let connection_replay () =
  let app = Helpers.demo_app () in
  let oracle_env = Engine.env_of_application app in
  let oracle = List.map (Engine.execute_sql oracle_env) workload in
  let conn = Connection.connect app in
  for _round = 1 to stress do
    let results = Connection.execute_concurrent ~domains conn workload in
    List.iter2
      (fun (sql, expected) result ->
        match result with
        | Ok rs -> check_same sql expected (rowset_of rs)
        | Error e ->
          Alcotest.failf "statement failed concurrently: %s: %s" sql
            (Printexc.to_string e))
      (List.combine workload oracle)
      results
  done

(* ------------------------------------------------------------------ *)

(* Scan-cache coherence: a row insert landing between two concurrent
   waves moves the table to a new version — the next wave builds and
   serves that version's elements, with the new row, never a stale
   scan. *)
let scan_cache_coherence () =
  let app = Helpers.demo_app () in
  let conn = Connection.connect app in
  let pool = Session_pool.create ~capacity:domains conn in
  let sql = "SELECT CUSTOMERID FROM CUSTOMERS" in
  let count_rows () =
    List.map
      (function
        | Ok rs -> Result_set.row_count rs
        | Error e -> raise e)
      (Session_pool.execute_concurrent ~domains ~wait_ms:10_000 pool
         (List.init domains (fun _ -> sql)))
  in
  let before = count_rows () in
  List.iter (Alcotest.(check int) "pre-insert row count" 6) before;
  let warm = Scan_cache.stats (Connection.scan_cache conn) in
  (* the mid-stress mutation: bumps the table's data version, whose
     CUSTOMERS elements are not built yet *)
  let customers =
    match
      Artifact.find_service app ~path:"TestDataServices" ~name:"CUSTOMERS"
    with
    | Some ds -> (
      match Artifact.find_function ds "CUSTOMERS" with
      | Some { Artifact.body = Artifact.Physical t; _ } -> t
      | _ -> Alcotest.fail "CUSTOMERS is not physical")
    | None -> Alcotest.fail "no CUSTOMERS service"
  in
  Table.insert customers
    [ Value.Int 7; Value.Str "Grace"; Value.Str "Geneva"; Value.Int 1 ];
  let after = count_rows () in
  List.iter (Alcotest.(check int) "post-insert row count" 7) after;
  let s = Scan_cache.stats (Connection.scan_cache conn) in
  Alcotest.(check bool)
    "the insert's version was built afresh" true
    (s.Scan_cache.misses > warm.Scan_cache.misses)

(* Appends racing a concurrent wave: one domain inserts ORDERS rows
   while the pool runs a point lookup on four.  Every result is the
   table at some version between the wave's start and end — the first
   rows plus a prefix of the inserted ones, never a stale prefix served
   after a newer scan, nor a version paired with another's rows — and
   the wave after the inserter stops sees every row.  Repeated
   [stress] times. *)
let appends_round () =
  let app =
    Aqua_workload.Datagen.application ~seed:9
      { Aqua_workload.Datagen.customers = 8; orders = 60; lines_per_order = 1;
        payments = 4 }
  in
  let orders =
    match Artifact.find_service app ~path:"Sales" ~name:"ORDERS" with
    | Some ds -> (
      match Artifact.find_function ds "ORDERS" with
      | Some { Artifact.body = Artifact.Physical t; _ } -> t
      | _ -> Alcotest.fail "ORDERS is not physical")
    | None -> Alcotest.fail "no ORDERS service"
  in
  let sql = "SELECT ORDERID, ORDERDATE, STATUS FROM ORDERS WHERE CUSTOMERID = 3" in
  let base = Engine.execute_sql (Engine.env_of_application app) sql in
  let date = Value.Date { Aqua_xml.Atomic.year = 2024; month = 2; day = 1 } in
  let order k = [ Value.Int (500_000 + k); Value.Int 3; date; Value.Str "NEW"; Value.Null ] in
  (* the reference with the first [k] inserted rows *)
  let reference k =
    Rowset.make base.Rowset.schema
      (base.Rowset.rows
      @ List.init k (fun i -> [| Value.Int (500_000 + i + 1); date; Value.Str "NEW" |]))
  in
  let start = Table.cardinality orders in
  let conn = Connection.connect app in
  let pool = Session_pool.create ~capacity:domains conn in
  let wave () =
    let lo = Table.cardinality orders - start in
    let results =
      Session_pool.execute_concurrent ~domains ~wait_ms:10_000 pool
        (List.init domains (fun _ -> sql))
    in
    let hi = Table.cardinality orders - start in
    List.map
      (function
        | Ok rs ->
          let rs = rowset_of rs in
          let k = List.length rs.Rowset.rows - List.length base.Rowset.rows in
          if k < lo || k > hi then
            Alcotest.failf "a result with %d inserted rows, outside %d..%d" k lo hi;
          check_same sql (reference k) rs;
          k
        | Error e -> raise e)
      results
  in
  ignore (wave ());
  let total = 40 in
  let finished = Atomic.make false in
  let inserter =
    Mcore.Domains.spawn (fun () ->
        for k = 1 to total do
          Table.insert orders (order k);
          Unix.sleepf 0.0002
        done;
        Atomic.set finished true)
  in
  let waves = ref 0 in
  while (not (Atomic.get finished)) && !waves < 500 do
    ignore (wave ());
    incr waves
  done;
  Mcore.Domains.join inserter;
  List.iter (Alcotest.(check int) "the last wave sees every row" total) (wave ())

let concurrent_appends () =
  for _round = 1 to stress do
    appends_round ()
  done

(* ------------------------------------------------------------------ *)

(* One read view per statement: while a domain appends ORDERS rows, a
   statement that reads ORDERS twice reads it at one version.  Each
   probe subtracts two counts of ORDERS, which is 0 in one state of the
   data: two scalar subqueries (neither always evaluated, so no plan
   reads the table once for both), a logical view read beside its base
   table, and the interpreter's rerun after an engine fault.  At batch
   sizes 1, 7 and 1024.  Needs a real second domain to race with. *)
let probe_sql over =
  Printf.sprintf
    "SELECT (SELECT COUNT(*) FROM ORDERS) - (SELECT COUNT(*) FROM %s) D \
     FROM CUSTOMERS WHERE CUSTOMERID = 1"
    over

let racing_appends ~runs probe =
  if not Mcore.multicore then ()
  else begin
    let app =
      Aqua_workload.Datagen.application ~seed:5
        { Aqua_workload.Datagen.customers = 8; orders = 60;
          lines_per_order = 1; payments = 4 }
    in
    let orders_ds = Option.get (Artifact.find_service app ~path:"Sales" ~name:"ORDERS") in
    let orders =
      match Artifact.find_function orders_ds "ORDERS" with
      | Some { Artifact.body = Artifact.Physical t; _ } -> t
      | _ -> Alcotest.fail "ORDERS is not physical"
    in
    (* ALL_ORDERS, a logical view returning ORDERS' rows *)
    ignore
      (Artifact.add_logical_service app ~project:"Views" ~name:"ALL_ORDERS"
         [ { Artifact.fn_name = "ALL_ORDERS"; params = []; element_name = "ORDERS";
             columns =
               [ Aqua_relational.Schema.column ~nullable:false "ORDERID"
                   Aqua_relational.Sql_type.Integer ];
             body =
               Artifact.logical_body_of_text
                 (Printf.sprintf
                    "import schema namespace o = %S at %S;\n\
                     for $r in o:ORDERS() return $r"
                    (Artifact.namespace_of_service orders_ds)
                    (Artifact.schema_location_of_service orders_ds)) } ]);
    let conn = Connection.connect app in
    (* every table and view resident before the race *)
    ignore (Connection.execute_query conn (probe_sql "ALL_ORDERS"));
    let date = Value.Date { Aqua_xml.Atomic.year = 2024; month = 3; day = 1 } in
    let stop = Atomic.make false in
    let inserter =
      Mcore.Domains.spawn (fun () ->
          let k = ref 0 in
          while not (Atomic.get stop) do
            incr k;
            Table.insert orders
              [ Value.Int (700_000 + !k); Value.Int 2; date; Value.Str "NEW"; Value.Null ];
            Unix.sleepf 0.0002
          done)
    in
    Fun.protect ~finally:(fun () ->
        Atomic.set stop true;
        Mcore.Domains.join inserter)
    @@ fun () ->
    let module Batch = Aqua_xqeval.Batch in
    let prev = Batch.size () in
    Fun.protect ~finally:(fun () -> Batch.set_size prev) @@ fun () ->
    List.iter
      (fun size ->
        Batch.set_size size;
        for run = 1 to runs do
          match (rowset_of (probe conn orders)).Rowset.rows with
          | [ row ] when row.(0) = Value.Int 0 -> ()
          | rows ->
            Alcotest.failf "batch size %d, run %d: D = %s, not 0" size run
              (String.concat "; "
                 (List.map
                    (fun row ->
                      String.concat "," (Array.to_list (Array.map Value.to_display row)))
                    rows))
        done)
      [ 1; 7; 1024 ]
  end

let two_counts_one_version () =
  racing_appends ~runs:500 (fun conn _ ->
      Connection.execute_query conn (probe_sql "ORDERS"))

let view_beside_its_table () =
  racing_appends ~runs:200 (fun conn _ ->
      Connection.execute_query conn (probe_sql "ALL_ORDERS"))

(* The compiled run faults at its first batch after it has served
   ORDERS: the trace sink arms the failpoint when the ORDERS call ends.
   When the fault is reported, the test inserts one more ORDERS row and
   notes the version the statement pinned.  The interpreter reruns the
   statement in the same read view: it counts the pinned rows, not the
   one inserted before it started, and is served the scan the faulted
   run materialized (the statement adds at most one scan-cache miss). *)
let rerun_reads_the_pinned_version () =
  let date = Value.Date { Aqua_xml.Atomic.year = 2024; month = 3; day = 1 } in
  racing_appends ~runs:200 (fun conn orders ->
      let misses () = (Scan_cache.stats (Connection.scan_cache conn)).Scan_cache.misses in
      let before = misses () in
      let served = ref false and at_fault = ref None in
      T.set_trace_sink
        (Some
           (fun line ->
             if Helpers.contains ~needle:"\"name\":\"dsp.call.ORDERS\"" line then begin
               if not !served then Failpoint.arm "xqeval.batch=at(1)";
               served := true
             end
             else if Helpers.contains ~needle:"\"ev\":\"fallback\"" line then begin
               at_fault := Some (!served, Table.version orders);
               Table.insert orders
                 [ Value.Int (900_000 + Table.cardinality orders); Value.Int 2; date;
                   Value.Str "LATE"; Value.Null ]
             end));
      let rs, fallbacks =
        Fun.protect ~finally:(fun () -> T.set_trace_sink None) @@ fun () ->
        Helpers.with_failpoints "xqeval.batch=at(1000000)" (fun () ->
            Helpers.counting_fallbacks (fun () ->
                Connection.execute_query conn
                  "SELECT (SELECT COUNT(*) FROM ORDERS) - (SELECT COUNT(*) \
                   FROM ORDERS) D, (SELECT COUNT(*) FROM ORDERS) N FROM \
                   CUSTOMERS WHERE CUSTOMERID = 1"))
      in
      Alcotest.(check int) "the compiled run faulted" 1 fallbacks;
      let served, pinned =
        match !at_fault with
        | Some f -> f
        | None -> Alcotest.fail "no fallback event was traced"
      in
      if not served then Alcotest.fail "the faulted run had not served ORDERS";
      (match (rowset_of rs).Rowset.rows with
       | [ [| _; Value.Int n |] ] ->
         Alcotest.(check int) "the rerun counts the pinned rows" pinned n;
         if Table.cardinality orders <= n then
           Alcotest.fail "the row inserted before the rerun is not newer"
       | _ -> Alcotest.fail "expected one row of D and N");
      if misses () - before > 1 then
        Alcotest.failf "the rerun materialized ORDERS again (%d misses)"
          (misses () - before);
      rs)

(* ------------------------------------------------------------------ *)

(* Pool exhaustion is a typed, bounded error: SQLSTATE 53300. *)
(* A hoisted value belongs to its run: two domains run one cached plan
   with different literals while a third appends ORDERS rows.  The
   statement counts the PRIORITY = k orders whose ORDERID is not in the
   hoisted set of PRIORITY = k order ids, which is 0 only when the set
   was built from the statement's own literal, at the version its outer
   scan reads.  Needs real domains to race. *)
let hoisted_probe_sql k =
  Printf.sprintf
    "SELECT COUNT(*) N FROM ORDERS WHERE PRIORITY = %d AND ORDERID NOT IN \
     (SELECT ORDERID FROM ORDERS WHERE PRIORITY = %d)"
    k k

let hoisted_values_per_run () =
  if Mcore.multicore then begin
    let app =
      Aqua_workload.Datagen.application ~seed:7
        { Aqua_workload.Datagen.customers = 20; orders = 200;
          lines_per_order = 1; payments = 4 }
    in
    let orders_ds = Option.get (Artifact.find_service app ~path:"Sales" ~name:"ORDERS") in
    let orders =
      match Artifact.find_function orders_ds "ORDERS" with
      | Some { Artifact.body = Artifact.Physical t; _ } -> t
      | _ -> Alcotest.fail "ORDERS is not physical"
    in
    let conn = Connection.connect app in
    ignore (Connection.execute_query conn (hoisted_probe_sql 4));
    let date = Value.Date { Aqua_xml.Atomic.year = 2024; month = 3; day = 1 } in
    let stop = Atomic.make false in
    let inserter =
      Mcore.Domains.spawn (fun () ->
          let k = ref 0 in
          while not (Atomic.get stop) do
            incr k;
            Table.insert orders
              [ Value.Int (800_000 + !k); Value.Int 2; date; Value.Str "NEW";
                Value.Int (if !k mod 2 = 0 then 2 else 4) ];
            Unix.sleepf 0.0002
          done)
    in
    Fun.protect ~finally:(fun () ->
        Atomic.set stop true;
        Mcore.Domains.join inserter)
    @@ fun () ->
    let module Batch = Aqua_xqeval.Batch in
    let prev = Batch.size () in
    Fun.protect ~finally:(fun () -> Batch.set_size prev) @@ fun () ->
    List.iter
      (fun size ->
        Batch.set_size size;
        let stmts = List.init 200 (fun i -> hoisted_probe_sql (if i mod 2 = 0 then 4 else 2)) in
        List.iteri
          (fun i r ->
            match r with
            | Ok rs -> (
              match (rowset_of rs).Rowset.rows with
              | [ [| Value.Int 0 |] ] -> ()
              | _ ->
                Alcotest.failf "batch size %d, statement %d (%s): N is not 0" size i
                  (List.nth stmts i))
            | Error e -> raise e)
          (Connection.execute_concurrent ~domains:2 conn stmts))
      [ 1; 7; 1024 ];
    Alcotest.(check int) "one plan for both literals" 1
      (Connection.translation_cache_size conn)
  end

let pool_exhaustion () =
  let app = Helpers.demo_app () in
  let conn = Connection.connect app in
  let pool = Session_pool.create ~capacity:1 conn in
  let held = Session_pool.borrow pool in
  (match Session_pool.execute pool "SELECT * FROM CUSTOMERS" with
  | _ -> Alcotest.fail "expected 53300 on an exhausted pool"
  | exception Sqlstate.Error e ->
    Alcotest.(check string)
      "sqlstate" Sqlstate.too_many_connections e.Sqlstate.sqlstate);
  Session_pool.release pool held;
  (* a session is free again: the same call now succeeds *)
  let rs = Session_pool.execute pool "SELECT * FROM CUSTOMERS" in
  Alcotest.(check int) "serves after release" 6 (Result_set.row_count rs);
  let s = Session_pool.stats pool in
  Alcotest.(check int) "one rejection recorded" 1 s.Session_pool.rejections

(* A bounded-wait borrow succeeds once a concurrent holder releases.
   Needs a real second domain (the inline shim would spin forever). *)
let blocking_borrow () =
  if not Mcore.multicore then ()
  else begin
    let app = Helpers.demo_app () in
    let conn = Connection.connect app in
    let pool = Session_pool.create ~capacity:1 conn in
    let held = Session_pool.borrow pool in
    let waiter =
      Mcore.Domains.spawn (fun () ->
          Session_pool.with_session ~wait_ms:10_000 pool (fun s ->
              Session_pool.session_id s))
    in
    (* give the waiter time to start spinning, then release *)
    Unix.sleepf 0.05;
    Session_pool.release pool held;
    let id = Mcore.Domains.join waiter in
    Alcotest.(check int) "waiter got the released session" 0 id;
    let s = Session_pool.stats pool in
    Alcotest.(check bool) "wait recorded" true (s.Session_pool.waits >= 1)
  end

(* ------------------------------------------------------------------ *)

(* Counter parity: with every cache prewarmed, the telemetry counters
   for one workload are a pure function of the workload — the same
   whether it runs on 1 domain or N.  (Domain-local state like the
   hash-join build cache is deliberately excluded: its build counts
   legitimately scale with the domain count.) *)
let counter_parity () =
  let app = Helpers.demo_app () in
  let conn = Connection.connect app in
  let run_measured run =
    with_telemetry @@ fun () ->
    run ();
    String.concat " "
      (List.map
         (fun (name, c) -> Printf.sprintf "%s=%d" name (T.value c))
         [ ("translations", T.c_translations);
           ("cache_hits", T.c_cache_hits);
           ("cache_misses", T.c_cache_misses);
           ("rows_emitted", T.c_rows_emitted);
           ("resultset_rows", T.c_resultset_rows);
           ("scan_hits", T.c_scan_cache_hits);
           ("scan_misses", T.c_scan_cache_misses) ])
  in
  (* prewarm translation, metadata and scan caches *)
  List.iter (fun sql -> ignore (Connection.execute_query conn sql)) workload;
  let sequential =
    run_measured (fun () ->
        List.iter
          (fun sql -> ignore (Connection.execute_query conn sql))
          workload)
  in
  let concurrent =
    run_measured (fun () ->
        List.iter
          (function Ok _ -> () | Error e -> raise e)
          (Connection.execute_concurrent ~domains conn workload))
  in
  Alcotest.(check string)
    "1-domain and 4-domain runs count identically" sequential concurrent

(* ------------------------------------------------------------------ *)

(* Observability parity: the per-fingerprint stats registry and its
   latency histograms, fed by 4 domains hammering the same workload,
   must account for exactly the observations a sequential replay of
   the same total workload produces — per-domain merges lose nothing
   and double-count nothing.  Durations differ run to run, so the
   oracle compares counts (calls, rows, histogram cardinality), which
   are a pure function of the workload. *)
let observability_parity () =
  let app = Helpers.demo_app () in
  let conn = Connection.connect app in
  (* prewarm every cache so both runs see identical hit/miss traffic *)
  List.iter (fun sql -> ignore (Connection.execute_query conn sql)) workload;
  let replay () =
    List.iter (fun sql -> ignore (Connection.execute_query conn sql)) workload
  in
  let measure run =
    with_telemetry @@ fun () ->
    Stats.reset ();
    Stats.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Stats.set_enabled false;
        Stats.reset ())
      (fun () ->
        run ();
        let entries = Stats.entries () in
        (* every recorded observation must be visible in the merged
           total histogram: count = calls, exactly *)
        List.iter
          (fun (e : Stats.entry) ->
            Alcotest.(check int)
              ("histogram count = calls for " ^ e.Stats.fingerprint)
              e.Stats.calls
              (Histogram.count e.Stats.total))
          entries;
        List.sort compare
          (List.map
             (fun (e : Stats.entry) ->
               (e.Stats.fingerprint, e.Stats.calls, e.Stats.rows))
             entries))
  in
  (* same total workload: [domains] sequential replays vs [domains]
     domains each replaying once, concurrently *)
  let sequential =
    measure (fun () ->
        for _ = 1 to domains do
          replay ()
        done)
  in
  let concurrent =
    measure (fun () ->
        List.iter
          (function Ok () -> () | Error e -> raise e)
          (Mcore.Domains.parallel (List.init domains (fun _ -> replay))))
  in
  Alcotest.(check int)
    "both runs saw every fingerprint"
    (List.length sequential) (List.length concurrent);
  List.iter2
    (fun (fp_s, calls_s, rows_s) (fp_c, calls_c, rows_c) ->
      Alcotest.(check string) "fingerprint" fp_s fp_c;
      Alcotest.(check int) ("calls for " ^ fp_s) calls_s calls_c;
      Alcotest.(check int) ("rows for " ^ fp_s) rows_s rows_c)
    sequential concurrent

(* ------------------------------------------------------------------ *)

(* Budgets are domain-local: a tiny per-session budget tripping in one
   domain must not cancel (or be seen by) the query in another. *)
let budget_isolation () =
  let app = Helpers.demo_app () in
  let conn = Connection.connect app in
  let tiny = Budget.limits ~max_rows:1 () in
  let outcomes =
    Mcore.Domains.parallel
      [
        (fun () ->
          match
            Connection.execute_query ~limits:tiny conn
              "SELECT * FROM CUSTOMERS"
          with
          | _ -> `Unexpected_success
          | exception Sqlstate.Error e -> `Tripped e.Sqlstate.sqlstate);
        (fun () ->
          let rs =
            Connection.execute_query ~limits:Budget.no_limits conn
              "SELECT * FROM CUSTOMERS"
          in
          `Rows (Result_set.row_count rs));
      ]
  in
  match outcomes with
  | [ Ok limited; Ok unlimited ] ->
    (match limited with
    | `Tripped code ->
      Alcotest.(check string)
        "bounded session tripped its own governor"
        Sqlstate.configured_limit_exceeded code
    | _ -> Alcotest.fail "bounded session did not trip");
    (match unlimited with
    | `Rows n -> Alcotest.(check int) "unbounded session unaffected" 6 n
    | _ -> Alcotest.fail "unbounded session failed")
  | _ -> Alcotest.fail "a domain died unexpectedly"

(* Serving scales across domains: a mixed read workload (point lookup,
   filtered scan, equi-join, grouped aggregate) through one session pool
   over one shared connection completes at least as many queries per
   second on 4 domains as on 1.  A time ratio, so it binds only under
   AQUA_STRESS, on a multicore runtime with at least 4 cores. *)
let throughput_scales () =
  if Sys.getenv_opt "AQUA_STRESS" <> None && Mcore.multicore && Mcore.num_cores () >= 4
  then begin
    let conn =
      Connection.connect
        (Aqua_workload.Datagen.application ~seed:42
           { customers = 200; orders = 300; lines_per_order = 2; payments = 150 })
    in
    let mix =
      [| "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = 17";
         "SELECT CUSTOMERNAME, CREDIT FROM CUSTOMERS WHERE TIER > 1";
         "SELECT C.CUSTOMERNAME, O.ORDERID FROM CUSTOMERS C, ORDERS O WHERE \
          C.CUSTOMERID = O.CUSTOMERID AND O.PRIORITY > 2";
         "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY" |]
    in
    Array.iter (fun sql -> ignore (Connection.execute_query conn sql)) mix;
    let ops = 200 in
    let qps n =
      let pool = Session_pool.create ~capacity:n conn in
      let t0 = Unix.gettimeofday () in
      List.iter
        (function Ok () -> () | Error e -> raise e)
        (Mcore.Domains.parallel
           (List.init n (fun d () ->
                for i = 0 to ops - 1 do
                  ignore (Session_pool.execute ~wait_ms:60_000 pool mix.((d + i) mod 4))
                done)));
      float (n * ops) /. (Unix.gettimeofday () -. t0)
    in
    let one = qps 1 and four = qps 4 in
    if four < one then
      Alcotest.failf "4 domains serve %.0f queries/s, 1 domain %.0f" four one
  end

let suite =
  ( "concurrency",
    [ Helpers.case "atomic counters survive a 4-domain hammer" counter_hammer;
      Helpers.case "pooled replay matches the sequential oracle" pool_replay;
      Helpers.case "shared-connection replay matches the oracle"
        connection_replay;
      Helpers.case "scan cache stays coherent across a revision bump"
        scan_cache_coherence;
      Helpers.case "appends racing a concurrent wave" concurrent_appends;
      Helpers.case "two counts of a table read one version"
        two_counts_one_version;
      Helpers.case "a logical view reads its table's pinned version"
        view_beside_its_table;
      Helpers.case "an engine-fault rerun reads the pinned version"
        rerun_reads_the_pinned_version;
      Helpers.case "hoisted values are per run across domains"
        hoisted_values_per_run;
      Helpers.case "exhausted pool raises SQLSTATE 53300" pool_exhaustion;
      Helpers.case "bounded-wait borrow succeeds after a release"
        blocking_borrow;
      Helpers.case "telemetry counters agree between 1 and 4 domains"
        counter_parity;
      Helpers.case "stats registry survives a 4-domain hammer"
        observability_parity;
      Helpers.case "budgets are isolated per domain" budget_isolation;
      Helpers.case "4 domains serve at least the queries/s of 1"
        throughput_scales ] )
