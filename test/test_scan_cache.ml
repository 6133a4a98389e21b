(* Scan materialization: the cross-query version-aware cache of logical
   results, the element lists physical tables keep per version, and the
   statement's read view they serve — plus the group-key injectivity
   regression that rode along (the flat separator-joined encoding
   collided on keys containing the separator). *)

module X = Aqua_xquery.Ast
module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item
module Optimize = Aqua_xqeval.Optimize
module Eval = Aqua_xqeval.Eval
module Compile = Aqua_xqeval.Compile
module Group_key = Aqua_xqeval.Group_key
module Artifact = Aqua_dsp.Artifact
module Scan_cache = Aqua_dsp.Scan_cache
module Server = Aqua_dsp.Server
module Connection = Aqua_driver.Connection
module Result_set = Aqua_driver.Result_set
module Rowset = Aqua_relational.Rowset
module Table = Aqua_relational.Table
module Schema = Aqua_relational.Schema
module Sql_type = Aqua_relational.Sql_type
module Value = Aqua_relational.Value
module Engine = Aqua_sqlengine.Engine
module Failpoint = Aqua_resilience.Failpoint
module Budget = Aqua_resilience.Budget
module Datagen = Aqua_workload.Datagen
module Querygen = Aqua_workload.Querygen
module Metadata = Aqua_dsp.Metadata

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Direct cache entries that depend on no table, only on metadata. *)
let no_tables = []
let hit c key = Option.is_some (Scan_cache.lookup c key)

(* The physical table behind a parameterless service of [app]. *)
let physical app name =
  List.find_map
    (fun (ds : Artifact.data_service) ->
      List.find_map
        (fun (f : Artifact.ds_function) ->
          match f.Artifact.body with
          | Artifact.Physical t when t.Table.name = name -> Some t
          | _ -> None)
        ds.Artifact.functions)
    app.Artifact.services
  |> Option.get

(* A self-join calls one table twice: through the server it returns the
   same rows with the cache on and off, through interpreter and
   compiler alike. *)
let self_join_semantics () =
  let app = Helpers.demo_app () in
  let sql =
    "SELECT A.CUSTOMERNAME, B.CUSTOMERNAME FROM CUSTOMERS A, CUSTOMERS B \
     WHERE A.CUSTOMERID = B.CUSTOMERID"
  in
  let t = Helpers.translate app sql in
  let run ~scan_cache =
    let srv = Server.create ~scan_cache app in
    Aqua_xml.Serialize.sequence_to_string
      (Server.execute srv t.Aqua_translator.Translator.xquery)
  in
  Alcotest.(check string) "cache on = cache off" (run ~scan_cache:false)
    (run ~scan_cache:true);
  let srv = Server.create app in
  let prepared = Server.prepare srv t.Aqua_translator.Translator.xquery in
  Alcotest.(check string) "compiled agrees" (run ~scan_cache:false)
    (Aqua_xml.Serialize.sequence_to_string (Server.execute_prepared prepared))

(* A one-table application small enough to reason about exact row and
   budget counts. *)
let tiny_app rows =
  let app = Artifact.application "App" in
  let schema = [ Schema.column ~nullable:false "ID" Sql_type.Integer ] in
  let t = Table.create "T" schema in
  List.iter (fun i -> Table.insert t [ Value.Int i ]) rows;
  ignore (Artifact.import_physical_table app ~project:"P" t);
  (app, t)

let serve srv fn = Server.call_function srv ~path:"P" ~name:fn ~fn []
let serve_rows srv = serve srv "T"

(* A logical service V over the table T of [tiny_app]. *)
let add_view app =
  let base = Option.get (Artifact.find_service app ~path:"P" ~name:"T") in
  ignore
    (Artifact.add_logical_service app ~project:"P" ~name:"V"
       [ { Artifact.fn_name = "V"; params = []; element_name = "T"; columns = [];
           body =
             Artifact.logical_body_of_text
               (Printf.sprintf
                  "import schema namespace b = %S at %S;\n\
                   for $r in b:T() return $r"
                  (Artifact.namespace_of_service base)
                  (Artifact.schema_location_of_service base)) } ])

(* ------------------------------------------------------------------ *)
(* Cross-query cache behaviour                                        *)

let warm_hits () =
  let app = Helpers.demo_app () in
  let conn = Connection.connect app in
  let sql = "SELECT CUSTOMERNAME FROM CUSTOMERS" in
  ignore (Connection.execute_query conn sql);
  let s1 = Scan_cache.stats (Connection.scan_cache conn) in
  check_int "first run misses once" 1 s1.Scan_cache.misses;
  ignore (Connection.execute_query conn sql);
  let s2 = Scan_cache.stats (Connection.scan_cache conn) in
  check_int "second run hits" (s1.Scan_cache.hits + 1) s2.Scan_cache.hits;
  check_int "no new miss" s1.Scan_cache.misses s2.Scan_cache.misses;
  check_int "no entry: the table keeps its elements" 0 s2.Scan_cache.entries;
  check_bool "the elements are built" true
    (Option.is_some (Table.built_items (physical app "CUSTOMERS")))

(* A metadata change bumps the application revision: every resident
   result is dropped before the next serve, while the elements a table
   keeps for its version still serve. *)
let revision_invalidation () =
  let app, _ = tiny_app [ 1; 2; 3 ] in
  add_view app;
  let srv = Server.create app in
  let serve_view () = ignore (serve srv "V") in
  serve_view ();
  serve_view ();
  let before = Scan_cache.stats (Server.scan_cache srv) in
  check_bool "warm before the bump" true (before.Scan_cache.hits > 0);
  ignore (Artifact.add_logical_service app ~project:"Aux" ~name:"NOOP" []);
  serve_view ();
  let after = Scan_cache.stats (Server.scan_cache srv) in
  check_bool "entries were invalidated, not evicted" true
    (after.Scan_cache.invalidations > before.Scan_cache.invalidations);
  check_int "no capacity evictions" before.Scan_cache.evictions
    after.Scan_cache.evictions;
  check_int "the view re-evaluates (a miss, not a stale hit)"
    (before.Scan_cache.misses + 1) after.Scan_cache.misses;
  check_int "only its table's kept elements are a hit"
    (before.Scan_cache.hits + 1) after.Scan_cache.hits

let direct_revision_flush () =
  let app = Artifact.application "App" in
  let c = Scan_cache.create app in
  Scan_cache.store c "k" no_tables [ Item.Atomic (Atomic.Integer 1) ];
  check_bool "hit before bump" true (hit c "k");
  ignore (Artifact.add_logical_service app ~project:"P" ~name:"S" []);
  check_bool "miss after bump" true (not (hit c "k"));
  let s = Scan_cache.stats c in
  check_int "flushed entry counted as invalidation" 1 s.Scan_cache.invalidations;
  check_int "resident bytes back to zero" 0 s.Scan_cache.bytes

let budget_eviction () =
  let app = Artifact.application "App" in
  let c = Scan_cache.create ~max_entries:2 app in
  let seq n = [ Item.Atomic (Atomic.Integer n) ] in
  Scan_cache.store c "a" no_tables (seq 1);
  Scan_cache.store c "b" no_tables (seq 2);
  ignore (Scan_cache.lookup c "a");
  (* "b" is now least-recently used; a third entry evicts it *)
  Scan_cache.store c "c" no_tables (seq 3);
  check_bool "lru entry evicted" true (not (hit c "b"));
  check_bool "recent entry kept" true (hit c "a");
  check_bool "new entry kept" true (hit c "c");
  check_int "one eviction" 1 (Scan_cache.stats c).Scan_cache.evictions;
  (* byte budget: entries are dropped until resident bytes fit *)
  let big = Scan_cache.create ~max_bytes:200 app in
  let payload tag = [ Item.Atomic (Atomic.String (String.make 80 tag)) ] in
  Scan_cache.store big "x" no_tables (payload 'x');
  Scan_cache.store big "y" no_tables (payload 'y');
  Scan_cache.store big "z" no_tables (payload 'z');
  check_bool "byte budget enforced" true
    ((Scan_cache.stats big).Scan_cache.bytes <= 200);
  check_bool "byte budget evicted" true
    ((Scan_cache.stats big).Scan_cache.evictions > 0);
  (* an oversized result is served but never admitted *)
  let capped = Scan_cache.create ~max_rows:2 app in
  Scan_cache.store capped "wide" no_tables
    [ Item.Atomic (Atomic.Integer 1); Item.Atomic (Atomic.Integer 2);
      Item.Atomic (Atomic.Integer 3) ];
  check_int "oversized result not resident" 0
    (Scan_cache.stats capped).Scan_cache.entries

(* The item governor must charge cached serves exactly like uncached
   ones: a query admitted cold is admitted warm, a query rejected cold
   is rejected warm — the cache changes latency, never admission. *)
let serve_budget_symmetry () =
  let twice ~scan_cache =
    let app, _ = tiny_app [ 1; 2 ] in
    let srv = Server.create ~scan_cache app in
    Budget.with_budget (Budget.limits ~max_items:3 ()) @@ fun () ->
    ignore (serve_rows srv);
    ignore (serve_rows srv)
  in
  (* 2 rows per serve against a 3-item budget: the second serve trips
     the governor whether it re-fetches (cache off) or hits (warm) *)
  (match twice ~scan_cache:false with
  | () -> Alcotest.fail "cold serves must trip the item governor"
  | exception Budget.Exceeded _ -> ());
  (match twice ~scan_cache:true with
  | () -> Alcotest.fail "warm serve must trip the governor identically"
  | exception Budget.Exceeded _ -> ());
  (* and a single serve fits the same budget in both modes *)
  let once ~scan_cache =
    let app, _ = tiny_app [ 1; 2 ] in
    let srv = Server.create ~scan_cache app in
    Budget.with_budget (Budget.limits ~max_items:3 ()) @@ fun () ->
    check_int "served rows" 2 (List.length (serve_rows srv))
  in
  once ~scan_cache:false;
  once ~scan_cache:true

(* Data changes must reach every reader: inserting a row bumps the
   table version, so both the server and the baseline engine serve the
   new version's list, with the new row. *)
let insert_invalidates () =
  let app, table = tiny_app [ 1; 2 ] in
  let sql = "SELECT ID FROM T" in
  let conn = Connection.connect app in
  let count () =
    List.length
      (Result_set.to_rowset (Connection.execute_query conn sql)).Rowset.rows
  in
  check_int "cold read" 2 (count ());
  check_int "warm read" 2 (count ());
  let warm = Scan_cache.stats (Connection.scan_cache conn) in
  check_bool "second read was served warm" true (warm.Scan_cache.hits > 0);
  Table.insert table [ Value.Int 3 ];
  check_int "read after insert sees the new row" 3 (count ());
  let after = Scan_cache.stats (Connection.scan_cache conn) in
  check_int "the new version's elements are built (a miss)"
    (warm.Scan_cache.misses + 1) after.Scan_cache.misses;
  (* the baseline engine reads the table's rows at the new version too *)
  let env = Engine.env_of_application app in
  check_int "engine cold read" 3
    (List.length (Engine.execute_sql env sql).Rowset.rows);
  Table.insert table [ Value.Int 4 ];
  check_int "engine read after insert" 4
    (List.length (Engine.execute_sql env sql).Rowset.rows)

let new_order id customer =
  [ Value.Int id; Value.Int customer;
    Value.Date { Atomic.year = 2024; month = 1; day = 1 }; Value.Str "NEW";
    Value.Null ]

(* An insert invalidates only what read its table: after an ORDERS
   insert a CUSTOMERS-only statement is served from the kept scan and
   the compiled engine's column memo, and nothing is invalidated; the
   next ORDERS statement builds the new version's elements (a miss,
   with nothing to invalidate) and sees the new row. *)
let insert_invalidates_own_table () =
  let app =
    Datagen.application ~seed:3
      { Datagen.customers = 12; orders = 30; lines_per_order = 1; payments = 5 }
  in
  let conn = Connection.connect app in
  let customers_only = "SELECT C.CITY, COUNT(*) N FROM CUSTOMERS C GROUP BY C.CITY" in
  let by_customer = "SELECT O.ORDERID, O.STATUS FROM ORDERS O WHERE O.CUSTOMERID = 2" in
  let rows sql =
    Result_set.to_rowset (Connection.execute_query conn sql)
  in
  let agree sql =
    match
      Rowset.diff_summary
        (Engine.execute_sql (Engine.env_of_application app) sql)
        (rows sql)
    with
    | None -> ()
    | Some msg -> Alcotest.failf "%s: %s" sql msg
  in
  let module T = Aqua_core.Telemetry in
  T.set_enabled true;
  Fun.protect ~finally:(fun () -> T.set_enabled false) @@ fun () ->
  List.iter agree [ customers_only; by_customer; customers_only; by_customer ];
  let before = Scan_cache.stats (Connection.scan_cache conn) in
  let built = T.value T.c_col_projected_columns
  and derived = T.value T.c_col_derived_columns
  and memo_hits = T.value T.c_col_projection_hits in
  Table.insert (physical app "ORDERS") (new_order 900001 2);
  agree customers_only;
  let after = Scan_cache.stats (Connection.scan_cache conn) in
  check_int "the CUSTOMERS scan is a hit" (before.Scan_cache.hits + 1)
    after.Scan_cache.hits;
  check_int "and no miss" before.Scan_cache.misses after.Scan_cache.misses;
  check_int "nothing is invalidated" before.Scan_cache.invalidations
    after.Scan_cache.invalidations;
  check_int "no column is built" built (T.value T.c_col_projected_columns);
  check_int "no cell column is derived" derived
    (T.value T.c_col_derived_columns);
  check_bool "the memo serves the columns" true
    (T.value T.c_col_projection_hits > memo_hits);
  agree by_customer;
  let orders = Scan_cache.stats (Connection.scan_cache conn) in
  check_int "the ORDERS scan is built for the new version"
    (after.Scan_cache.misses + 1) orders.Scan_cache.misses;
  check_int "and nothing is invalidated" after.Scan_cache.invalidations
    orders.Scan_cache.invalidations;
  check_int "the new order is seen" 1
    (List.length
       (List.filter
          (fun row -> row.(0) = Value.Int 900001)
          (rows by_customer).Rowset.rows))

(* A logical service's entry depends on the tables its body read,
   recorded on the miss — through a nested logical hit as well: an
   insert into another table leaves it resident, an insert into its
   own table makes it miss and the rerun sees the row, in both engines
   and at every batch size. *)
let logical_entry_dependencies () =
  let app = Artifact.application "App" in
  let table name =
    let t = Table.create name [ Schema.column ~nullable:false "ID" Sql_type.Integer ] in
    List.iter (fun i -> Table.insert t [ Value.Int i ]) [ 1; 2 ];
    ignore (Artifact.import_physical_table app ~project:"P" t);
    t
  in
  let t = table "T" and u = table "U" in
  let service name =
    Option.get (Artifact.find_service app ~path:"P" ~name)
  in
  let import prefix ds =
    { X.prefix; namespace = Artifact.namespace_of_service ds;
      location = Artifact.schema_location_of_service ds }
  in
  (* V reads T; W reads V *)
  let logical name ~over ~fn =
    ignore
      (Artifact.add_logical_service app ~project:"P" ~name
         [ { Artifact.fn_name = name; params = []; element_name = "T"; columns = [];
             body =
               Artifact.Logical
                 { imports = [ import "b" (service over) ];
                   body =
                     X.Flwor
                       { clauses = [ X.For { var = "r"; source = X.Call ("b:" ^ fn, []) } ];
                         return = X.Var "r" } } } ])
  in
  logical "V" ~over:"T" ~fn:"T";
  logical "W" ~over:"V" ~fn:"V";
  let query name =
    let ds = service name in
    Aqua_xquery.Parser.parse_query
      (Printf.sprintf
         "import schema namespace v = %S at %S;\nfor $x in v:%s() return $x"
         (Artifact.namespace_of_service ds)
         (Artifact.schema_location_of_service ds)
         name)
  in
  let servers = [ Server.create app; Server.create ~optimize:false app ] in
  let count srv name = List.length (Server.execute srv (query name)) in
  let stats srv = Scan_cache.stats (Server.scan_cache srv) in
  let sizes f =
    let module Batch = Aqua_xqeval.Batch in
    let prev = Batch.size () in
    Fun.protect ~finally:(fun () -> Batch.set_size prev) @@ fun () ->
    List.iter (fun n -> Batch.set_size n; f ()) [ 1; 7; 1024 ]
  in
  List.iter
    (fun srv ->
      (* V resident first, so W's miss finds it as a nested hit *)
      let n = Table.cardinality t in
      check_int "V cold" n (count srv "V");
      check_int "W cold" n (count srv "W");
      Table.insert u [ Value.Int (Table.cardinality u + 1) ];
      let s0 = stats srv in
      sizes (fun () ->
          check_int "V after a U insert" n (count srv "V");
          check_int "W after a U insert" n (count srv "W"));
      let s1 = stats srv in
      check_int "both stay resident" s0.Scan_cache.invalidations
        s1.Scan_cache.invalidations;
      check_int "and are hits" s0.Scan_cache.misses s1.Scan_cache.misses;
      let n = Table.cardinality t + 1 in
      Table.insert t [ Value.Int n ];
      sizes (fun () ->
          check_int "W after a T insert" n (count srv "W");
          check_int "V after a T insert" n (count srv "V"));
      let s2 = stats srv in
      check_bool "the T insert invalidated the views" true
        (s2.Scan_cache.invalidations >= s1.Scan_cache.invalidations + 2))
    servers

(* One read view per statement, at the table's kept lists.  A version
   serves one list to every call: direct calls, a logical body over the
   table and the interpreter alike.  A newer version extends the older
   list's elements, and a statement pinned at the older version is
   still served the older list.  A logical entry ahead of the pinned
   version is bypassed, and the result read at the older version never
   replaces it.  With the cache off, every call builds.  Counts the rows
   each serve returns. *)
let pinned_versions () =
  let app, t = tiny_app [ 1; 2; 3 ] in
  add_view app;
  let srv = Server.create app and oracle = Server.create ~optimize:false app in
  let stats () = Scan_cache.stats (Server.scan_cache srv) in
  (* hits, misses and invalidations since [s] *)
  let moved msg (h, m, i) s =
    let s' = stats () in
    Alcotest.(check (triple int int int))
      msg (h, m, i)
      ( s'.Scan_cache.hits - s.Scan_cache.hits,
        s'.Scan_cache.misses - s.Scan_cache.misses,
        s'.Scan_cache.invalidations - s.Scan_cache.invalidations )
  in
  let same_elements msg a b =
    check_bool msg true (List.length a = List.length b && List.for_all2 ( == ) a b)
  in
  let three = serve srv "T" in
  check_int "cold" 3 (List.length three);
  check_bool "a second call, the same list" true (serve srv "T" == three);
  check_bool "the interpreter's call, the same list" true
    (serve oracle "T" == three);
  same_elements "the view's body reads those elements" three (serve srv "V");
  let at3 = Table.pin [ t ] in
  Table.insert t [ Value.Int 4 ];
  Table.insert t [ Value.Int 5 ];
  let s = stats () in
  let five = serve srv "T" in
  check_int "a new version" 5 (List.length five);
  same_elements "extends the older list's elements" three
    (List.filteri (fun i _ -> i < 3) five);
  moved "a miss, nothing to invalidate" (0, 1, 0) s;
  let s = stats () in
  check_bool "the pinned version's list is still served" true
    (Table.within at3 (fun () -> serve srv "T") == three);
  moved "a hit" (1, 0, 0) s;
  (* the logical view V over T *)
  check_int "V at 5 rows" 5 (List.length (serve srv "V"));
  let s = stats () in
  check_int "V pinned at 3 rows" 3
    (List.length (Table.within at3 (fun () -> serve srv "V")));
  moved "V bypassed, T's pinned list served" (1, 1, 0) s;
  let s = stats () in
  check_int "V still at 5 rows" 5 (List.length (serve srv "V"));
  moved "the newer V stayed resident" (1, 0, 0) s;
  (* a direct store at an older version keeps the newer entry *)
  let c = Server.scan_cache srv in
  Scan_cache.store c "k" [ (t, 5) ] five;
  Scan_cache.store c "k" [ (t, 3) ] three;
  (match Scan_cache.lookup c "k" with
  | Some seq -> check_bool "store kept the newer entry" true (seq == five)
  | None -> Alcotest.fail "the newer entry was replaced");
  (* with the cache off, every call builds fresh elements *)
  let off = Server.create ~scan_cache:false app in
  check_bool "a disabled cache builds per call" true
    (serve off "T" != serve off "T")

(* A compiled-engine fault reruns the statement on the interpreter over
   the same scan cache, but a logical function's materialized result
   depends on which engine produced it (the whole point of the rerun
   is to distrust the compiled engine), so logical entries are keyed
   per engine while physical scans — engine-independent base data —
   stay shared. *)
let fallback_logical_independence () =
  let app, _ = tiny_app [ 1; 2 ] in
  let base =
    match Artifact.find_service app ~path:"P" ~name:"T" with
    | Some ds -> ds
    | None -> Alcotest.fail "physical service missing"
  in
  let imports =
    [
      {
        X.prefix = "b";
        namespace = Artifact.namespace_of_service base;
        location = Artifact.schema_location_of_service base;
      };
    ]
  in
  let body =
    X.Flwor
      {
        clauses = [ X.For { var = "r"; source = X.Call ("b:T", []) } ];
        return = X.Var "r";
      }
  in
  ignore
    (Artifact.add_logical_service app ~project:"P" ~name:"V"
       [
         {
           Artifact.fn_name = "V";
           params = [];
           element_name = "T";
           columns = [];
           body = Artifact.Logical { imports; body };
         };
       ]);
  let view_ds =
    match Artifact.find_service app ~path:"P" ~name:"V" with
    | Some ds -> ds
    | None -> Alcotest.fail "logical service missing"
  in
  let q =
    Aqua_xquery.Parser.parse_query
      (Printf.sprintf
         "import schema namespace v = %S at %S;\nfor $x in v:V() return $x"
         (Artifact.namespace_of_service view_ds)
         (Artifact.schema_location_of_service view_ds))
  in
  let srv = Server.create app in
  let run () = ignore (Server.execute srv q) in
  let stats () = Scan_cache.stats (Server.scan_cache srv) in
  run ();
  let s1 = stats () in
  (* the compiled run faults at its first batch, with the view's
     compiled rows resident; the server reruns the statement on the
     interpreter, which recomputes the logical view (a fresh miss) but
     reuses the physical scan it reads from (a hit) *)
  let (), fallbacks =
    Helpers.with_failpoints "xqeval.batch=at(1)" (fun () ->
        Helpers.counting_fallbacks run)
  in
  check_int "one interpreter rerun" 1 fallbacks;
  let s2 = stats () in
  check_int "logical view recomputed per engine" (s1.Scan_cache.misses + 1)
    s2.Scan_cache.misses;
  check_int "physical scan reused across engines" (s1.Scan_cache.hits + 1)
    s2.Scan_cache.hits;
  (* same engine twice: the logical entry itself is warm *)
  run ();
  let s3 = stats () in
  check_int "same-engine serve is a hit" (s2.Scan_cache.hits + 1)
    s3.Scan_cache.hits;
  check_int "no new miss" s2.Scan_cache.misses s3.Scan_cache.misses

let disabled_is_inert () =
  let app = Artifact.application "App" in
  let c = Scan_cache.create ~enabled:false app in
  Scan_cache.store c "k" no_tables [ Item.Atomic (Atomic.Integer 1) ];
  check_bool "disabled cache never hits" true (not (hit c "k"));
  let s = Scan_cache.stats c in
  check_int "no entries" 0 s.Scan_cache.entries;
  check_int "no counters" 0 (s.Scan_cache.hits + s.Scan_cache.misses)

(* ------------------------------------------------------------------ *)
(* Fallback reruns reuse the cache                                    *)

let fallback_hits_cache () =
  let app = Helpers.demo_app () in
  let sql =
    "SELECT A.CUSTOMERNAME, B.CUSTOMERNAME FROM CUSTOMERS A, CUSTOMERS B \
     WHERE A.CUSTOMERID = B.CUSTOMERID"
  in
  let oracle = Engine.execute_sql (Engine.env_of_application app) sql in
  (* crash the optimized plan at its first hash-join evaluation; the
     server reruns the statement on the interpreter, which must find
     the scans the crashed run already materialized *)
  Helpers.with_failpoints "xqeval.hashjoin=at(1)" @@ fun () ->
  let conn = Connection.connect app in
  let rs = Connection.execute_query conn sql in
  (match Rowset.diff_summary oracle (Result_set.to_rowset rs) with
  | None -> ()
  | Some msg -> Alcotest.failf "fallback produced wrong rows: %s" msg);
  let s = Scan_cache.stats (Connection.scan_cache conn) in
  check_int "scan fetched exactly once across crash + rerun" 1
    s.Scan_cache.misses;
  check_bool "fallback rerun served from the cache" true (s.Scan_cache.hits > 0)

(* ------------------------------------------------------------------ *)
(* Differential: cache on vs off vs baseline engine                   *)

let differential_fixed () =
  let app = Helpers.demo_app () in
  List.iter
    (fun sql ->
      (* default connect has the cache on; helpers diff it against the
         baseline engine *)
      Helpers.assert_differential app sql;
      (* and cache-on vs cache-off through the driver must agree *)
      let rows cache =
        let conn = Connection.connect ~scan_cache:cache app in
        ignore (Connection.execute_query conn sql);
        (* second run hits the cache when enabled *)
        Result_set.to_rowset (Connection.execute_query conn sql)
      in
      match Rowset.diff_summary (rows false) (rows true) with
      | None -> ()
      | Some msg -> Alcotest.failf "cache divergence on %s: %s" sql msg)
    [
      "SELECT A.CUSTOMERNAME, B.CUSTOMERNAME FROM CUSTOMERS A, CUSTOMERS B \
       WHERE A.CUSTOMERID = B.CUSTOMERID";
      "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN \
       (SELECT CUSTOMERID FROM PO_CUSTOMERS)";
      "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P \
       WHERE C.CUSTOMERID = P.CUSTID AND P.PAYMENT > 100";
      "SELECT CITY, COUNT(*) FROM CUSTOMERS GROUP BY CITY";
    ]

let differential_random =
  QCheck.Test.make ~count:60 ~name:"scan cache differential (random SQL)"
    QCheck.(make Gen.(int_bound 1_000_000))
    (fun seed ->
      let app =
        Datagen.application
          { Datagen.customers = 10; orders = 18; lines_per_order = 2;
            payments = 12 }
      in
      let tables = Metadata.list_tables app in
      let st = Random.State.make [| seed |] in
      let sql =
        Querygen.generate_sql ~profile:Querygen.reporting_profile st tables
      in
      let run cache =
        let conn = Connection.connect ~scan_cache:cache app in
        ignore (Connection.execute_query conn sql);
        Result_set.to_rowset (Connection.execute_query conn sql)
      in
      match (run true, run false) with
      | on, off -> (
        match Rowset.diff_summary off on with
        | None -> true
        | Some msg -> QCheck.Test.fail_reportf "divergence on %s: %s" sql msg)
      | exception Aqua_resilience.Sqlstate.Error _ ->
        (* generator can produce statements the engine rejects; both
           sides raising identically is covered by the main
           differential suite *)
        true)

(* ------------------------------------------------------------------ *)
(* Group-key injectivity (regression: flat "\x01" concat collided)    *)

let composite_of_strings parts =
  Group_key.composite
    (List.map (fun s -> [ Item.Atomic (Atomic.String s) ]) parts)

let group_key_collision () =
  (* under the old encoding ("\x01"-joined hash keys) these two
     distinct key tuples produced the same string:
       "s" ^ "x\x01sy" ^ "\x01" ^ "s" ^ "z"
     = "s" ^ "x"       ^ "\x01" ^ "s" ^ "y\x01sz"  *)
  let a = composite_of_strings [ "x\x01sy"; "z" ] in
  let b = composite_of_strings [ "x"; "y\x01sz" ] in
  check_bool "separator bytes cannot collide" false (a = b);
  (* empty sequence, empty string and the literal "e" are all distinct *)
  let empty_seq = Group_key.composite [ [] ] in
  let empty_str = composite_of_strings [ "" ] in
  let lit_e = composite_of_strings [ "e" ] in
  check_bool "() vs ''" false (empty_seq = empty_str);
  check_bool "() vs 'e'" false (empty_seq = lit_e);
  (* arity is part of the key *)
  check_bool "('a','b') vs ('a;b')" false
    (composite_of_strings [ "a"; "b" ] = composite_of_strings [ "a;b" ])

(* End to end: a group-by whose keys contain the old separator must
   keep the two rows in different groups, in both evaluators. *)
let group_by_adversarial_keys () =
  let row a b =
    X.Elem
      {
        name = "r";
        content =
          [
            X.Elem { name = "a"; content = [ X.Text a ] };
            X.Elem { name = "b"; content = [ X.Text b ] };
          ];
      }
  in
  let step n = { X.name = n; predicates = [] } in
  let e =
    X.Flwor
      {
        clauses =
          [
            X.For
              { var = "p"; source = X.Seq [ row "x\x01sy" "z"; row "x" "y\x01sz" ] };
            X.Group
              {
                grouped = "p";
                partition = "g";
                keys =
                  [
                    (X.Path (X.Var "p", [ step "a" ]), "ka");
                    (X.Path (X.Var "p", [ step "b" ]), "kb");
                  ];
              };
          ];
        return = X.Call ("fn:count", [ X.Var "g" ]);
      }
  in
  let groups_via f = List.length (f e) in
  let ctx = Eval.context () in
  check_int "interpreter (optimized)" 2
    (groups_via (fun e -> Eval.eval ctx (fst (Optimize.expr e))));
  check_int "interpreter (naive)" 2 (groups_via (Eval.eval ctx));
  check_int "compiler" 2
    (List.length (Compile.run (Compile.compile_expr e)));
  check_int "compiler (naive)" 2
    (List.length (Compile.run (Compile.compile_expr ~optimize:false e)))

let group_key_injective_random =
  QCheck.Test.make ~count:300 ~name:"group key encoding is injective"
    QCheck.(
      pair
        (small_list (small_list (string_gen_of_size Gen.(int_bound 6) Gen.(map Char.chr (int_range 0 127)))))
        (small_list (small_list (string_gen_of_size Gen.(int_bound 6) Gen.(map Char.chr (int_range 0 127))))))
    (fun (a, b) ->
      let lift tuple =
        List.map
          (fun atoms -> List.map (fun s -> Item.Atomic (Atomic.String s)) atoms)
          tuple
      in
      a = b
      || Group_key.composite (lift a) <> Group_key.composite (lift b))

(* The cache keeps its payoff: a self-join whose filter holds an
   uncorrelated IN (three data-service calls per statement), rerun warm,
   allocates at least twice the words without the scan cache as with
   it, at two scales. *)
let warm_payoff () =
  let sql =
    "SELECT A.CUSTOMERNAME, B.CITY FROM CUSTOMERS A, CUSTOMERS B WHERE \
     A.CUSTOMERID = B.CUSTOMERID AND B.TIER > 1 AND A.CUSTOMERID IN \
     (SELECT CUSTOMERID FROM ORDERS WHERE PRIORITY > 2)"
  in
  List.iter
    (fun (customers, orders, lines_per_order, payments) ->
      let app =
        Datagen.application ~seed:42 { customers; orders; lines_per_order; payments }
      in
      let words scan_cache =
        let conn = Connection.connect ~scan_cache app in
        Helpers.minor_words (fun () -> Connection.execute_query conn sql)
      in
      let cached = words true and uncached = words false in
      if uncached < 2. *. cached then
        Alcotest.failf
          "%d CUSTOMERS, %d ORDERS: %.0f words without the scan cache, %.0f \
           with it (floor 2x)"
          customers orders uncached cached)
    [ (30, 40, 2, 20); (300, 400, 2, 200) ]

let suite =
  ( "scan_cache",
    [
      Helpers.case "read view: one list per pinned version" pinned_versions;
      Helpers.case "self-join semantics preserved" self_join_semantics;
      Helpers.case "warm run hits the cache" warm_hits;
      Helpers.case "revision bump invalidates" revision_invalidation;
      Helpers.case "direct revision flush" direct_revision_flush;
      Helpers.case "entry and byte budgets evict LRU" budget_eviction;
      Helpers.case "budget charges warm and cold alike" serve_budget_symmetry;
      Helpers.case "insert invalidates result caches" insert_invalidates;
      Helpers.case "an insert invalidates only what read its table"
        insert_invalidates_own_table;
      Helpers.case "logical entries depend on the tables they read"
        logical_entry_dependencies;
      Helpers.case "fallback keyed per evaluator" fallback_logical_independence;
      Helpers.case "disabled cache is inert" disabled_is_inert;
      Helpers.case "a warm rerun allocates half the words with the cache"
        warm_payoff;
      Helpers.case "fallback rerun hits the cache" fallback_hits_cache;
      Helpers.case "differential: fixed queries" differential_fixed;
      Helpers.qcheck differential_random;
      Helpers.case "group-key collision regression" group_key_collision;
      Helpers.case "group-by with adversarial keys" group_by_adversarial_keys;
      Helpers.qcheck group_key_injective_random;
    ] )
