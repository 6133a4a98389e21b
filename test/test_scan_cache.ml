(* Scan materialization, both levels: the optimizer's per-plan
   shared-scan hoist and the cross-query revision-aware scan cache —
   plus the group-key injectivity regression that rode along (the flat
   separator-joined encoding collided on keys containing the
   separator). *)

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

(* ------------------------------------------------------------------ *)
(* Optimizer hoist goldens                                            *)

let scan name = X.Call (name, [])

let pair a b = X.Seq [ a; b ]

let hoist_goldens () =
  (* two occurrences of the same data-service scan: hoisted into one
     shared let at the top *)
  let e = pair (scan "ns0:T") (scan "ns0:T") in
  let opt, report = Optimize.expr e in
  check_int "one shared scan" 1 report.Optimize.shared_scans;
  (match opt with
  | X.Flwor
      {
        clauses = [ X.Let { var; value = X.Call ("ns0:T", []) } ];
        return = X.Seq [ X.Var v1; X.Var v2 ];
      } ->
    Alcotest.(check string) "hoisted var" (Optimize.scan_var "ns0:T") var;
    Alcotest.(check string) "first use" var v1;
    Alcotest.(check string) "second use" var v2
  | _ -> Alcotest.fail "expected a wrapping FLWOR with one shared let");
  (* a single occurrence is left alone *)
  let opt, report = Optimize.expr (scan "ns0:T") in
  check_int "single scan not hoisted" 0 report.Optimize.shared_scans;
  (match opt with
  | X.Call ("ns0:T", []) -> ()
  | _ -> Alcotest.fail "single scan must stay in place");
  (* parameterless BUILT-INS are not scans, however often repeated *)
  let e = pair (scan "fn:true") (scan "fn:true") in
  let _, report = Optimize.expr e in
  check_int "builtins never hoisted" 0 report.Optimize.shared_scans;
  (* parameterized calls are not cacheable scans *)
  let c = X.Call ("ns0:F", [ X.Literal (Atomic.Integer 1) ]) in
  let _, report = Optimize.expr (pair c c) in
  check_int "parameterized calls never hoisted" 0 report.Optimize.shared_scans;
  (* the toggle: ~share_scans:false leaves everything in place *)
  let e = pair (scan "ns0:T") (scan "ns0:T") in
  let opt, report = Optimize.expr ~share_scans:false e in
  check_int "toggle off" 0 report.Optimize.shared_scans;
  check_bool "ast unchanged" true (opt = e);
  (* occurrences inside FLWOR clauses are found and substituted *)
  let e =
    X.Flwor
      {
        clauses =
          [
            X.For { var = "a"; source = scan "ns0:T" };
            X.For { var = "b"; source = scan "ns0:T" };
          ];
        return = X.Var "a";
      }
  in
  let opt, report = Optimize.expr e in
  check_int "for-sources shared" 1 report.Optimize.shared_scans;
  (match opt with
  | X.Flwor { clauses = X.Let _ :: _; _ } -> ()
  | _ -> Alcotest.fail "expected the shared let to wrap the plan");
  (* laziness guard: a scan whose every occurrence hides in if-branches
     is never hoisted — eager evaluation could invoke a breaker-open or
     failing service the plan would never have touched *)
  let cond = X.Literal (Atomic.Boolean false) in
  let e = X.If (cond, scan "ns0:T", scan "ns0:T") in
  let opt, report = Optimize.expr e in
  check_int "branch-only scans stay lazy" 0 report.Optimize.shared_scans;
  check_bool "conditional ast unchanged" true (opt = e);
  (* ...but one always-evaluated occurrence anchors the hoist: the plan
     was going to invoke the service anyway, sharing only reduces calls *)
  let e = pair (scan "ns0:T") (X.If (cond, scan "ns0:T", X.Seq [])) in
  let _, report = Optimize.expr e in
  check_int "anchored scan hoisted" 1 report.Optimize.shared_scans;
  (* a lazily-built hash-join side alone is conditional; paired with an
     anchored for-source it shares the anchor's materialization *)
  let e =
    X.Flwor
      {
        clauses =
          [
            X.For { var = "a"; source = scan "ns0:T" };
            X.Hash_join
              {
                var = "b";
                source = scan "ns0:T";
                build_key = X.Var "b";
                probe_key = X.Var "a";
                value_cmp = false;
              };
          ];
        return = X.Var "a";
      }
  in
  let _, report = Optimize.expr e in
  check_int "join build shares the anchored scan" 1
    report.Optimize.shared_scans

(* The hoist must be semantics-preserving on executable queries: a
   self-join through the server returns the same rows with the cache
   on and off, through interpreter and compiler alike. *)
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
  check_bool "entry resident" true (s2.Scan_cache.entries = 1);
  check_bool "bytes accounted" true (s2.Scan_cache.bytes > 0)

let revision_invalidation () =
  let app = Helpers.demo_app () in
  let conn = Connection.connect app in
  let sql = "SELECT CUSTOMERNAME FROM CUSTOMERS" in
  ignore (Connection.execute_query conn sql);
  ignore (Connection.execute_query conn sql);
  let before = Scan_cache.stats (Connection.scan_cache conn) in
  check_bool "warm before the bump" true (before.Scan_cache.hits > 0);
  (* a metadata change bumps the application revision: every resident
     scan must be dropped before the next serve *)
  ignore (Artifact.add_logical_service app ~project:"Aux" ~name:"NOOP" []);
  ignore (Connection.execute_query conn sql);
  let after = Scan_cache.stats (Connection.scan_cache conn) in
  check_bool "entries were invalidated, not evicted" true
    (after.Scan_cache.invalidations > before.Scan_cache.invalidations);
  check_int "no capacity evictions" before.Scan_cache.evictions
    after.Scan_cache.evictions;
  check_int "rerun re-fetches (a miss, not a stale hit)"
    (before.Scan_cache.misses + 1) after.Scan_cache.misses;
  check_int "no hit served across the bump" before.Scan_cache.hits
    after.Scan_cache.hits

let direct_revision_flush () =
  let app = Artifact.application "App" in
  let c = Scan_cache.create app in
  Scan_cache.store c "k" [ Item.Atomic (Atomic.Integer 1) ];
  check_bool "hit before bump" true (Scan_cache.find c "k" <> None);
  ignore (Artifact.add_logical_service app ~project:"P" ~name:"S" []);
  check_bool "miss after bump" true (Scan_cache.find c "k" = None);
  let s = Scan_cache.stats c in
  check_int "flushed entry counted as invalidation" 1 s.Scan_cache.invalidations;
  check_int "resident bytes back to zero" 0 s.Scan_cache.bytes

let budget_eviction () =
  let app = Artifact.application "App" in
  let c = Scan_cache.create ~max_entries:2 app in
  let seq n = [ Item.Atomic (Atomic.Integer n) ] in
  Scan_cache.store c "a" (seq 1);
  Scan_cache.store c "b" (seq 2);
  ignore (Scan_cache.find c "a");
  (* "b" is now least-recently used; a third entry evicts it *)
  Scan_cache.store c "c" (seq 3);
  check_bool "lru entry evicted" true (Scan_cache.find c "b" = None);
  check_bool "recent entry kept" true (Scan_cache.find c "a" <> None);
  check_bool "new entry kept" true (Scan_cache.find c "c" <> None);
  check_int "one eviction" 1 (Scan_cache.stats c).Scan_cache.evictions;
  (* byte budget: entries are dropped until resident bytes fit *)
  let big = Scan_cache.create ~max_bytes:200 app in
  let payload tag = [ Item.Atomic (Atomic.String (String.make 80 tag)) ] in
  Scan_cache.store big "x" (payload 'x');
  Scan_cache.store big "y" (payload 'y');
  Scan_cache.store big "z" (payload 'z');
  check_bool "byte budget enforced" true
    ((Scan_cache.stats big).Scan_cache.bytes <= 200);
  check_bool "byte budget evicted" true
    ((Scan_cache.stats big).Scan_cache.evictions > 0);
  (* an oversized result is served but never admitted *)
  let capped = Scan_cache.create ~max_rows:2 app in
  Scan_cache.store capped "wide"
    [ Item.Atomic (Atomic.Integer 1); Item.Atomic (Atomic.Integer 2);
      Item.Atomic (Atomic.Integer 3) ];
  check_int "oversized result not resident" 0
    (Scan_cache.stats capped).Scan_cache.entries

(* A one-table application small enough to reason about exact row and
   budget counts. *)
let tiny_app rows =
  let app = Artifact.application "App" in
  let schema = [ Schema.column ~nullable:false "ID" Sql_type.Integer ] in
  let t = Table.create "T" schema in
  List.iter (fun i -> Table.insert t [ Value.Int i ]) rows;
  ignore (Artifact.import_physical_table app ~project:"P" t);
  (app, t)

let serve_rows srv = Server.call_function srv ~path:"P" ~name:"T" ~fn:"T" []

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

(* Data changes must invalidate result caches: inserting a row bumps
   the table version, which moves the application's data revision, so
   both the scan cache and the baseline engine's table memo re-fetch. *)
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
  check_bool "insert invalidated resident scans" true
    (after.Scan_cache.invalidations > warm.Scan_cache.invalidations);
  (* the baseline engine's table-resolution memo obeys the same signal *)
  let env = Engine.env_of_application app in
  check_int "engine cold read" 3
    (List.length (Engine.execute_sql env sql).Rowset.rows);
  Table.insert table [ Value.Int 4 ];
  check_int "engine read after insert" 4
    (List.length (Engine.execute_sql env sql).Rowset.rows)

(* The optimized and fallback servers share one cache, but a logical
   function's materialized result depends on which evaluator produced
   it (the whole point of the fallback is to distrust the optimizer),
   so logical entries are keyed per evaluator flavor while physical
   scans — evaluator-independent base data — stay shared. *)
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
  let cache = Scan_cache.create app in
  let opt = Server.create ~cache app in
  let unopt = Server.create ~optimize:false ~cache app in
  let view srv = Server.call_function srv ~path:"P" ~name:"V" ~fn:"V" [] in
  ignore (view opt);
  let s1 = Scan_cache.stats cache in
  ignore (view unopt);
  let s2 = Scan_cache.stats cache in
  (* the fallback rerun recomputes the logical view (a fresh miss) but
     reuses the physical scan it reads from (a hit) *)
  check_int "logical view recomputed per evaluator"
    (s1.Scan_cache.misses + 1) s2.Scan_cache.misses;
  check_int "physical scan reused across evaluators"
    (s1.Scan_cache.hits + 1) s2.Scan_cache.hits;
  (* same evaluator twice: the logical entry itself is warm *)
  ignore (view opt);
  let s3 = Scan_cache.stats cache in
  check_int "same-evaluator serve is a hit" (s2.Scan_cache.hits + 1)
    s3.Scan_cache.hits;
  check_int "no new miss" s2.Scan_cache.misses s3.Scan_cache.misses

let disabled_is_inert () =
  let app = Artifact.application "App" in
  let c = Scan_cache.create ~enabled:false app in
  Scan_cache.store c "k" [ Item.Atomic (Atomic.Integer 1) ];
  check_bool "disabled cache never hits" true (Scan_cache.find c "k" = None);
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
     driver degrades to the unoptimized server, which must find the
     scans the crashed run already materialized *)
  Failpoint.arm "xqeval.hashjoin=at(1)";
  Fun.protect ~finally:Failpoint.disarm @@ fun () ->
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

let suite =
  ( "scan_cache",
    [
      Helpers.case "optimizer hoist goldens" hoist_goldens;
      Helpers.case "self-join semantics preserved" self_join_semantics;
      Helpers.case "warm run hits the cache" warm_hits;
      Helpers.case "revision bump invalidates" revision_invalidation;
      Helpers.case "direct revision flush" direct_revision_flush;
      Helpers.case "entry and byte budgets evict LRU" budget_eviction;
      Helpers.case "budget charges warm and cold alike" serve_budget_symmetry;
      Helpers.case "insert invalidates result caches" insert_invalidates;
      Helpers.case "fallback keyed per evaluator" fallback_logical_independence;
      Helpers.case "disabled cache is inert" disabled_is_inert;
      Helpers.case "fallback rerun hits the cache" fallback_hits_cache;
      Helpers.case "differential: fixed queries" differential_fixed;
      Helpers.qcheck differential_random;
      Helpers.case "group-key collision regression" group_key_collision;
      Helpers.case "group-by with adversarial keys" group_by_adversarial_keys;
      Helpers.qcheck group_key_injective_random;
    ] )
