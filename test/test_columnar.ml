(* The columnar (struct-of-arrays) batch engine against the
   interpreter oracle ([~optimize:false], DESIGN.md section 16) and,
   where a battery says so, the SQL reference engine.  The compiled
   plans must be observationally identical at every edge batch size —
   including NULL-heavy aggregation over LEFT OUTER JOIN, empty groups
   and non-kernelizable group shapes — while governors still trip at
   batch boundaries, batch faults still degrade gracefully, the
   columnar counters stay silent under the interpreter, and
   required-column pruning is visible in the optimizer's plan notes. *)

module Connection = Aqua_driver.Connection
module Result_set = Aqua_driver.Result_set
module Rowset = Aqua_relational.Rowset
module Schema = Aqua_relational.Schema
module Sql_type = Aqua_relational.Sql_type
module Table = Aqua_relational.Table
module Value = Aqua_relational.Value
module Artifact = Aqua_dsp.Artifact
module Scan_cache = Aqua_dsp.Scan_cache
module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item
module Batch = Aqua_xqeval.Batch
module Join_table = Aqua_xqeval.Join_table
module Kernels = Aqua_xqeval.Kernels
module Optimize = Aqua_xqeval.Optimize
module Budget = Aqua_resilience.Budget
module Failpoint = Aqua_resilience.Failpoint
module Sqlstate = Aqua_resilience.Sqlstate
module Telemetry = Aqua_core.Telemetry
module Translator = Aqua_translator.Translator

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let edge_sizes = [ 1; 2; 7; 1024 ]

let with_batch_size n f =
  let prev = Batch.size () in
  Batch.set_size n;
  Fun.protect ~finally:(fun () -> Batch.set_size prev) f

let with_failpoints = Helpers.with_failpoints

let with_telemetry f =
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) f

let run conn sql =
  match Result_set.to_rowset (Connection.execute_query conn sql) with
  | rs -> Ok rs
  | exception e -> Error (Printexc.to_string e)

let agree ~what sql col oracle =
  match (col, oracle) with
  | Ok c, Ok o -> (
    match Rowset.diff_summary o c with
    | None -> ()
    | Some msg ->
      Alcotest.failf "%s diverged on %s: %s\n-- oracle:\n%s\n-- columnar:\n%s"
        what sql msg (Rowset.to_string o) (Rowset.to_string c))
  | Error _, Error _ -> ()
  | Ok _, Error e ->
    Alcotest.failf "%s: oracle raised (%s) but columnar succeeded on %s" what e
      sql
  | Error e, Ok _ ->
    Alcotest.failf "%s: columnar raised (%s) but oracle succeeded on %s" what e
      sql

(* --------------------------------------------------------------- *)
(* Fixed batteries at every edge batch size.                        *)

let battery_at_size size () =
  let app = Helpers.demo_app () in
  let col = Connection.connect app in
  let interp = Connection.connect ~optimize:false app in
  with_batch_size size @@ fun () ->
  List.iter
    (fun sql ->
      agree ~what:(Printf.sprintf "battery@%d" size) sql (run col sql)
        (run interp sql))
    Test_differential.battery

(* Aggregation shapes the kernel path must cover: every kernel kind,
   the SUM-over-NULL fusion via LEFT OUTER JOIN (groups whose slices
   hold only empty payment columns), groups keyed by a nullable
   column, empty group sets after an always-false filter, and
   post-aggregation ORDER BY over kernel outputs. *)
let agg_queries =
  [ "SELECT C.CUSTOMERID, COUNT(*) N FROM CUSTOMERS C GROUP BY C.CUSTOMERID";
    "SELECT P.CUSTID, COUNT(*) N, SUM(P.PAYMENT) S, AVG(P.PAYMENT) A, \
     MIN(P.PAYMENT) MN, MAX(P.PAYMENT) MX FROM PAYMENTS P GROUP BY P.CUSTID";
    "SELECT C.CUSTOMERID, COUNT(P.PAYMENTID) N, SUM(P.PAYMENT) S FROM \
     CUSTOMERS C LEFT OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID \
     GROUP BY C.CUSTOMERID";
    "SELECT C.CITY, COUNT(*) N, MIN(C.TIER) MN, MAX(C.TIER) MX FROM \
     CUSTOMERS C GROUP BY C.CITY";
    "SELECT O.STATUS, COUNT(*) N, SUM(O.AMOUNT) S FROM PO_CUSTOMERS O \
     GROUP BY O.STATUS ORDER BY O.STATUS";
    "SELECT P.CUSTID, COUNT(*) N, SUM(P.PAYMENT) S FROM PAYMENTS P \
     WHERE P.PAYMENT > 100000 GROUP BY P.CUSTID";
    "SELECT C.TIER, AVG(C.CUSTOMERID) A FROM CUSTOMERS C GROUP BY C.TIER";
    "SELECT C.CITY, MAX(C.CUSTOMERNAME) MX FROM CUSTOMERS C GROUP BY C.CITY" ]

let aggregation_battery () =
  let app = Helpers.demo_app () in
  let col = Connection.connect app in
  let interp = Connection.connect ~optimize:false app in
  List.iter
    (fun size ->
      with_batch_size size @@ fun () ->
      List.iter
        (fun sql ->
          agree ~what:(Printf.sprintf "agg@%d" size) sql (run col sql)
            (run interp sql))
        agg_queries)
    edge_sizes

(* --------------------------------------------------------------- *)
(* Randomized differential sweep, columnar vs the interpreter.       *)

let bench_app = lazy (
  Aqua_workload.Datagen.application
    { Aqua_workload.Datagen.customers = 12; orders = 25; lines_per_order = 2;
      payments = 18 })

let prop_columnar_differential =
  let app = Lazy.force bench_app in
  let tables = Aqua_dsp.Metadata.list_tables app in
  let col = Connection.connect app in
  let interp = Connection.connect ~optimize:false app in
  QCheck.Test.make ~name:"random statements agree at every batch size"
    ~count:60
    QCheck.(
      make
        (fun rand -> Aqua_workload.Querygen.generate rand tables)
        ~print:Aqua_sql.Pretty.statement_to_string)
    (fun stmt ->
      let sql = Aqua_sql.Pretty.statement_to_string stmt in
      let expected = run interp sql in
      List.iter
        (fun size ->
          with_batch_size size @@ fun () ->
          agree ~what:(Printf.sprintf "qcheck@%d" size) sql (run col sql)
            expected)
        edge_sizes;
      true)

(* --------------------------------------------------------------- *)
(* Governors trip at batch boundaries under the columnar layout.     *)

let sqlstate_of_query conn sql =
  match Connection.execute_query conn sql with
  | exception Sqlstate.Error e -> e.Sqlstate.sqlstate
  | _ -> Alcotest.fail "expected the governor to trip"

let governors_under_columnar () =
  let app = Helpers.demo_app () in
  let sql =
    "SELECT P.CUSTID, SUM(P.PAYMENT) S FROM PAYMENTS P GROUP BY P.CUSTID"
  in
  List.iter
    (fun size ->
      with_batch_size size @@ fun () ->
      let fuel =
        Connection.connect ~limits:(Budget.limits ~max_fuel:10 ()) app
      in
      Alcotest.(check string)
        (Printf.sprintf "fuel governor @%d" size)
        "53000" (sqlstate_of_query fuel sql);
      let rows =
        Connection.connect
          ~limits:(Budget.limits ~max_rows:2 ())
          app
      in
      Alcotest.(check string)
        (Printf.sprintf "row governor @%d" size)
        "53400"
        (sqlstate_of_query rows "SELECT * FROM CUSTOMERS");
      let deadline =
        Connection.connect ~limits:(Budget.limits ~timeout_ms:0 ()) app
      in
      Alcotest.(check string)
        (Printf.sprintf "deadline probed at batch boundary @%d" size)
        "57014" (sqlstate_of_query deadline sql))
    [ 1; 7; 1024 ]

(* A batch fault at a boundary mid-aggregation degrades to the
   interpreter rerun and still produces the oracle rows. *)
let midstream_failpoint_falls_back () =
  let app = Helpers.demo_app () in
  let sql =
    "SELECT P.CUSTID, COUNT(*) N, SUM(P.PAYMENT) S FROM PAYMENTS P \
     GROUP BY P.CUSTID"
  in
  let oracle =
    Aqua_sqlengine.Engine.execute_sql
      (Aqua_sqlengine.Engine.env_of_application app)
      sql
  in
  with_batch_size 2 @@ fun () ->
  with_telemetry @@ fun () ->
  with_failpoints "xqeval.batch=at(2)" @@ fun () ->
  let conn = Connection.connect app in
  let rs = Connection.execute_query conn sql in
  (match Rowset.diff_summary oracle (Result_set.to_rowset rs) with
  | None -> ()
  | Some msg -> Alcotest.failf "mid-stream fallback wrong rows: %s" msg);
  check_bool "the batch fault actually fired" true
    (Telemetry.value Telemetry.c_faults_injected >= 1)

(* --------------------------------------------------------------- *)
(* Counter hygiene, both directions: the interpreter leaves the
   xqeval.columnar.* counters untouched; the compiled engine moves
   them and the xqeval.batch.* family in step.                       *)

let columnar_counters_respect_toggle () =
  let app = Helpers.demo_app () in
  let sql =
    "SELECT P.CUSTID, SUM(P.PAYMENT) S FROM PAYMENTS P \
     WHERE P.PAYMENT > 50 GROUP BY P.CUSTID"
  in
  with_telemetry @@ fun () ->
  let interp = Connection.connect ~optimize:false app in
  ignore (Connection.execute_query interp sql);
  let m = Telemetry.snapshot () in
  check_int "no columnar batches under the interpreter" 0
    m.Telemetry.columnar_batches;
  check_int "no columnar rows under the interpreter" 0
    m.Telemetry.columnar_rows;
  check_int "no pruning under the interpreter" 0
    m.Telemetry.columnar_pruned_columns;
  check_int "no kernel updates under the interpreter" 0
    m.Telemetry.columnar_kernel_updates;
  Telemetry.reset ();
  let col = Connection.connect app in
  ignore (Connection.execute_query col sql);
  let m = Telemetry.snapshot () in
  check_bool "columnar run pushes columnar batches" true
    (m.Telemetry.columnar_batches > 0);
  check_bool "columnar run carries rows" true (m.Telemetry.columnar_rows > 0);
  check_int "columnar batches also count as batch traffic"
    m.Telemetry.columnar_batches m.Telemetry.batch_batches;
  check_int "columnar rows also count as batch rows" m.Telemetry.columnar_rows
    m.Telemetry.batch_rows;
  check_bool "the aggregation ran through kernels" true
    (m.Telemetry.columnar_kernel_updates > 0);
  check_bool "the where filter dropped rows in-batch" true
    (m.Telemetry.batch_filtered > 0)

(* --------------------------------------------------------------- *)
(* Pruning goldens: the optimizer report names the columnar pipeline
   shape — kernels selected per group clause, columns carried vs
   pruned per expander.                                              *)

let pruning_notes_golden () =
  let app = Helpers.demo_app () in
  let notes sql =
    let t = Helpers.translate app sql in
    let optimized, report = Optimize.query t.Aqua_translator.Translator.xquery in
    String.concat "\n"
      (report.Optimize.notes
      @ Aqua_xqeval.Compile.shape
          (Aqua_xqeval.Compile.compile ~optimize:false
             ~resolve:(fun _ -> Some (fun _ -> []))
             optimized))
  in
  let agg =
    "SELECT P.CUSTID, COUNT(*) N, SUM(P.PAYMENT) S FROM PAYMENTS P \
     GROUP BY P.CUSTID"
  in
  let s = notes agg in
  Helpers.assert_contains ~needle:"columnar layout: one value vector" s;
  Helpers.assert_contains ~needle:"kernels [" s;
  Helpers.assert_contains ~needle:"count" s;
  Helpers.assert_contains ~needle:"sum?" s;
  Helpers.assert_contains ~needle:"partition not materialized" s;
  let join =
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C, PAYMENTS P \
     WHERE C.CUSTOMERID = P.CUSTID"
  in
  let s = notes join in
  Helpers.assert_contains ~needle:"columnar:" s;
  Helpers.assert_contains ~needle:"(pruned" s

(* Kernel recognition bails to the materializing path when the
   partition escapes the aggregate shapes — and the results agree
   either way. *)
let non_kernelizable_group_agrees () =
  let app = Helpers.demo_app () in
  (* DISTINCT inside the aggregate materializes the partition *)
  let sql =
    "SELECT P.CUSTID, COUNT(DISTINCT P.PAYMENT) N FROM PAYMENTS P \
     GROUP BY P.CUSTID"
  in
  let col = Connection.connect app in
  let interp = Connection.connect ~optimize:false app in
  List.iter
    (fun size ->
      with_batch_size size @@ fun () ->
      agree ~what:(Printf.sprintf "distinct-agg@%d" size) sql (run col sql)
        (run interp sql))
    edge_sizes

(* --------------------------------------------------------------- *)
(* Join_table.probe_batch: identical matches and errors to row-wise
   probe calls.                                                      *)

let probe_batch_matches_probe () =
  let item i = Item.Atomic (Atomic.Integer i) in
  let source = [ item 2; item 3; item 3; item 5 ] in
  let t =
    Join_table.build (Array.of_list source) ~key_of:(fun it -> [ it ]) ~value_cmp:true
  in
  let probes =
    [ [ Atomic.Integer 3 ]; []; [ Atomic.Integer 2 ]; [ Atomic.Integer 9 ] ]
  in
  let expected =
    List.concat
      (List.mapi
         (fun i atoms ->
           List.map (fun r -> (i, r)) (Join_table.probe t ~value_cmp:true atoms))
         probes)
  in
  let got = ref [] in
  Join_table.probe_batch t ~value_cmp:true ~rows:(List.length probes)
    ~atoms_of:(fun i -> List.nth probes i)
    ~emit:(fun i r -> got := (i, r) :: !got);
  Alcotest.(check (list (pair int int)))
    "batched probe emits the same (probe, build) pairs in order" expected
    (List.rev !got);
  (* cardinality error parity: a multi-atom probe against a nonempty
     build raises in both entry points *)
  let multi = [ Atomic.Integer 1; Atomic.Integer 2 ] in
  let raises f = match f () with _ -> false | exception _ -> true in
  check_bool "row-wise probe raises on multi-atom key" true
    (raises (fun () -> Join_table.probe t ~value_cmp:true multi));
  check_bool "batched probe raises on multi-atom key" true
    (raises (fun () ->
         Join_table.probe_batch t ~value_cmp:true ~rows:1
           ~atoms_of:(fun _ -> multi)
           ~emit:(fun _ _ -> ())))

(* --------------------------------------------------------------- *)
(* Group-key buffer reuse: grouping stays
   injective — groups keyed by values that stringify alike must not
   merge after the composite buffer became shared scratch.           *)

let group_key_injective_after_buffer_reuse () =
  let app = Artifact.application "G" in
  let t =
    Table.create "T"
      [ Schema.column ~nullable:false "K" (Sql_type.Varchar (Some 10));
        Schema.column ~nullable:false "V" Sql_type.Integer ]
  in
  (* "1" (string) vs 1 (int-looking string) and a NULL-adjacent empty
     string: all distinct group keys *)
  List.iter (fun (k, v) -> Table.insert t [ Value.Str k; Value.Int v ])
    [ ("1", 1); ("1 ", 2); ("", 3); ("1", 4) ];
  ignore (Artifact.import_physical_table app ~project:"P" t);
  let sql = "SELECT X.K, COUNT(*) N, SUM(X.V) S FROM T X GROUP BY X.K" in
  let col = Connection.connect app in
  let interp = Connection.connect ~optimize:false app in
  List.iter
    (fun size ->
      with_batch_size size @@ fun () ->
      (match run col sql with
      | Ok rs -> check_int "three distinct groups" 3 (List.length rs.Rowset.rows)
      | Error e -> Alcotest.failf "columnar group failed: %s" e);
      agree ~what:(Printf.sprintf "group-key@%d" size) sql (run col sql)
        (run interp sql))
    edge_sizes

(* --------------------------------------------------------------- *)
(* Correlated hash probes: the anti-join half of LEFT OUTER JOIN and
   correlated subqueries run as one hash probe per outer row against a
   build table reused across the inner FLWOR's invocations.  Executed,
   prepared and interpreted, they must agree with the SQL reference
   engine at every edge batch size, including NULL join keys on both
   sides, residual ON conjuncts and an empty build side.             *)

let outer_join_app () =
  let app = Artifact.application "OJ" in
  let int_col ?(nullable = true) name =
    Schema.column ~nullable name Sql_type.Integer
  in
  let table name cols rows =
    let t = Table.create name cols in
    List.iter (Table.insert t) rows;
    ignore (Artifact.import_physical_table app ~project:"P" t)
  in
  let i n = Value.Int n in
  table "L"
    [ int_col "ID"; Schema.column ~nullable:false "NAME" (Sql_type.Varchar (Some 8)) ]
    [ [ i 1; Value.Str "a" ]; [ i 2; Value.Str "b" ]; [ Value.Null; Value.Str "c" ];
      [ i 3; Value.Str "d" ]; [ i 2; Value.Str "e" ] ];
  table "R"
    [ int_col "LID"; int_col ~nullable:false "B" ]
    [ [ i 1; i 10 ]; [ i 2; i 20 ]; [ i 2; i 5 ]; [ Value.Null; i 7 ];
      [ i 4; i 40 ]; [ i 1; i 1 ] ];
  table "E" [ int_col "LID"; int_col ~nullable:false "B" ] [];
  app

let correlated_queries =
  [ "SELECT L.ID, L.NAME, R.B FROM L LEFT OUTER JOIN R ON L.ID = R.LID";
    "SELECT L.ID, L.NAME, R.B FROM L LEFT OUTER JOIN R ON L.ID = R.LID \
     AND R.B > 5";
    "SELECT L.ID, L.NAME, E.B FROM L LEFT OUTER JOIN E ON L.ID = E.LID";
    "SELECT L.NAME FROM L WHERE EXISTS (SELECT 1 FROM R WHERE R.LID = L.ID)";
    "SELECT L.NAME FROM L WHERE NOT EXISTS (SELECT 1 FROM R WHERE R.LID = \
     L.ID)";
    "SELECT L.NAME, (SELECT COUNT(*) FROM R WHERE R.LID = L.ID) N FROM L" ]

let correlated_probe_battery () =
  let app = outer_join_app () in
  let oracle_env = Aqua_sqlengine.Engine.env_of_application app in
  let col = Connection.connect app in
  let interp = Connection.connect ~optimize:false app in
  let prepared sql =
    match
      Result_set.to_rowset
        (Connection.Prepared.execute_query (Connection.Prepared.prepare col sql))
    with
    | rs -> Ok rs
    | exception e -> Error (Printexc.to_string e)
  in
  List.iter
    (fun sql ->
      let _, report =
        Optimize.query (Helpers.translate app sql).Aqua_translator.Translator.xquery
      in
      check_bool ("correlated probe fires on " ^ sql) true
        (report.Optimize.correlated_probes >= 1);
      let oracle =
        match Aqua_sqlengine.Engine.execute_sql oracle_env sql with
        | rs -> Ok rs
        | exception e -> Error (Printexc.to_string e)
      in
      (match oracle with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "reference engine failed on %s: %s" sql e);
      List.iter
        (fun size ->
          with_batch_size size @@ fun () ->
          let what engine = Printf.sprintf "correlated %s@%d" engine size in
          agree ~what:(what "columnar") sql (run col sql) oracle;
          agree ~what:(what "prepared") sql (prepared sql) oracle;
          agree ~what:(what "interpreter") sql (run interp sql) oracle)
        edge_sizes)
    correlated_queries;
  (* the probe really reuses its build: each of the five invocations of
     the NOT EXISTS FLWOR either builds or reuses, and at most one
     builds (none when an earlier run left the table cached) *)
  with_telemetry @@ fun () ->
  ignore (Connection.execute_query col (List.nth correlated_queries 4));
  let m = Telemetry.snapshot () in
  check_bool "at most one build" true (m.Telemetry.hash_join_builds <= 1);
  check_int "one build or reuse per invocation" 5
    (m.Telemetry.hash_join_builds + m.Telemetry.hash_join_reused)

(* Faults on a correlated probe: an armed hash-join failpoint degrades
   to the unoptimized interpreter with identical rows, and governors
   end in the same SQLSTATE as the nested loop.                      *)
let correlated_probe_faults () =
  let app = outer_join_app () in
  let sql = List.hd correlated_queries in
  let oracle =
    Aqua_sqlengine.Engine.execute_sql
      (Aqua_sqlengine.Engine.env_of_application app)
      sql
  in
  (* hit 1 is the inner-join half's hash join; hits 2-6 are the five
     invocations of the anti-join's correlated probe, so at(3) fires
     after one invocation has built the table *)
  List.iter
    (fun k ->
      with_telemetry @@ fun () ->
      with_failpoints (Printf.sprintf "xqeval.hashjoin=at(%d)" k) @@ fun () ->
      let rs = Connection.execute_query (Connection.connect app) sql in
      (match Rowset.diff_summary oracle (Result_set.to_rowset rs) with
      | None -> ()
      | Some msg -> Alcotest.failf "hash-join fault at(%d): wrong rows: %s" k msg);
      check_bool
        (Printf.sprintf "the hash-join fault at(%d) fired" k)
        true
        (Telemetry.value Telemetry.c_faults_injected >= 1);
      check_bool
        (Printf.sprintf "at(%d) fell back to the interpreter" k)
        true
        (Telemetry.value Telemetry.c_fallbacks_unoptimized >= 1))
    [ 1; 3 ];
  List.iter
    (fun (what, limits, expected) ->
      let state optimize =
        sqlstate_of_query (Connection.connect ~optimize ~limits app) sql
      in
      Alcotest.(check string) (what ^ ": nested loop") expected (state false);
      Alcotest.(check string) (what ^ ": correlated probe") expected (state true))
    [ ("row governor", Budget.limits ~max_rows:2 (), "53400");
      ("step governor", Budget.limits ~max_fuel:10 (), "53000") ]

(* --------------------------------------------------------------- *)
(* Liveness by slot: a nested FLWOR that shadows an outer variable,
   joins, groups, and then reads the name again gets the outer binding
   back (the group restores the FLWOR's entry scope), not the inner
   slot the shadowing for wrote.                                     *)

let shadowed_name_after_group () =
  let module Eval = Aqua_xqeval.Eval in
  let module Compile = Aqua_xqeval.Compile in
  let src =
    "for $x in (1, 2) return (for $y in (5, 6) return (for $x in (3, 4) \
     for $z in (3, 4) where $z = $x group $x as $p by $x as $k return ($x, \
     $k, $y)))"
  in
  let e = Aqua_xquery.Parser.parse_expr src in
  let ser = Aqua_xml.Serialize.sequence_to_string in
  let oracle = ser (Eval.eval (Eval.context ()) e) in
  Alcotest.(check string) "the interpreter reads the outer $x"
    "1 3 5 1 4 5 1 3 6 1 4 6 2 3 5 2 4 5 2 3 6 2 4 6" oracle;
  List.iter
    (fun size ->
      with_batch_size size @@ fun () ->
      Alcotest.(check string)
        (Printf.sprintf "columnar agrees @%d" size)
        oracle
        (ser (Compile.run (Compile.compile_expr e))))
    edge_sizes

(* --------------------------------------------------------------- *)
(* Constructor fusion: the fused plans (GROUP BY, derived tables, the
   outer join, UNION ALL and the section 4 wrapper over all of them)
   against the unoptimized interpreter and the SQL reference engine,
   at every edge batch size, over NULL group keys, an all-NULL group
   and an empty table.                                               *)

let fusion_app () =
  let app = Artifact.application "FU" in
  let int_col ?(nullable = true) name =
    Schema.column ~nullable name Sql_type.Integer
  in
  let table name rows =
    let t = Table.create name [ int_col "K"; int_col "V"; int_col ~nullable:false "W" ] in
    List.iter (Table.insert t) rows;
    ignore (Artifact.import_physical_table app ~project:"P" t)
  in
  let i n = Value.Int n and null = Value.Null in
  table "T"
    [ [ i 1; i 10; i 1 ]; [ i 1; i 20; i 2 ]; [ null; i 5; i 3 ];
      [ null; null; i 4 ]; [ i 2; null; i 5 ]; [ i 2; null; i 6 ];
      [ i 3; i 7; i 7 ] ];
  table "E" [];
  app

let fusion_queries =
  [ (* NULL group key, all-NULL group (SUM/AVG/MIN/MAX are NULL) *)
    "SELECT T.K, COUNT(*) N, COUNT(T.V) C, SUM(T.V) S, AVG(T.V) A, \
     MIN(T.V) MN, MAX(T.V) MX FROM T GROUP BY T.K";
    (* empty table, grouped and not *)
    "SELECT E.K, COUNT(*) N, SUM(E.V) S FROM E GROUP BY E.K";
    "SELECT COUNT(*) N, SUM(E.V) S FROM E";
    (* SUM over an empty set after a filter is NULL *)
    "SELECT T.K, SUM(T.V) S FROM T WHERE T.W > 100 GROUP BY T.K";
    "SELECT T.W, SUM(T.V) S FROM T WHERE T.V IS NULL GROUP BY T.W";
    (* ORDER BY over an aggregate *)
    "SELECT T.K, SUM(T.W) S FROM T GROUP BY T.K ORDER BY S DESC";
    (* derived table, grouped outside *)
    "SELECT D.K, COUNT(*) N, MAX(D.V) M FROM (SELECT T.K K, T.V V FROM T \
     WHERE T.W > 1) AS D GROUP BY D.K ORDER BY N DESC";
    "SELECT D.K, D.V FROM (SELECT T.K K, T.V V FROM T) AS D WHERE D.V > 6";
    (* UNION ALL and the outer join distribute over the wrapper *)
    "SELECT T.K FROM T UNION ALL SELECT E.K FROM E";
    "SELECT T.K, T.V FROM T UNION ALL SELECT T.V, T.K FROM T WHERE T.W < 3";
    "SELECT L.W, R.W FROM T L LEFT OUTER JOIN T R ON L.K = R.V" ]

let fused_plans_agree () =
  let app = fusion_app () in
  let engine = Aqua_sqlengine.Engine.env_of_application app in
  let fused = Connection.connect app in
  let unopt = Connection.connect ~optimize:false app in
  List.iter
    (fun sql ->
      let _, report =
        Optimize.query
          (Translator.for_text_transport (Helpers.translate app sql))
      in
      check_bool ("the wrapper fuses on " ^ sql) true
        (report.Optimize.fusions >= 1);
      let reference =
        match Aqua_sqlengine.Engine.execute_sql engine sql with
        | rs -> Ok rs
        | exception e -> Error (Printexc.to_string e)
      in
      List.iter
        (fun size ->
          with_batch_size size @@ fun () ->
          let what = Printf.sprintf "fused@%d" size in
          let got = run fused sql in
          agree ~what:(what ^ " vs unoptimized interpreter") sql got
            (run unopt sql);
          agree ~what:(what ^ " vs reference engine") sql got reference)
        edge_sizes)
    fusion_queries

(* Faults and governors on fused plans: an armed xqeval failpoint
   still degrades to the interpreter with identical rows, and the row
   governor still ends in 53400. *)
let fused_plans_under_faults () =
  let app = fusion_app () in
  let sql = List.hd fusion_queries in
  let oracle =
    Aqua_sqlengine.Engine.execute_sql
      (Aqua_sqlengine.Engine.env_of_application app)
      sql
  in
  List.iter
    (fun spec ->
      with_batch_size 2 @@ fun () ->
      with_telemetry @@ fun () ->
      with_failpoints spec @@ fun () ->
      let rs = Connection.execute_query (Connection.connect app) sql in
      (match Rowset.diff_summary oracle (Result_set.to_rowset rs) with
      | None -> ()
      | Some msg -> Alcotest.failf "%s: wrong rows after fallback: %s" spec msg);
      check_bool (spec ^ " fired") true
        (Telemetry.value Telemetry.c_faults_injected >= 1);
      check_bool (spec ^ " fell back to the interpreter") true
        (Telemetry.value Telemetry.c_fallbacks_unoptimized >= 1))
    [ "xqeval.clause=at(2)"; "xqeval.batch=at(3)" ];
  List.iter
    (fun size ->
      with_batch_size size @@ fun () ->
      let capped =
        Connection.connect ~limits:(Budget.limits ~max_rows:2 ()) app
      in
      Alcotest.(check string)
        (Printf.sprintf "row governor on a fused plan @%d" size)
        "53400" (sqlstate_of_query capped sql))
    edge_sizes

(* --------------------------------------------------------------- *)
(* Scan column projection (DESIGN.md section 16): reads of [$v/COL]
   over physical scans come from per-column vectors memoized with the
   scan.  Checked against the interpreter and the SQL reference engine
   at every edge batch size; on the shapes that must keep navigating;
   for the memo's identity keying across an insert, with the scan
   cache off and under its cell bound; and for parity of budgets and
   clause counters with the same plan lowered without projection.    *)

module Compile = Aqua_xqeval.Compile
module Eval = Aqua_xqeval.Eval
module Node = Aqua_xml.Node

let report_queries =
  [ "SELECT O.CUSTOMERID, COUNT(*) N, SUM(O.PRIORITY) S, AVG(O.PRIORITY) A, \
     MIN(O.PRIORITY) MN, MAX(O.PRIORITY) MX FROM ORDERS O GROUP BY \
     O.CUSTOMERID";
    "SELECT C.CUSTOMERID, COUNT(*) N, SUM(O.PRIORITY) S FROM CUSTOMERS C, \
     ORDERS O WHERE C.CUSTOMERID = O.CUSTOMERID GROUP BY C.CUSTOMERID";
    "SELECT INFO.CID, COUNT(*) N, MAX(INFO.PRI) P FROM (SELECT CUSTOMERID \
     CID, PRIORITY PRI FROM ORDERS WHERE PRIORITY > 1) AS INFO GROUP BY \
     INFO.CID ORDER BY N DESC";
    "SELECT C.CUSTOMERID, C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C LEFT \
     OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID";
    "SELECT O.STATUS, COUNT(*) N, SUM(L.QTY) Q FROM ORDERS O INNER JOIN \
     ORDERLINES L ON O.ORDERID = L.ORDERID GROUP BY O.STATUS" ]

(* paper Examples 3-12 on the demo catalog *)
let paper_examples =
  [ "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERNAME = 'Sue'";
    "SELECT CUSTOMERID ID FROM CUSTOMERS";
    "SELECT * FROM CUSTOMERS";
    "SELECT INFO.ID, INFO.NAME FROM (SELECT CUSTOMERID ID, CUSTOMERNAME NAME \
     FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10";
    "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS LEFT OUTER \
     JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID";
    "SELECT CUSTOMERS.CUSTOMERNAME, COUNT(PO_CUSTOMERS.ORDERID) N FROM \
     CUSTOMERS, PO_CUSTOMERS WHERE CUSTOMERS.CUSTOMERID = \
     PO_CUSTOMERS.CUSTOMERID GROUP BY CUSTOMERS.CUSTOMERID, \
     CUSTOMERS.CUSTOMERNAME ORDER BY N DESC" ]

let report_app () =
  Aqua_workload.Datagen.application
    { Aqua_workload.Datagen.customers = 12; orders = 40; lines_per_order = 2;
      payments = 18 }

(* The columnar notes [analyze] prints for the plan the driver runs
   that contain [needle]. *)
let shape_notes ~needle app sql =
  let q = Translator.for_text_transport (Helpers.translate app sql) in
  List.filter
    (fun n -> Helpers.contains ~needle n)
    (Aqua_dsp.Server.shape
       (Aqua_dsp.Server.prepare (Aqua_dsp.Server.create app) q))

let projection_notes = shape_notes ~needle:"projects"

let reference app sql =
  match
    Aqua_sqlengine.Engine.execute_sql
      (Aqua_sqlengine.Engine.env_of_application app)
      sql
  with
  | rs -> Ok rs
  | exception e -> Error (Printexc.to_string e)

let projection_battery app sqls =
  let col = Connection.connect app in
  let interp = Connection.connect ~optimize:false app in
  List.iter
    (fun sql ->
      check_bool ("a scan column is projected on " ^ sql) true
        (projection_notes app sql <> []);
      let oracle = reference app sql in
      List.iter
        (fun size ->
          with_batch_size size @@ fun () ->
          let what = Printf.sprintf "projected@%d" size in
          let got = run col sql in
          agree ~what:(what ^ " vs interpreter") sql got (run interp sql);
          agree ~what:(what ^ " vs reference engine") sql got oracle)
        edge_sizes)
    sqls

let projection_report_and_paper () =
  projection_battery (report_app ()) report_queries;
  projection_battery (Helpers.demo_app ()) paper_examples;
  (* NULL columns: an absent child reads as () through the guard *)
  projection_battery (fusion_app ()) fusion_queries;
  (* a correlated probe's build side is projected too *)
  projection_battery (outer_join_app ())
    [ List.nth correlated_queries 1; List.nth correlated_queries 5 ]

(* XQuery shapes over a resolver-backed physical scan: which reads are
   projected, and that every shape — projected or navigating — gives
   the interpreter's result or its error. *)
let xq_rows src =
  List.map (fun n -> Item.Node n) (Aqua_xml.Parse.nodes_of_string src)

let t_rows =
  xq_rows
    "<R><A>1</A><B>x</B><N><M>5</M></N></R><R><A>2</A></R>\
     <R><A>3</A><B>y</B><B>z</B><N><M>6</M></N></R>"

let u_rows = xq_rows "<S><A>2</A><B>p</B></S><S><A>3</A></S><S><A>3</A><B>q</B></S>"

let xq_resolve = function
  | "t:T" -> Some (fun _ -> t_rows)
  | "t:U" -> Some (fun _ -> u_rows)
  | "t:L" -> Some (fun _ -> [ Item.Atomic (Atomic.Integer 1) ])
  | _ -> None

let xq_node_fns name = name = "t:T" || name = "t:U"

let xq_projections e =
  List.filter_map
    (fun n ->
      if Helpers.contains ~needle:"projects" n then
        Some (String.sub n 10 (String.length n - 10))
      else None)
    (Compile.shape
       (Compile.compile_expr ~resolve:xq_resolve ~node_fns:xq_node_fns e))

let xq_cases =
  [ (* $v read whole and projected *)
    ( "whole and projected",
      "for $v in t:T() return ($v, $v/B)",
      [ "for $v projects 1 column(s) (B)" ] );
    (* a point lookup's reads are projected; a column read only past it
       keeps navigating; a range filter does not stop projection *)
    ( "past a point lookup",
      "for $v in t:T() where $v/A = 2 return ($v/A, $v/B)",
      [ "for $v projects 1 column(s) (A)" ] );
    ( "past a range filter",
      "for $v in t:T() where $v/A > 1 return ($v/A, $v/B)",
      [ "for $v projects 2 column(s) (A, B)" ] );
    (* NULL column: the guard sees () *)
    ( "null guard",
      "for $v in t:T() return if (fn:empty($v/B)) then \"null\" else fn:data($v/B)",
      [ "for $v projects 1 column(s) (B)" ] );
    (* $v/*, a predicated step and a multi-step path keep navigating *)
    ( "star and predicate",
      "for $v in t:T() return ($v/*, $v/B[. = \"y\"], $v/N/M)",
      [] );
    (* rebinding in a nested FLWOR: the outer $v navigates *)
    ( "nested rebinding",
      "for $v in t:T() return (for $v in t:U() return $v/B, $v/A)",
      [ "for $v projects 1 column(s) (B)" ] );
    (* rebinding in a quantifier *)
    ( "quantifier rebinding",
      "for $v in t:T() return ($v/A, some $v in t:U() satisfies $v/A = 3)",
      [] );
    (* a read past a shadowing group resolves to the outer binding *)
    ( "read past a shadowing group",
      "for $v in t:U() return (for $v in t:T() group $v as $p by $v/A as $k \
       return ($k, $v/B))",
      [] );
    ( "outer column read past an inner group",
      "for $w in t:U() return (for $v in t:T() group $v as $p by $v/A as $k \
       return ($k, $w/B))",
      [ "for $w projects 1 column(s) (B)"; "for $v projects 1 column(s) (A)" ] );
    (* hash join and correlated probe build sides *)
    ( "hash join",
      "for $v in t:T() for $w in t:U() where $v/A = $w/A return ($v/B, $w/B)",
      [ "for $v projects 2 column(s) (A, B)";
        "hash-join $w projects 1 column(s) (B)" ] );
    ( "correlated probe",
      "for $v in t:T() return (for $w in t:U() where $w/A = $v/A return $w/B)",
      [ "for $v projects 1 column(s) (A)";
        "hash-join $w projects 1 column(s) (B)" ] );
    (* sources not known to hold only nodes are never projected *)
    ("atomic source", "for $v in (1, 2) return $v/A", []);
    ("unvouched function", "for $v in t:L() return $v/A", []) ]

let projection_shapes () =
  let ser = Aqua_xml.Serialize.sequence_to_string in
  let outcome f = match f () with r -> Ok (ser r) | exception _ -> Error () in
  List.iter
    (fun (what, src, projected) ->
      let e = Aqua_xquery.Parser.parse_expr src in
      Alcotest.(check (list string)) (what ^ ": projections") projected
        (xq_projections e);
      let oracle =
        outcome (fun () ->
            Eval.eval (Eval.context ~resolve:xq_resolve ()) e)
      in
      List.iter
        (fun size ->
          with_batch_size size @@ fun () ->
          let got =
            outcome (fun () ->
                Compile.run
                  (Compile.compile_expr ~resolve:xq_resolve ~node_fns:xq_node_fns e))
          in
          if got <> oracle then
            Alcotest.failf "%s @%d: columnar %s, interpreter %s" what size
              (match got with Ok s -> s | Error () -> "raised")
              (match oracle with Ok s -> s | Error () -> "raised"))
        edge_sizes)
    xq_cases

(* The memo is keyed by the source's physical identity: a warm rerun
   hits it, and after an insert the scan is the old items followed by
   the new row's, so the memo extends its columns by that row instead
   of building them afresh, and the rerun sees the new row.  Keyed by
   anything coarser, the stale columns would drop the inserted row. *)
let projection_memo_revision () =
  let app = Artifact.application "REV" in
  let t =
    Table.create "T"
      [ Schema.column ~nullable:false "K" Sql_type.Integer;
        Schema.column "V" Sql_type.Integer ]
  in
  List.iter (Table.insert t)
    [ [ Value.Int 1; Value.Int 10 ]; [ Value.Int 2; Value.Null ];
      [ Value.Int 1; Value.Int 5 ] ];
  ignore (Artifact.import_physical_table app ~project:"P" t);
  let sql = "SELECT T.K, COUNT(*) N, SUM(T.V) S FROM T GROUP BY T.K" in
  let conn = Connection.connect app in
  let expect what =
    agree ~what sql (run conn sql) (reference app sql)
  in
  with_telemetry @@ fun () ->
  expect "cold run";
  let built = Telemetry.value Telemetry.c_col_projected_columns in
  check_bool "the cold run builds its columns" true (built > 0);
  expect "warm run";
  check_int "the warm run builds nothing" built
    (Telemetry.value Telemetry.c_col_projected_columns);
  check_bool "the warm run hits the memo" true
    (Telemetry.value Telemetry.c_col_projection_hits > 0);
  Table.insert t [ Value.Int 3; Value.Int 7 ];
  let hits = Telemetry.value Telemetry.c_col_projection_hits in
  expect "after an insert";
  check_int "the insert builds no full column" built
    (Telemetry.value Telemetry.c_col_projected_columns);
  check_bool "the extended columns are served from the memo" true
    (Telemetry.value Telemetry.c_col_projection_hits > hits);
  match run conn sql with
  | Ok rs -> check_int "the inserted group is seen" 3 (List.length rs.Rowset.rows)
  | Error e -> Alcotest.failf "rerun failed: %s" e

(* A stale prefix is never served.  After each append the compiled
   engine, which extends its memo by the new rows instead of rebuilding
   it, answers what the interpreter and the SQL engine answer, at every
   batch size; so it does when an appended row's derived cell fails
   (the [where] cast of 'x'), and after more rows follow that one. *)
let appended_rows_extend_the_memo () =
  let app = Artifact.application "APPEND" in
  let t =
    Table.create "T"
      [ Schema.column ~nullable:false "K" Sql_type.Integer;
        Schema.column "V" (Sql_type.Varchar None) ]
  in
  let row i v = [ Value.Int (i mod 3); v ] in
  List.iter
    (fun i ->
      Table.insert t
        (row i (if i mod 5 = 0 then Value.Null else Value.Str (string_of_int i))))
    (List.init 20 Fun.id);
  ignore (Artifact.import_physical_table app ~project:"P" t);
  let sqls =
    [ "SELECT T.K, COUNT(T.V) N FROM T WHERE CAST(T.V AS INTEGER) > 4 GROUP BY T.K";
      "SELECT T.K, COUNT(*) N FROM T GROUP BY T.K";
      "SELECT T.V FROM T WHERE T.K = 1";
      "SELECT T.K, T.V FROM T" ]
  in
  let col = Connection.connect app in
  let interp = Connection.connect ~optimize:false app in
  let check what =
    List.iter
      (fun size ->
        with_batch_size size @@ fun () ->
        List.iter
          (fun sql ->
            let what = Printf.sprintf "%s @%d" what size in
            let oracle = reference app sql in
            agree ~what sql (run col sql) oracle;
            agree ~what:(what ^ ", interpreter") sql (run interp sql) oracle)
          sqls)
      [ 1; 7; 1024 ]
  in
  check_bool "the cast is a derived cell" true
    (shape_notes ~needle:"(where V" app (List.hd sqls) <> []);
  with_telemetry @@ fun () ->
  check "cold";
  let built = Telemetry.value Telemetry.c_col_projected_columns in
  let derived = Telemetry.value Telemetry.c_col_derived_columns in
  check_bool "cells are derived" true (derived > 0);
  for i = 20 to 24 do
    Table.insert t (row i (Value.Str (string_of_int i)));
    check (Printf.sprintf "after row %d" i)
  done;
  check_int "appends build no full column" built
    (Telemetry.value Telemetry.c_col_projected_columns);
  check_int "appends derive no full cell column" derived
    (Telemetry.value Telemetry.c_col_derived_columns);
  Table.insert t (row 25 (Value.Str "x"));
  check "after a failing cell";
  check_bool "the failing cell raises" true
    (Result.is_error (run col (List.hd sqls)));
  Table.insert t (row 26 (Value.Str "26"));
  check "after a row behind the failing cell"

(* With the scan cache off every scan is a fresh list: results still
   agree, and the memo never serves a stale column. *)
let projection_without_scan_cache () =
  let app = fusion_app () in
  let sql = List.hd fusion_queries in
  let conn = Connection.connect ~scan_cache:false app in
  with_telemetry @@ fun () ->
  List.iter
    (fun size ->
      with_batch_size size @@ fun () ->
      agree ~what:(Printf.sprintf "no scan cache@%d" size) sql (run conn sql)
        (reference app sql))
    edge_sizes;
  check_bool "columns were projected" true
    (Telemetry.value Telemetry.c_col_projected_columns > 0);
  check_int "no fresh scan hits the memo" 0
    (Telemetry.value Telemetry.c_col_projection_hits)

(* A source whose columns exceed the memo's cell bound is served
   correctly and not retained: the second run builds again. *)
let projection_cell_bound () =
  let n = Compile.projected_cells_max + 1 in
  let big =
    List.init n (fun i ->
        Item.Node
          (Node.element "R"
             [ Node.element "A" [ Node.text (string_of_int (i mod 1000)) ] ]))
  in
  let resolve = function "t:BIG" -> Some (fun _ -> big) | _ -> None in
  let node_fns name = name = "t:BIG" in
  let e =
    Aqua_xquery.Parser.parse_expr
      "fn:count(for $v in t:BIG() where $v/A = 7 return $v/A)"
  in
  let ser = Aqua_xml.Serialize.sequence_to_string in
  let oracle = ser (Eval.eval (Eval.context ~resolve ()) e) in
  with_telemetry @@ fun () ->
  let once () = ser (Compile.run (Compile.compile_expr ~resolve ~node_fns e)) in
  Alcotest.(check string) "oversized source served" oracle (once ());
  check_int "one column built" 1
    (Telemetry.value Telemetry.c_col_projected_columns);
  Alcotest.(check string) "served again" oracle (once ());
  check_int "not retained: built again" 2
    (Telemetry.value Telemetry.c_col_projected_columns);
  check_int "never a memo hit" 0 (Telemetry.value Telemetry.c_col_projection_hits)

(* A join probing by value id over a probe column past the memo's cell
   bound: answered correctly, every row counted as a probe, and nothing
   retained — the second run derives the probe column (and its ids and
   probe results) again. *)
let probe_id_cell_bound () =
  let n = Compile.projected_cells_max + 1 in
  let big =
    List.init n (fun i ->
        Item.Node
          (Node.element "R"
             [ Node.element "A" [ Node.text (string_of_int (i mod 1000)) ] ]))
  in
  let small =
    List.init 20 (fun i ->
        Item.Node
          (Node.element "S"
             [ Node.element "A" [ Node.text (string_of_int (i * 7)) ] ]))
  in
  let resolve = function
    | "t:BIG" -> Some (fun _ -> big)
    | "t:SMALL" -> Some (fun _ -> small)
    | _ -> None
  in
  let node_fns name = name = "t:BIG" || name = "t:SMALL" in
  let e =
    Aqua_xquery.Parser.parse_expr
      "fn:count(for $v in t:BIG() for $w in t:SMALL() where fn:data($v/A) = \
       fn:data($w/A) return $w)"
  in
  let plan = Compile.compile_expr ~resolve ~node_fns e in
  check_int "the join probes by value id" 1
    (List.length
       (List.filter
          (fun n -> Helpers.contains ~needle:"probes by value id" n)
          (Compile.shape plan)));
  let ser = Aqua_xml.Serialize.sequence_to_string in
  let oracle = ser (Eval.eval (Eval.context ~resolve ()) e) in
  with_telemetry @@ fun () ->
  let once () = ser (Compile.run plan) in
  Alcotest.(check string) "oversized probe column served" oracle (once ());
  check_int "one derived column built" 1
    (Telemetry.value Telemetry.c_col_derived_columns);
  check_int "every probe row counted" n
    (Telemetry.value Telemetry.c_hash_join_probes);
  Alcotest.(check string) "served again" oracle (once ());
  check_int "not retained: derived again" 2
    (Telemetry.value Telemetry.c_col_derived_columns);
  check_int "never a derived hit" 0 (Telemetry.value Telemetry.c_col_derived_hits)

(* The text-transport plan the driver runs for [sql], optimized once
   and compiled directly over [app]'s data services, with scan
   projection on or off: the engine projects columns only over the
   functions [node_fns] vouches for. *)
let lowered app sql ~project =
  let q = Translator.for_text_transport (Helpers.translate app sql) in
  let imports = q.Aqua_xquery.Ast.prolog.Aqua_xquery.Ast.imports in
  let srv = Aqua_dsp.Server.create app in
  let resolve qname =
    match String.index_opt qname ':' with
    | None -> None
    | Some i ->
      let prefix = String.sub qname 0 i in
      let fn = String.sub qname (i + 1) (String.length qname - i - 1) in
      List.find_map
        (fun (imp : Aqua_xquery.Ast.schema_import) ->
          if imp.Aqua_xquery.Ast.prefix <> prefix then None
          else
            Option.map
              (fun (ds : Artifact.data_service) args ->
                Aqua_dsp.Server.call_function srv ~path:ds.Artifact.ds_path
                  ~name:ds.Artifact.ds_name ~fn args)
              (Artifact.find_service_by_namespace app imp.Aqua_xquery.Ast.namespace))
        imports
  in
  let node_fns = Aqua_dsp.Server.physical_fns app imports in
  let optimized, _ = Optimize.query ~node_fns q in
  Compile.compile ~optimize:false ~resolve
    ~node_fns:(if project then node_fns else fun _ -> false)
    optimized

(* Budgets, failpoints and clause counters on projected plans: the same
   fuel and item thresholds and the same per-clause row counts as the
   plan lowered without projection, and the usual row governor and
   fallbacks through the driver. *)
let projection_parity () =
  let app = report_app () in
  let outcome limits plan =
    match Budget.with_budget limits (fun () -> Compile.run plan) with
    | _ -> "ok"
    | exception e -> Printexc.to_string e
  in
  List.iter
    (fun sql ->
      let projected = lowered app sql ~project:true in
      let unprojected = lowered app sql ~project:false in
      (* clause row counters, and the scan columns each lowering read *)
      let clause_rows plan =
        with_telemetry @@ fun () ->
        ignore (Compile.run plan);
        ( Telemetry.clause_rows (),
          Telemetry.value Telemetry.c_col_projected_columns
          + Telemetry.value Telemetry.c_col_projection_hits )
      in
      let rows_u, columns_u = clause_rows unprojected in
      let rows_p, columns_p = clause_rows projected in
      Alcotest.(check (list (pair string int)))
        ("clause rows match the unprojected lowering on " ^ sql)
        rows_u rows_p;
      check_int ("the unprojected lowering reads no column on " ^ sql) 0
        columns_u;
      check_bool ("the projected lowering reads columns on " ^ sql) true
        (columns_p > 0);
      (* step and item governors trip at the same budget, and the
         budgets span both outcomes *)
      List.iter
        (fun (what, limits_of) ->
          let outcomes =
            List.map
              (fun budget ->
                let limits = limits_of budget in
                let expected = outcome limits unprojected in
                Alcotest.(check string)
                  (Printf.sprintf "%s budget %d on %s" what budget sql)
                  expected (outcome limits projected);
                expected)
              [ 10; 100; 400; 1000; 4000; 20000; 100000 ]
          in
          check_bool (what ^ " budgets both trip and pass on " ^ sql) true
            (List.mem "ok" outcomes && List.exists (( <> ) "ok") outcomes))
        [ ("step", fun fuel -> Budget.limits ~max_fuel:fuel ());
          ("item", fun items -> Budget.limits ~max_items:items ()) ];
      List.iter
        (fun size ->
          with_batch_size size @@ fun () ->
          Alcotest.(check string)
            (Printf.sprintf "row governor @%d on %s" size sql)
            "53400"
            (sqlstate_of_query
               (Connection.connect ~limits:(Budget.limits ~max_rows:2 ()) app)
               sql))
        edge_sizes)
    report_queries;
  List.iter
    (fun (spec, sql) ->
      with_batch_size 2 @@ fun () ->
      with_telemetry @@ fun () ->
      with_failpoints spec @@ fun () ->
      agree ~what:(spec ^ " fallback") sql (run (Connection.connect app) sql)
        (reference app sql);
      check_bool (spec ^ " fired") true
        (Telemetry.value Telemetry.c_faults_injected >= 1);
      check_bool (spec ^ " fell back to the interpreter") true
        (Telemetry.value Telemetry.c_fallbacks_unoptimized >= 1))
    [ ("xqeval.batch=at(2)", List.hd report_queries);
      ("xqeval.hashjoin=at(1)", List.nth report_queries 1) ]

(* --------------------------------------------------------------- *)
(* Derived cell columns (DESIGN.md section 16): kernel inputs, group
   keys, probe keys and where operands over a projected scan column are
   evaluated once per scan row and memoized beside the column.  Checked
   against the interpreter and the SQL reference engine at every edge
   batch size;
   at the XQuery level for the error cases SQL cannot express
   (non-numeric text under SUM/AVG/MIN/MAX, a cast error in a key),
   message for message; and at the unit level for the two fast paths
   (kernel readings, memoized key components). *)

let derived_app_table () =
  let app = Artifact.application "DC" in
  let t =
    Table.create "T"
      [ Schema.column "K" Sql_type.Integer;
        Schema.column "G" (Sql_type.Varchar (Some 10));
        Schema.column "V" Sql_type.Integer;
        Schema.column ~nullable:false "W" Sql_type.Integer;
        Schema.column "D" (Sql_type.Decimal (Some (8, 2))) ]
  in
  let i n = Value.Int n and str x = Value.Str x and null = Value.Null in
  List.iter (Table.insert t)
    [ [ i 1; str "a"; i 10; i 1; Value.Num 1.5 ];
      [ i 1; str "b"; i 20; i 2; null ];
      [ null; str "a"; i 5; i 3; Value.Num 2.25 ];
      [ null; null; null; i 4; Value.Num 0.5 ];
      [ i 2; str "a"; null; i 5; null ];
      [ i 2; null; null; i 6; Value.Num 3.0 ];
      [ i 3; str "a;b"; i 7; i 7; Value.Num 1.0 ];
      [ i 3; str "a"; i 8; i 8; Value.Num 2.0 ] ];
  ignore (Artifact.import_physical_table app ~project:"P" t);
  (app, t)

let derived_app () = fst (derived_app_table ())

let derived_queries =
  [ (* NULL keys and NULL inputs under every kernel *)
    "SELECT T.K, COUNT(*) N, COUNT(T.V) C, SUM(T.V) S, AVG(T.V) A, \
     MIN(T.V) MN, MAX(T.V) MX FROM T GROUP BY T.K";
    (* an unguarded (NOT NULL) key *)
    "SELECT T.W, COUNT(*) N, SUM(T.V) S, MIN(T.D) MN FROM T GROUP BY T.W";
    (* a guarded (nullable) key, multi-key groups with a separator in a
       key value, decimal inputs *)
    "SELECT T.G, COUNT(*) N, SUM(T.D) S, MIN(T.D) MN FROM T GROUP BY T.G";
    "SELECT T.G, T.K, COUNT(*) N, SUM(T.W) S, MAX(T.D) M FROM T GROUP BY \
     T.G, T.K";
    "SELECT T.K, T.G, AVG(T.D) A FROM T GROUP BY T.K, T.G";
    (* an integer-valued column keeps its integer SUM *)
    "SELECT T.K, SUM(T.W) S FROM T GROUP BY T.K";
    (* where operands (cast, NULL cells) and a derived key behind them *)
    "SELECT T.K, T.V FROM T WHERE T.V > 6";
    "SELECT T.G, COUNT(*) N FROM T WHERE T.W >= 3 GROUP BY T.G";
    (* hash-join probe keys, NULLs on both sides *)
    "SELECT A.W, B.W FROM T A, T B WHERE A.K = B.V";
    "SELECT A.G, COUNT(*) N, SUM(B.W) S FROM T A INNER JOIN T B ON A.K = B.K \
     GROUP BY A.G" ]

let derived_notes = shape_notes ~needle:"derives"

let derived_cells_agree () =
  let app = derived_app () in
  let col = Connection.connect app in
  let interp = Connection.connect ~optimize:false app in
  List.iter
    (fun sql ->
      check_bool ("a cell column is derived on " ^ sql) true
        (derived_notes app sql <> []);
      let oracle = reference app sql in
      List.iter
        (fun size ->
          with_batch_size size @@ fun () ->
          let what = Printf.sprintf "derived@%d" size in
          let got = run col sql in
          agree ~what:(what ^ " vs interpreter") sql got (run interp sql);
          agree ~what:(what ^ " vs reference engine") sql got oracle;
          (* the displayed text, not only the values *)
          let text conn =
            match run conn sql with
            | Ok rs ->
              List.map
                (fun row -> List.map Value.to_display (Array.to_list row))
                rs.Rowset.rows
            | Error e -> [ [ e ] ]
          in
          Helpers.check_rows (what ^ " text on " ^ sql) (text interp)
            (text col))
        edge_sizes)
    derived_queries;
  (* the report shapes derive too, and agree *)
  projection_battery (report_app ()) report_queries;
  check_bool "report derives its kernel inputs and keys" true
    (List.for_all
       (fun sql -> derived_notes (report_app ()) sql <> [])
       (List.filter (fun q -> Helpers.contains ~needle:"GROUP BY" q) report_queries))

(* XQuery shapes: the translator's record/group shape over a resolver-
   backed physical scan whose text SQL cannot hold — padded numerics,
   non-numeric text under the numeric kernels, a cast error in a key.
   The columnar result, or its error message, equals the interpreter's. *)
let d_rows =
  xq_rows
    "<R><K>1</K><X>10</X></R><R><K>1</K><X> 12 </X></R>\
     <R><K>2</K><X>abc</X></R><R><K>2</K></R><R><X>5</X></R>\
     <R><K>3</K><X>2.5</X></R><R><K>3</K><X>7</X></R>"

let d_resolve = function "t:D" -> Some (fun _ -> d_rows) | _ -> None
let d_node_fns name = name = "t:D"

let grouped ?(where = "") ?(key = "aqua:content-data(fn:data($v/K))") agg =
  Printf.sprintf
    "for $v in t:D() %s let $r := <RECORD>{if (fn:empty($v/K)) then () else \
     <K>{fn:data($v/K)}</K>}{if (fn:empty($v/X)) then () else \
     <X>{fn:data($v/X)}</X>}</RECORD> group $r as $p by %s as $k return \
     ($k, %s)"
    where key agg

let derived_xq_cases =
  [ ("padded sum", grouped ~where:"where fn:not($v/X = \"abc\")" "fn:sum($p/X)");
    ("padded avg", grouped ~where:"where fn:not($v/X = \"abc\")" "fn:avg($p/X)");
    ("non-numeric sum", grouped "fn:sum($p/X)");
    ("non-numeric avg", grouped "fn:avg($p/X)");
    ("non-numeric min", grouped "fn:min($p/X)");
    ("non-numeric max", grouped "fn:max($p/X)");
    ("null-guarded sum",
     grouped "if (fn:empty($p/X)) then () else fn:sum($p/X)");
    ("count and empty", grouped "(fn:count($p), fn:empty($p/X))");
    (* the key error of a later row wins over the sum error of an
       earlier one: the kernel defers its error to the flush *)
    ("key error after a deferred sum error",
     grouped ~key:"xs:int(fn:data($v/X))" "fn:sum($p/X)");
    ("key cast, bad row filtered",
     grouped ~where:"where fn:not($v/X = \"abc\")" ~key:"xs:double(fn:data($v/X))"
       "fn:count($p)");
    ("where cast error", "for $v in t:D() where xs:int(fn:data($v/X)) > 6 return $v/K");
    ("where cast, bad row filtered first",
     "for $v in t:D() where fn:not($v/X = \"abc\") where xs:double(fn:data($v/X)) > 6 \
      return $v/K") ]

let derived_xq_shapes () =
  let ser = Aqua_xml.Serialize.sequence_to_string in
  let outcome f =
    match f () with r -> Ok (ser r) | exception e -> Error (Printexc.to_string e)
  in
  let show = function Ok s -> s | Error e -> "raised " ^ e in
  List.iter
    (fun (what, src) ->
      let e = Aqua_xquery.Parser.parse_expr src in
      check_bool (what ^ ": a cell column is derived") true
        (List.exists
           (fun n -> Helpers.contains ~needle:"derives" n)
           (Compile.shape
              (Compile.compile_expr ~resolve:d_resolve ~node_fns:d_node_fns
                 e)));
      let oracle =
        outcome (fun () ->
            Eval.eval (Eval.context ~resolve:d_resolve ()) e)
      in
      List.iter
        (fun size ->
          with_batch_size size @@ fun () ->
          let got =
            outcome (fun () ->
                Compile.run
                  (Compile.compile_expr ~resolve:d_resolve ~node_fns:d_node_fns e))
          in
          if got <> oracle then
            Alcotest.failf "%s @%d: columnar %s, interpreter %s" what size
              (show got) (show oracle))
        edge_sizes)
    derived_xq_cases

(* The notes [analyze] prints are the lowering's own decisions.  Where
   a group's key and kernel inputs are read through derived cells, the
   scan binding carries no input column, never writes its variable and
   writes no projected column: only the row position the cells are read
   by. *)
let engine_notes () =
  let pin app sql expected =
    Alcotest.(check (list string)) sql expected
      (shape_notes ~needle:"columnar: " app sql)
  in
  (* the text-transport wrapper's row record, read through its
     constructor *)
  let tokens =
    "columnar: let $tokenQuery skipped, $tokenQuery's record not built"
  in
  pin (Helpers.demo_app ())
    "SELECT CITY, COUNT(*) N, SUM(TIER) S FROM CUSTOMERS GROUP BY CITY"
    [ "columnar: for $var1FR0 carries 0 of 0 input column(s) (pruned 0)";
      "columnar: for $var1FR0 writes 1 column(s) (row position); $var1FR0 not \
       written";
      "columnar: for $var1FR0 projects 2 column(s) (CITY, TIER)";
      "columnar: for $var1FR0 derives 2 cell column(s) (key CITY, sum?(TIER) \
       input)";
      "columnar: let $var1GB0 skipped, $var1GB0's record not built";
      "columnar: group by -> $var1Partition1 kernels [count; \
       sum?(CUSTOMERS.TIER)]; partition not materialized; carries 0 of 1 \
       input column(s) (pruned 1), writes 1 key and 2 kernel column(s)";
      "columnar: group by -> $var1Partition1 keys by value id (key CITY)";
      tokens;
      "columnar: string-join text writer, 3 cell(s) per row" ];
  (* report's agg-group *)
  pin (report_app ()) (List.hd report_queries)
    [ "columnar: for $var1FR0 carries 0 of 0 input column(s) (pruned 0)";
      "columnar: for $var1FR0 writes 1 column(s) (row position); $var1FR0 not \
       written";
      "columnar: for $var1FR0 projects 2 column(s) (CUSTOMERID, PRIORITY)";
      "columnar: for $var1FR0 derives 2 cell column(s) (key CUSTOMERID, \
       sum?/avg/min/max(PRIORITY) input)";
      "columnar: let $var1GB0 skipped, $var1GB0's record not built";
      "columnar: group by -> $var1Partition1 kernels [count; sum?(O.PRIORITY); \
       avg(O.PRIORITY); min(O.PRIORITY); max(O.PRIORITY)]; partition not \
       materialized; carries 0 of 1 input column(s) (pruned 1), writes 1 key \
       and 5 kernel column(s)";
      "columnar: group by -> $var1Partition1 keys by value id (key CUSTOMERID)";
      tokens;
      "columnar: string-join text writer, 6 cell(s) per row" ];
  (* the agg-join shape: the probe key and the group key are both read
     by row position, so the scan writes only that *)
  pin (Helpers.demo_app ())
    "SELECT C.CITY, COUNT(*) N FROM CUSTOMERS C JOIN PAYMENTS P ON \
     C.CUSTOMERID = P.CUSTID GROUP BY C.CITY ORDER BY N DESC"
    [ "columnar: for $var1FR0 carries 0 of 0 input column(s) (pruned 0)";
      "columnar: for $var1FR0 writes 1 column(s) (row position); $var1FR0 not \
       written";
      "columnar: for $var1FR0 projects 2 column(s) (CUSTOMERID, CITY)";
      "columnar: for $var1FR0 derives 2 cell column(s) (probe CUSTOMERID, key \
       CITY)";
      "columnar: hash-join $var1FR1 carries 1 of 1 input column(s) (pruned 0)";
      "columnar: hash-join $var1FR1 writes 0 column(s); $var1FR1 not written";
      "columnar: hash-join $var1FR1 probes by value id (probe CUSTOMERID)";
      "columnar: let $var1GB0 skipped, $var1GB0's record not built";
      "columnar: group by -> $var1Partition1 kernels [count]; partition not \
       materialized; carries 0 of 1 input column(s) (pruned 1), writes 1 key \
       and 1 kernel column(s)";
      "columnar: group by -> $var1Partition1 keys by value id (key CITY)";
      "columnar: order by retains 2 of 2 input column(s) (pruned 0)";
      "columnar: string-join text writer, 2 cell(s) per row" ]

(* The column update against the one-shot functions over the
   concatenated partition, table-driven: every kind, every prefix of
   several input orders, spread over one, two and three interleaved
   group slots, folded through [Kernels.add_cells] in batches of three
   (the readings half built, half extended, the accumulator grown
   between batches) and through the generic [Kernels.add].  Results
   compare by atom type and value (NaN equal to itself), errors by
   message: the first one raised. *)
let kernel_fast_path_table () =
  let module Functions = Aqua_xqeval.Functions in
  let u s = [ Item.Atomic (Atomic.Untyped s) ] in
  let at a = [ Item.Atomic a ] in
  let inputs =
    [ []; u "5"; u " 7 "; u "abc"; u "2.5"; [ Item.Atomic (Atomic.Integer 3) ];
      [ Item.Atomic (Atomic.Decimal 1.25) ]; [ Item.Atomic (Atomic.Double 4.0) ];
      [ Item.Atomic (Atomic.String "x") ]; [ Item.Atomic (Atomic.Boolean true) ];
      u "1" @ u "2";
      [ Item.Node (Node.element "C" [ Node.text "9" ]) ];
      [ Item.Node (Node.element "C" [ Node.text "nine" ]) ];
      [ Item.Atomic (Atomic.Integer max_int) ]; u "1e3"; u "" ]
  in
  let nan_rows =
    [ at (Atomic.Integer 2); at (Atomic.Double Float.nan); u "1"; u "NaN";
      at (Atomic.Decimal 0.5); at (Atomic.Integer 0) ]
  in
  (* equal values of different types: the first seen wins a tie *)
  let mixed_rows =
    [ at (Atomic.Integer 3); u "3"; at (Atomic.Double 3.0);
      at (Atomic.Decimal 3.0); u "3.0"; at (Atomic.Integer 2); u "4";
      at (Atomic.Decimal 4.0); at (Atomic.Double 4.0); at (Atomic.Integer 4);
      at (Atomic.Integer (-1)); u "-1" ]
  in
  (* two errors in one group: the first is the one raised *)
  let two_errors =
    [ at (Atomic.Integer 1); u "abc"; at (Atomic.Integer 2); u "xyz";
      at (Atomic.String "s"); at (Atomic.Boolean false) ]
  in
  let kinds =
    Kernels.[ K_count; K_sum; K_sum_null; K_avg; K_min; K_max; K_empty; K_exists ]
  in
  let call f seq = (Option.get (Functions.lookup f)) [ seq ] in
  let oneshot kind seq =
    match (kind : Kernels.kind) with
    | K_count -> call "fn:count" seq
    | K_sum -> call "fn:sum" seq
    | K_sum_null -> (
      match call "fn:empty" seq with
      | [ Item.Atomic (Atomic.Boolean true) ] -> []
      | _ -> call "fn:sum" seq)
    | K_avg -> call "fn:avg" seq
    | K_min -> call "fn:min" seq
    | K_max -> call "fn:max" seq
    | K_empty -> call "fn:empty" seq
    | K_exists -> call "fn:exists" seq
  in
  let outcome f =
    match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)
  in
  let show = function
    | Error e -> "error " ^ e
    | Ok seq ->
      String.concat " "
        (List.map
           (function
             | Item.Atomic a -> Atomic.type_name a ^ " " ^ Atomic.to_lexical a
             | Item.Node _ -> "node")
           seq)
  in
  let same a b =
    match (a, b) with
    | Ok x, Ok y -> compare x y = 0
    | Error x, Error y -> x = y
    | _ -> false
  in
  let orders =
    [ inputs; List.rev inputs;
      List.filter (fun x -> x <> u "abc" && x <> u "" ) inputs;
      List.filter (fun x -> match x with [ Item.Atomic (Atomic.Integer _) ] | [] -> true | _ -> false) inputs;
      nan_rows; List.rev nan_rows; mixed_rows; List.rev mixed_rows; two_errors;
      List.rev two_errors ]
  in
  let by_column kind col ngroups n =
    let half = Array.sub col 0 (Array.length col / 2) in
    let cells = Kernels.extend_cells (Kernels.cells half) col in
    let acc = Kernels.acc kind 1 in
    let rec batches from =
      if from < n then begin
        let m = min 3 (n - from) in
        Kernels.reserve acc (ngroups + from);
        Kernels.add_cells acc cells
          ~slots:(Array.init m (fun k -> (from + k) mod ngroups))
          ~rows:(Array.init m (fun k -> from + k))
          m;
        batches (from + m)
      end
    in
    Kernels.reserve acc ngroups;
    batches 0;
    acc
  in
  let by_row kind col ngroups n =
    let acc = Kernels.acc kind ngroups in
    for r = 0 to n - 1 do
      Kernels.add acc (r mod ngroups) col.(r)
    done;
    acc
  in
  List.iter
    (fun kind ->
      List.iter
        (fun order ->
          let col = Array.of_list order in
          for n = 0 to Array.length col do
            List.iter
              (fun ngroups ->
                let column = by_column kind col ngroups n
                and row = by_row kind col ngroups n in
                for g = 0 to ngroups - 1 do
                  let part =
                    List.concat
                      (List.filteri (fun r _ -> r < n && r mod ngroups = g) order)
                  in
                  let expected = outcome (fun () -> oneshot kind part) in
                  List.iter
                    (fun (how, acc) ->
                      let got = outcome (fun () -> Kernels.result acc g) in
                      if not (same expected got) then
                        Alcotest.failf
                          "%s, %s, group %d of %d over %d inputs: one-shot %s, \
                           kernel %s"
                          (Kernels.name kind) how g ngroups n (show expected)
                          (show got))
                    [ ("add_cells", column); ("add", row) ]
                done)
              [ 1; 2; 3 ]
          done)
        orders)
    kinds

(* A memoized key component splices into the composite unchanged:
   byte-equal to [Group_key.composite] for multi-key tuples, empty
   keys and separator bytes included. *)
let key_components_concatenate () =
  let module Group_key = Aqua_xqeval.Group_key in
  let a s = Item.Atomic (Atomic.Untyped s) in
  let values =
    [ []; [ a "x" ]; [ a "a;b" ]; [ a "1:2" ]; [ a "" ];
      [ Item.Atomic (Atomic.Integer 7) ]; [ a "e" ]; [ a "p"; a "q" ];
      [ Item.Node (Node.element "C" [ Node.text "3;" ]) ] ]
  in
  List.iter
    (fun k1 ->
      List.iter
        (fun k2 ->
          List.iter
            (fun keys ->
              Alcotest.(check string) "components concatenate to the composite"
                (Group_key.composite keys)
                (String.concat "" (List.map Group_key.component keys)))
            [ [ k1 ]; [ k1; k2 ]; [ k2; k1; k2 ] ])
        values)
    values

(* --------------------------------------------------------------- *)
(* Value ids (DESIGN.md section 16): a group whose single key is a
   derived cell finds its slot by the cell's value id, and a hash join
   whose probe key is one probes each distinct id once, memoized with
   the column.  Checked against the interpreter, the SQL reference
   engine and, where the interpreter's nested loop raises on a pair a
   hash join never matches, the same plan lowered without projection
   (no derived cells, so the row-by-row [probe_batch]), at batch sizes
   1, 7 and 1024. *)

let id_sizes = [ 1; 7; 1024 ]

let by_id_notes notes =
  List.filter (fun n -> Helpers.contains ~needle:"by value id" n) notes

(* Runs [src] over the resolver's scans at every id size: the compiled
   plan must print [ids] "by value id" notes and give, result or error
   message, what the unprojected plan gives and, with [interp], what the
   interpreter gives. *)
let ids_agree ?(interp = true) ~resolve ~node_fns ~ids what src =
  let e = Aqua_xquery.Parser.parse_expr src in
  let ser = Aqua_xml.Serialize.sequence_to_string in
  let outcome f =
    match f () with r -> Ok (ser r) | exception e -> Error (Printexc.to_string e)
  in
  let show = function Ok s -> s | Error e -> "raised " ^ e in
  let plan = Compile.compile_expr ~resolve ~node_fns e in
  check_int (what ^ ": by value id notes") ids
    (List.length (by_id_notes (Compile.shape plan)));
  let flat = Compile.compile_expr ~resolve e in
  check_int (what ^ ": the unprojected plan reads no id") 0
    (List.length (by_id_notes (Compile.shape flat)));
  let oracle = outcome (fun () -> Eval.eval (Eval.context ~resolve ()) e) in
  let results = ref [] in
  List.iter
    (fun size ->
      with_batch_size size @@ fun () ->
      (* twice: the second run reads the memoized ids and probes *)
      for pass = 1 to 2 do
        let got = outcome (fun () -> Compile.run plan) in
        let expected = outcome (fun () -> Compile.run flat) in
        if got <> expected then
          Alcotest.failf "%s @%d pass %d: by id %s, probe_batch %s" what size pass
            (show got) (show expected);
        if interp && got <> oracle then
          Alcotest.failf "%s @%d pass %d: by id %s, interpreter %s" what size pass
            (show got) (show oracle);
        results := got :: !results
      done)
    id_sizes;
  List.hd !results

let id_a_rows =
  xq_rows
    "<A><I>1</I><K>5</K></A><A><I>2</I><K>5.0</K></A><A><I>3</I><K></K></A>\
     <A><I>4</I></A><A><I>5</I><K>2005-01-02</K></A><A><I>6</I><K>true</K></A>\
     <A><I>7</I><K>5</K></A><A><I>8</I><K>7</K></A><A><I>9</I><K>5.0</K></A>\
     <A><I>10</I></A><A><I>11</I><K>2005-01-02</K></A>"

(* T: how the build key types K — i(nteger), d(ate), b(oolean),
   x (double), anything else untyped *)
let id_b_rows =
  xq_rows
    "<B><J>a</J><T>i</T><K>5</K></B><B><J>b</J><T>u</T><K>5</K></B>\
     <B><J>c</J><T>u</T><K>5.0</K></B><B><J>d</J><T>d</T><K>2005-01-02</K></B>\
     <B><J>e</J><T>b</T><K>true</K></B><B><J>f</J><T>x</T><K>7</K></B>\
     <B><J>g</J><T>u</T></B><B><J>h</J><T>u</T><K></K></B>\
     <B><J>i</J><T>x</T><K>5</K></B>"

let id_resolve rows name = List.assoc_opt name rows |> Option.map (fun r _ -> r)

let typed_build_key =
  "if (fn:data($b/T) = \"i\") then xs:integer(fn:data($b/K)) else if \
   (fn:data($b/T) = \"d\") then xs:date(fn:data($b/K)) else if \
   (fn:data($b/T) = \"b\") then xs:boolean(fn:data($b/K)) else if \
   (fn:data($b/T) = \"x\") then xs:double(fn:data($b/K)) else fn:data($b/K)"

let join_xq ?(cmp = "=") ?(probe = "fn:data($a/K)") build =
  Printf.sprintf
    "for $a in t:A() for $b in t:B() where %s %s (%s) return \
     fn:concat(fn:data($a/I), \"-\", fn:data($b/J))"
    probe cmp build

(* An untyped probe against typed and untyped build keys: the typed
   ones match through the probe's secondary keys, an untyped one by its
   string; empty cells and missing keys match nothing.  The interpreter's
   nested loop raises on the incomparable pairs a hash join skips, so
   the untyped-only build is also checked against it. *)
let ids_probe_secondary_keys () =
  let rows = [ ("t:A", id_a_rows); ("t:B", id_b_rows) ] in
  let resolve = id_resolve rows and node_fns n = List.mem_assoc n rows in
  let got =
    ids_agree ~interp:false ~resolve ~node_fns ~ids:1 "typed and untyped build"
      (join_xq typed_build_key)
  in
  (match got with
  | Ok s ->
    List.iter
      (fun m -> Helpers.assert_contains ~needle:m s)
      [ "1-a"; "1-b"; "1-i"; "2-a"; "2-c"; "2-i"; "3-h"; "5-d"; "6-e"; "7-b"; "8-f";
        "9-c"; "11-d" ]
  | Error e -> Alcotest.failf "typed and untyped build raised %s" e);
  ignore
    (ids_agree ~resolve ~node_fns ~ids:1 "untyped build" (join_xq "fn:data($b/K)"));
  ignore
    (ids_agree ~interp:false ~resolve ~node_fns ~ids:1 "value comparison"
       (join_xq ~cmp:"eq" typed_build_key))

(* A multi-atom build key under value comparison: every non-empty probe
   raises the cardinality error, so the first non-empty probe row
   raises it; an earlier cast error in a probe cell wins, and a later
   one does not. *)
let ids_cardinality_error () =
  let b = xq_rows "<B><J>m</J><K>5</K><K>6</K></B><B><J>a</J><K>5</K></B>" in
  let a order =
    xq_rows (String.concat "" (List.map (Printf.sprintf "<A><I>1</I>%s</A>") order))
  in
  let check ?(probe = "fn:data($a/K)") what order expect =
    let rows = [ ("t:A", a order); ("t:B", b) ] in
    let resolve = id_resolve rows and node_fns n = List.mem_assoc n rows in
    match
      ids_agree ~resolve ~node_fns ~ids:1 what
        (join_xq ~cmp:"eq" ~probe "fn:data($b/K)")
    with
    | Error e -> Helpers.assert_contains ~needle:expect e
    | Ok s -> Alcotest.failf "%s: no error, got %s" what s
  in
  check "empty probes, then a non-empty one" [ ""; ""; "<K>5</K>"; "<K>x</K>" ]
    "singleton operands";
  let probe = "xs:integer(fn:data($a/K))" in
  check ~probe "a cast error first" [ ""; "<K>x</K>"; "<K>5</K>" ] "xs:integer";
  check ~probe "a cast error after the first probe" [ ""; "<K>5</K>"; "<K>x</K>" ]
    "singleton operands"

(* A derived group key whose values mix equal integers and doubles: one
   value id each, one group, keyed by the first value seen; the
   materializing group and the kernel group alike. *)
let ids_group_mixed_numbers () =
  let rows =
    [ ( "t:G",
        xq_rows
          "<G><I>1</I><K>5</K></G><G><I>2</I><K>5.0</K></G><G><I>3</I><K>6</K></G>\
           <G><I>4</I><K>5e0</K></G><G><I>5</I></G><G><I>6</I><K>5</K></G>\
           <G><I>7</I></G>" ) ]
  in
  let resolve = id_resolve rows and node_fns n = List.mem_assoc n rows in
  let key =
    "(if (fn:data($v/K) = \"5\") then xs:integer(fn:data($v/K)) else \
     xs:double(fn:data($v/K)))"
  in
  let grouped ret =
    Printf.sprintf "for $v in t:G() group $v as $p by %s as $k return %s" key ret
  in
  let kernel =
    ids_agree ~resolve ~node_fns ~ids:1 "kernel group" (grouped "($k, fn:count($p))")
  in
  (* the empty key's group prints its count alone *)
  Alcotest.(check (result string string)) "one group for 5, 5.0 and 5e0"
    (Ok "5 4 6 1 2") (Result.map String.trim kernel);
  ignore
    (ids_agree ~resolve ~node_fns ~ids:1 "materializing group"
       (grouped "<g>{$k}{fn:data($p/I)}</g>"))

(* SQL shapes on the derived app, against the interpreter and the
   reference engine: NULL keys and probes, a second run of one cached
   plan after inserts into both sides (ids extend with the column, the
   join memo follows the rebuilt build table), and the left outer
   join, whose anti-join half probes an outer variable and stays on
   [probe_batch]. *)
let ids_sql_shapes () =
  let app, t = derived_app_table () in
  let col = Connection.connect app in
  let interp = Connection.connect ~optimize:false app in
  let queries =
    [ ("SELECT T.K, COUNT(*) N, SUM(T.V) S FROM T GROUP BY T.K", 1);
      ("SELECT T.G, COUNT(*) N FROM T GROUP BY T.G", 1);
      ("SELECT A.W, B.W FROM T A, T B WHERE A.K = B.V", 1);
      ("SELECT A.G, COUNT(*) N FROM T A INNER JOIN T B ON A.K = B.K GROUP BY A.G", 2);
      ("SELECT A.W, B.W FROM T A LEFT OUTER JOIN T B ON A.V = B.K", 1) ]
  in
  let round what =
    List.iter
      (fun (sql, ids) ->
        check_int ("by value id notes on " ^ sql) ids
          (List.length (shape_notes ~needle:"by value id" app sql));
        let oracle = reference app sql in
        List.iter
          (fun size ->
            with_batch_size size @@ fun () ->
            let w = Printf.sprintf "%s@%d" what size in
            let got = run col sql in
            agree ~what:(w ^ " vs interpreter") sql got (run interp sql);
            agree ~what:(w ^ " vs reference engine") sql got oracle)
          id_sizes)
      queries
  in
  with_telemetry @@ fun () ->
  round "ids";
  let i n = Value.Int n and null = Value.Null in
  List.iter (Table.insert t)
    [ [ i 9; Value.Str "a"; i 1; i 9; null ];
      [ null; Value.Str "z"; i 9; i 10; Value.Num 4.5 ];
      [ i 1; Value.Str "b"; null; i 11; null ] ];
  Telemetry.reset ();
  round "ids after inserts";
  check_int "the inserts extend the derived columns, none is rebuilt" 0
    (Telemetry.value Telemetry.c_col_derived_columns);
  check_bool "the plans are reused" true (Telemetry.value Telemetry.c_cache_hits > 0);
  (* the outer join's anti-join half is a correlated probe *)
  Alcotest.(check (list string)) "only the inner half probes by value id"
    [ "columnar: hash-join $var1FR1 probes by value id (probe V)" ]
    (shape_notes ~needle:"by value id" app
       "SELECT A.W, B.W FROM T A LEFT OUTER JOIN T B ON A.V = B.K")

(* The memo over report's five statements at report's sizes: a warm
   cycle builds nothing, an insert into ORDERS extends the columns by
   the new row (no column is built afresh) and the results see it, and
   a source past the cell bound is served correctly without being
   retained. *)
let derived_memo_lifecycle () =
  let module Datagen = Aqua_workload.Datagen in
  let sizes =
    { Datagen.customers = 300; orders = 5000; lines_per_order = 2; payments = 300 }
  in
  let tables = Datagen.tables ~seed:45 sizes in
  let app = Artifact.application "LIFE" in
  List.iter (fun t -> ignore (Artifact.import_physical_table app ~project:"Sales" t)) tables;
  let orders = List.find (fun (t : Table.t) -> t.Table.name = "ORDERS") tables in
  let conn = Connection.connect app in
  let cycle () = List.iter (fun sql -> ignore (run conn sql)) report_queries in
  with_telemetry @@ fun () ->
  cycle ();
  cycle ();
  check_bool "warm-up derived cell columns" true
    (Telemetry.value Telemetry.c_col_derived_columns > 0);
  Telemetry.reset ();
  cycle ();
  check_int "a warm cycle builds no projected column" 0
    (Telemetry.value Telemetry.c_col_projected_columns);
  check_int "a warm cycle builds no derived column" 0
    (Telemetry.value Telemetry.c_col_derived_columns);
  check_bool "a warm cycle is served from the memo" true
    (Telemetry.value Telemetry.c_col_derived_hits > 0);
  Table.insert orders
    [ Value.Int 999999; Value.Int 1;
      Value.Date { Atomic.year = 2024; month = 1; day = 1 }; Value.Str "NEW";
      Value.Int 4 ];
  Telemetry.reset ();
  let agg_group = List.hd report_queries in
  let lines_group = List.nth report_queries 4 in
  agree ~what:"after an insert" agg_group (run conn agg_group) (reference app agg_group);
  check_int "the insert builds no projected column" 0
    (Telemetry.value Telemetry.c_col_projected_columns);
  check_int "the insert builds no derived column" 0
    (Telemetry.value Telemetry.c_col_derived_columns);
  check_bool "the extended cells are served from the memo" true
    (Telemetry.value Telemetry.c_col_derived_hits > 0);
  agree ~what:"after an insert" lines_group (run conn lines_group)
    (reference app lines_group);
  (* past the cell bound: two derived ORDERS columns of 40000 rows *)
  let big =
    Datagen.application ~seed:46
      { sizes with Datagen.orders = 40000; lines_per_order = 1 }
  in
  let bconn = Connection.connect big in
  Telemetry.reset ();
  agree ~what:"past the cell bound" agg_group (run bconn agg_group)
    (reference big agg_group);
  let built = Telemetry.value Telemetry.c_col_derived_columns in
  agree ~what:"past the cell bound, again" agg_group (run bconn agg_group)
    (reference big agg_group);
  check_bool "an oversized source is not retained" true
    (Telemetry.value Telemetry.c_col_derived_columns > built)

(* --------------------------------------------------------------- *)
(* The text writer (DESIGN.md section 16): the wrapped plan's text
   from the compiled engine is byte for byte the interpreter's, and it
   decodes to the rows the XML transport's independent decoder reads,
   at every edge batch size.                                          *)

module Server = Aqua_dsp.Server
module X = Aqua_xquery.Ast

let outcome f =
  match f () with v -> Ok v | exception e -> Error (Printexc.to_string e)

let rows_of rs = (Result_set.to_rowset rs).Rowset.rows

let writer_notes = shape_notes ~needle:"text writer"

(* Every statement that translates must be lowered with the writer; one
   the translator rejects is skipped.  Returns how many translated. *)
let text_battery app sqls =
  let env = Aqua_translator.Semantic.env_of_application app in
  let interp = Server.create ~optimize:false app in
  let compiled = Server.create app in
  let translated = ref 0 in
  List.iter
    (fun sql ->
      match Translator.translate env sql with
      | exception _ -> ()
      | t ->
        check_bool ("the text writer lowers " ^ sql) true
          (writer_notes app sql <> []);
        incr translated;
        let q = Translator.for_text_transport t in
        let cols = t.Translator.columns in
        let oracle = outcome (fun () -> Server.execute_to_text interp q) in
        List.iter
          (fun size ->
            with_batch_size size @@ fun () ->
            let what = Printf.sprintf "%s @%d" sql size in
            match (outcome (fun () -> Server.execute_to_text compiled q), oracle) with
            | Ok text, Ok expected ->
              Alcotest.(check string) ("text of " ^ what) expected text;
              let xml =
                Result_set.of_xml_text cols
                  (Server.execute_to_xml compiled t.Translator.xquery)
              in
              check_bool ("rows of " ^ what) true
                (compare (rows_of (Result_set.of_encoded_text cols text))
                   (rows_of xml)
                = 0)
            | Error e, Error expected ->
              Alcotest.(check string) ("error of " ^ what) expected e
            | Ok _, Error e -> Alcotest.failf "%s: only the interpreter raised %s" what e
            | Error e, Ok _ -> Alcotest.failf "%s: only the compiled engine raised %s" what e)
          edge_sizes)
    sqls;
  !translated

(* strings with the delimiters, '&', every C0 control byte (tab, LF
   and CR among them) and the empty string; a NULL in the first, a
   middle and the last column and an all-NULL row; doubles and dates *)
let edge_app () =
  let app = Artifact.application "EDGES" in
  let t =
    Table.create "EDGE"
      [ Schema.column "ID" Sql_type.Integer;
        Schema.column "S" (Sql_type.Varchar None);
        Schema.column "G" Sql_type.Integer;
        Schema.column "X" Sql_type.Double;
        Schema.column "D" Sql_type.Date ]
  in
  let controls = String.init 31 (fun k -> Char.chr (k + 1)) in
  let date m = Value.Date { Atomic.year = 2005; month = m; day = 1 + m } in
  let i n = Value.Int n and str x = Value.Str x and null = Value.Null in
  List.iter (Table.insert t)
    [ [ i 1; str "a<b>c&d"; i 1; Value.Num 1.5; date 1 ];
      [ i 2; str controls; i 1; Value.Num 2.25; date 2 ];
      [ i 3; str ""; i 2; null; date 3 ];
      [ null; str "first column NULL"; i 2; Value.Num 3.0; date 4 ];
      [ i 5; null; i 3; Value.Num 0.1; date 5 ];
      [ i 6; str "tab\tlf\ncr\r"; i 3; Value.Num 1e20; null ];
      [ null; null; null; null; null ];
      [ i 8; str "&amp;&#1;;>"; i 1; Value.Num (-2.5); date 8 ] ];
  ignore (Artifact.import_physical_table app ~project:"P" t);
  app

let edge_queries =
  [ "SELECT E.ID, E.S, E.G, E.X, E.D FROM EDGE E";
    "SELECT E.S, E.D FROM EDGE E WHERE E.G > 1";
    "SELECT E.G, COUNT(*) N, AVG(E.X) A, AVG(E.ID) AI, MIN(E.S) M FROM EDGE E \
     GROUP BY E.G";
    "SELECT E.S, E.X FROM EDGE E WHERE E.X > 1 ORDER BY E.X";
    "SELECT A.ID, B.S, B.D FROM EDGE A LEFT OUTER JOIN EDGE B ON A.ID = B.G";
    "SELECT E.S FROM EDGE E UNION ALL SELECT E.S FROM EDGE E WHERE E.ID IS NULL" ]

let wire_churn_shapes =
  [ "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = 7";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE TIER > 1";
    "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY";
    "SELECT ORDERID, ORDERDATE, STATUS FROM ORDERS WHERE CUSTOMERID = 3" ]

let text_writer_fixed () =
  let all app sqls =
    check_int "every statement translates" (List.length sqls) (text_battery app sqls)
  in
  all (report_app ()) report_queries;
  all (report_app ()) wire_churn_shapes;
  all (fusion_app ()) fusion_queries;
  all (edge_app ()) edge_queries

let text_writer_querygen () =
  let app = report_app () in
  let rng = Random.State.make [| 45 |] in
  let tables = Aqua_dsp.Metadata.list_tables app in
  let sqls =
    List.init 300 (fun _ ->
        Aqua_workload.Querygen.generate_sql
          ~profile:Aqua_workload.Querygen.default_profile rng tables)
  in
  let n = text_battery app sqls in
  check_bool "most generated statements translate" true (n >= 150)

(* The writer's note: one per wrapper FLWOR, after that FLWOR's
   operators — one for agg-group, two for the outer join's halves. *)
let text_writer_notes () =
  let app = report_app () in
  Alcotest.(check (list string)) "agg-group"
    [ "columnar: string-join text writer, 6 cell(s) per row" ]
    (writer_notes app (List.hd report_queries));
  Alcotest.(check (list string)) "outer join"
    [ "columnar: string-join text writer, 3 cell(s) per row";
      "columnar: string-join text writer, 3 cell(s) per row" ]
    (writer_notes app (List.nth report_queries 3))

(* Raw XQuery: the writer takes the marker from the plan and raises the
   interpreter's error on a multi-atom cell; a separator other than ""
   or a return with a part that is neither a literal nor a cell keeps
   the call, and every variant gives the interpreter's text. *)
let text_writer_raw_xquery () =
  let cell e =
    Printf.sprintf
      "fn-bea:if-empty(fn-bea:xml-escape(fn-bea:serialize-atomic(%s)), \"~\")" e
  in
  let joined ?(sep = "") ret =
    Printf.sprintf
      "fn:string-join(for $x in (1, 2, 3) let $s := fn:concat(\"a<\", $x) \
       return %s, \"%s\")"
      ret sep
  in
  let row =
    Printf.sprintf "(\">\", %s, \"<\", %s, \"<\", %s, \"<\", %s)" (cell "$s")
      (cell "()") (cell "$x * 1.5") (cell "-$x")
  in
  let run src =
    let e = Aqua_xquery.Parser.parse_expr src in
    let compiled = Compile.compile_expr e in
    let writer =
      List.exists (fun n -> Helpers.contains ~needle:"text writer" n)
        (Compile.shape compiled)
    in
    (writer, outcome (fun () -> Compile.run compiled),
     outcome (fun () -> Eval.eval (Eval.context ()) e))
  in
  let same what src ~writer:expected =
    let writer, got, oracle = run src in
    check_bool (what ^ ": writer") expected writer;
    match (got, oracle) with
    | Ok a, Ok b ->
      check_bool (what ^ ": same text") true
        (List.length a = List.length b && List.for_all2 Item.equal a b)
    | Error a, Error b -> Alcotest.(check string) (what ^ ": same error") b a
    | _ -> Alcotest.failf "%s: only one side raised" what
  in
  same "wrapper shape" (joined row) ~writer:true;
  (match run (joined row) with
  | _, Ok [ Item.Atomic (Atomic.String text) ], _ ->
    Alcotest.(check string) "marker from the plan" ">a&lt;1<~<1.5<-1>a&lt;2<~<3<-2>a&lt;3<~<4.5<-3"
      text
  | _ -> Alcotest.fail "the writer returned no single string");
  same "multi-atom cell"
    (joined (Printf.sprintf "(\">\", %s)" (cell "($x, $x)")))
    ~writer:true;
  (match run (joined (Printf.sprintf "(\">\", %s)" (cell "($x, $x)"))) with
  | _, Error e, _ ->
    Helpers.assert_contains
      ~needle:"fn-bea:serialize-atomic expects at most one atomic value" e
  | _ -> Alcotest.fail "a multi-atom cell was written");
  same "comma separator" (joined ~sep:"," row) ~writer:false;
  same "extra return part"
    (joined (Printf.sprintf "(\">\", %s, $x)" (cell "$s")))
    ~writer:false;
  same "cell-less return" (joined "(\">\", \"<\")") ~writer:false

(* --------------------------------------------------------------- *)
(* Hoisted closed subexpressions and their probes (DESIGN.md section
   7): uncorrelated IN / NOT IN / ANY / ALL / EXISTS, scalar subqueries
   in WHERE and HAVING, and INTERSECT / EXCEPT [ALL] over one to three
   columns, with NULLs on the left, the right and both sides, empty
   outer tables and subqueries, and a subquery that fails under an
   empty outer table.  Compiled, prepared and interpreted, against the
   SQL reference engine at every edge batch size.                      *)

let hoist_app () =
  let app = Artifact.application "HS" in
  let int_col name = Schema.column name Sql_type.Integer in
  let str_col name = Schema.column ~nullable:false name (Sql_type.Varchar (Some 8)) in
  let table name cols rows =
    let t = Table.create name cols in
    List.iter (Table.insert t) rows;
    ignore (Artifact.import_physical_table app ~project:"P" t);
    t
  in
  let i n = Value.Int n and s x = Value.Str x and null = Value.Null in
  let cols k = [ int_col k; str_col "NAME"; int_col "G" ] in
  ignore
    (table "L" (cols "ID")
       [ [ i 1; s "a"; i 1 ]; [ i 2; s "b"; null ]; [ null; s "c"; i 1 ];
         [ i 3; s "d"; i 2 ]; [ i 2; s "e"; null ]; [ i 2; s "b"; null ] ]);
  let r =
    table "R" (cols "LID")
      [ [ i 1; s "a"; i 1 ]; [ i 2; s "b"; null ]; [ i 2; s "b"; null ];
        [ null; s "c"; i 1 ]; [ i 4; s "x"; i 3 ]; [ i 1; s "z"; i 1 ] ]
  in
  ignore (table "RN" (cols "LID") [ [ i 1; s "a"; i 1 ]; [ i 2; s "b"; i 2 ]; [ i 5; s "q"; i 5 ] ]);
  ignore (table "E" (cols "LID") []);
  (app, r)

let hoisted_queries =
  [ (* IN: NULLs on both sides, on the left only, an empty subquery *)
    "SELECT NAME FROM L WHERE ID IN (SELECT LID FROM R)";
    "SELECT NAME FROM L WHERE ID IN (SELECT LID FROM RN WHERE G < 5)";
    "SELECT NAME FROM L WHERE ID IN (SELECT LID FROM E)";
    (* NOT IN: a NULL on the right yields no rows; a NULL on the left a
       row only when the subquery is empty *)
    "SELECT NAME FROM L WHERE ID NOT IN (SELECT LID FROM R)";
    "SELECT NAME FROM L WHERE ID NOT IN (SELECT LID FROM RN)";
    "SELECT NAME FROM L WHERE ID NOT IN (SELECT LID FROM E)";
    "SELECT NAME FROM L WHERE ID NOT IN (SELECT LID FROM R WHERE LID IS NOT NULL)";
    (* quantified comparisons *)
    "SELECT NAME FROM L WHERE ID = ANY (SELECT LID FROM R WHERE G = 1)";
    "SELECT NAME FROM L WHERE ID > ALL (SELECT LID FROM RN)";
    "SELECT NAME FROM L WHERE ID > ALL (SELECT LID FROM E)";
    "SELECT NAME FROM L WHERE ID <> ALL (SELECT LID FROM RN)";
    (* scalar subqueries in WHERE and HAVING; one returns NULL *)
    "SELECT NAME FROM L WHERE ID > (SELECT AVG(LID) FROM R)";
    "SELECT NAME FROM L WHERE ID > (SELECT MAX(LID) FROM E)";
    "SELECT G, COUNT(*) N FROM L GROUP BY G HAVING COUNT(*) > (SELECT COUNT(*) FROM RN) - 2";
    (* uncorrelated EXISTS *)
    "SELECT NAME FROM L WHERE EXISTS (SELECT 1 FROM R WHERE G = 3)";
    "SELECT NAME FROM L WHERE NOT EXISTS (SELECT 1 FROM E)";
    (* an empty outer table, and a subquery no row reaches that fails *)
    "SELECT NAME FROM E WHERE LID IN (SELECT LID FROM R)";
    "SELECT NAME FROM E WHERE LID NOT IN (SELECT LID FROM R)";
    "SELECT NAME FROM E WHERE LID IN (SELECT 1 / 0 FROM R)";
    "SELECT NAME FROM E WHERE LID > (SELECT LID FROM R)";
    (* set operations over one, two and three columns *)
    "SELECT ID FROM L INTERSECT SELECT LID FROM R";
    "SELECT ID FROM L EXCEPT SELECT LID FROM R";
    "SELECT ID, NAME FROM L INTERSECT SELECT LID, NAME FROM R";
    "SELECT ID, NAME FROM L EXCEPT SELECT LID, NAME FROM R";
    "SELECT ID, NAME, G FROM L INTERSECT ALL SELECT LID, NAME, G FROM R";
    "SELECT ID, NAME, G FROM L EXCEPT ALL SELECT LID, NAME, G FROM R";
    "SELECT ID, G FROM L INTERSECT ALL SELECT LID, G FROM R";
    "SELECT ID, NAME FROM L INTERSECT SELECT LID, NAME FROM E";
    "SELECT LID, NAME FROM E EXCEPT SELECT ID, NAME FROM L";
    "SELECT ID FROM L EXCEPT ALL SELECT LID FROM RN" ]

let outcome_of f =
  match f () with
  | (rs : Rowset.t) -> Ok rs
  | exception e -> Error (Printexc.to_string e)

let hoisted_battery () =
  let app, _ = hoist_app () in
  let oracle_env = Aqua_sqlengine.Engine.env_of_application app in
  let col = Connection.connect app in
  let interp = Connection.connect ~optimize:false app in
  let prepared sql =
    outcome_of (fun () ->
        Result_set.to_rowset
          (Connection.Prepared.execute_query (Connection.Prepared.prepare col sql)))
  in
  List.iter
    (fun sql ->
      let _, report =
        Optimize.query (Helpers.translate app sql).Aqua_translator.Translator.xquery
      in
      (* an uncorrelated EXISTS reads no row: pushdown already moves it
         ahead of every for, where it runs once *)
      if not (Helpers.contains ~needle:"EXISTS" sql) then
        check_bool ("hoisted on " ^ sql) true (report.Optimize.hoisted >= 1);
      let oracle =
        outcome_of (fun () -> Aqua_sqlengine.Engine.execute_sql oracle_env sql)
      in
      (match oracle with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "reference engine failed on %s: %s" sql e);
      List.iter
        (fun size ->
          with_batch_size size @@ fun () ->
          let what engine = Printf.sprintf "hoisted %s@%d" engine size in
          agree ~what:(what "columnar") sql (run col sql) oracle;
          agree ~what:(what "prepared") sql (prepared sql) oracle;
          agree ~what:(what "interpreter") sql (run interp sql) oracle)
        edge_sizes)
    hoisted_queries

(* Which probe each shape lowers to: the optimizer's counts and the
   engine's notes agree. *)
let hoisted_probe_notes () =
  let app, _ = hoist_app () in
  let srv = Aqua_dsp.Server.create app in
  List.iter
    (fun (sql, semi, anti, setop) ->
      let q = (Helpers.translate app sql).Aqua_translator.Translator.xquery in
      let _, r = Optimize.query q in
      let what = Printf.sprintf "%s: %s" sql in
      check_int (what "semi-joins") semi r.Optimize.semi_joins;
      check_int (what "anti-joins") anti r.Optimize.anti_joins;
      check_int (what "set-op probes") setop r.Optimize.setop_probes;
      let notes = Aqua_dsp.Server.shape (Aqua_dsp.Server.prepare srv q) in
      let count prefix =
        List.length (List.filter (String.starts_with ~prefix) notes)
      in
      check_int (what "semi-join notes") semi (count "columnar: semi-join probe");
      check_int (what "anti-join notes") anti (count "columnar: anti-join probe");
      check_int (what "set-op notes") setop (count "columnar: set-op probe");
      check_bool (what "hoisted notes") true (count "columnar: hoisted value" >= 1))
    [ ("SELECT NAME FROM L WHERE ID IN (SELECT LID FROM R)", 1, 0, 0);
      ("SELECT NAME FROM L WHERE ID = ANY (SELECT LID FROM R)", 1, 0, 0);
      ("SELECT NAME FROM L WHERE ID NOT IN (SELECT LID FROM R)", 0, 1, 0);
      ("SELECT NAME FROM L WHERE ID > ALL (SELECT LID FROM R)", 0, 0, 0);
      ("SELECT ID, NAME FROM L INTERSECT SELECT LID, NAME FROM R", 0, 0, 1);
      ("SELECT ID FROM L EXCEPT ALL SELECT LID FROM R", 0, 0, 1) ]

(* The hoisted value lives in the run, not in the plan: a cached plan
   run again after an insert into the subquery's table reads the new
   row, and a sibling with another literal reads its own subquery. *)
let hoisted_value_per_run () =
  let app, r = hoist_app () in
  let oracle_env = Aqua_sqlengine.Engine.env_of_application app in
  let col = Connection.connect app in
  let oracle sql = outcome_of (fun () -> Aqua_sqlengine.Engine.execute_sql oracle_env sql) in
  let check sql = agree ~what:"cached plan" sql (run col sql) (oracle sql) in
  let in_sql g = Printf.sprintf "SELECT NAME FROM L WHERE ID IN (SELECT LID FROM R WHERE G = %d)" g in
  let not_in_sql g =
    Printf.sprintf "SELECT NAME FROM L WHERE ID NOT IN (SELECT LID FROM R WHERE G = %d)" g
  in
  let inter = "SELECT ID, NAME FROM L INTERSECT SELECT LID, NAME FROM R" in
  List.iter
    (fun size ->
      with_batch_size size @@ fun () ->
      List.iter check [ in_sql 1; in_sql 3; not_in_sql 1; not_in_sql 3; inter ])
    edge_sizes;
  with_telemetry (fun () ->
      Table.insert r [ Value.Int 3; Value.Str "d"; Value.Int 1 ];
      List.iter check [ in_sql 1; in_sql 3; not_in_sql 1; not_in_sql 3; inter ];
      check_int "the statements reused their plans" 5
        (Telemetry.value Telemetry.c_cache_hits))

(* A deterministic guard against a return to per-row evaluation: at
   the report workload's sizes, each of these reads its inner scan once
   per run, so the columnar batches carry about |outer| + |inner| rows,
   where a per-row subquery carries |outer| x |inner|.  The reference
   engine answers them too, at these sizes. *)
let hoisted_reads_inner_once () =
  let sizes =
    { Aqua_workload.Datagen.customers = 300; orders = 5000; lines_per_order = 2;
      payments = 300 }
  in
  let app = Aqua_workload.Datagen.application ~seed:45 sizes in
  let conn = Connection.connect app in
  let oracle_env = Aqua_sqlengine.Engine.env_of_application app in
  let outer = sizes.customers and inner = sizes.orders in
  List.iter
    (fun sql ->
      (* the reference engine runs each subquery once per statement too *)
      agree ~what:"report sizes" sql (run conn sql)
        (outcome_of (fun () -> Aqua_sqlengine.Engine.execute_sql oracle_env sql));
      with_telemetry @@ fun () ->
      ignore (Connection.execute_query conn sql);
      let rows = (Telemetry.snapshot ()).Telemetry.columnar_rows in
      if rows > 4 * (outer + inner) then
        Alcotest.failf "%s: batches carried %d rows, over 4 x (%d + %d)" sql rows
          outer inner)
    [ "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID IN (SELECT CUSTOMERID \
       FROM ORDERS WHERE PRIORITY = 4)";
      "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID NOT IN (SELECT \
       CUSTOMERID FROM ORDERS WHERE PRIORITY = 4)";
      "SELECT CUSTOMERID FROM CUSTOMERS INTERSECT SELECT CUSTOMERID FROM ORDERS" ]

(* --------------------------------------------------------------- *)
(* Kernel groups at scale: random GROUP BY statements against both
   oracles, no forced minor collection per run, and allocation that
   grows with the groups, not the rows.                              *)

(* Group counts across the growth boundaries of the old per-group
   arrays (256 and 512 slots) and past them. *)
let kernel_group_counts = [ 1; 3; 255; 256; 257; 300; 5000 ]

(* A 5100-row table with one NOT NULL key column per group count
   ([Gn] holds [n] values, scattered so groups interleave) and
   NULL-heavy INTEGER, DOUBLE, DECIMAL and VARCHAR columns; [S] holds
   numeric text and, on every 97th row, text no cast accepts. *)
let kernel_app =
  lazy
    (let app = Artifact.application "KB" in
     let t =
       Table.create "K"
         (List.map
            (fun g ->
              Schema.column ~nullable:false (Printf.sprintf "G%d" g)
                Sql_type.Integer)
            kernel_group_counts
         @ [ Schema.column "I" Sql_type.Integer;
             Schema.column "D" Sql_type.Double;
             Schema.column "M" (Sql_type.Decimal (Some (8, 2)));
             Schema.column "S" (Sql_type.Varchar (Some 12)) ])
     in
     let rng = Random.State.make [| 36 |] in
     let texts = [| "12"; "7"; "-3"; "0010"; "250"; "4" |] in
     let null_heavy v = if Random.State.int rng 10 < 4 then Value.Null else v in
     for r = 0 to 5099 do
       Table.insert t
         (List.map (fun g -> Value.Int (r * 7919 mod g)) kernel_group_counts
         @ [ null_heavy (Value.Int (Random.State.int rng 2001 - 1000));
             null_heavy (Value.Num (float (Random.State.int rng 4001 - 2000) /. 8.));
             null_heavy
               (Value.Num (float (Random.State.int rng 20001 - 10000) /. 100.));
             (if r mod 97 = 0 then Value.Str "abc"
              else null_heavy (Value.Str texts.(Random.State.int rng 6))) ])
     done;
     ignore (Artifact.import_physical_table app ~project:"P" t);
     app)

let kernel_statement =
  let open QCheck.Gen in
  let key_cols =
    List.map (Printf.sprintf "K.G%d") kernel_group_counts @ [ "K.I"; "K.S"; "K.M" ]
  in
  let num = oneofl [ "K.I"; "K.D"; "K.M" ] in
  let any = oneofl [ "K.I"; "K.D"; "K.M"; "K.S" ] in
  let agg =
    frequency
      [ (3, return "COUNT(*)");
        (2, map (Printf.sprintf "COUNT(%s)") any);
        (3, map (Printf.sprintf "SUM(%s)") num);
        (2, map (Printf.sprintf "AVG(%s)") num);
        (2, map (Printf.sprintf "MIN(%s)") any);
        (2, map (Printf.sprintf "MAX(%s)") any);
        (1, return "SUM(CAST(K.S AS INTEGER))");
        (1, return "AVG(CAST(K.S AS DOUBLE PRECISION))");
        (1, return "MAX(CAST(K.S AS INTEGER))");
        (1, return "COUNT(CAST(K.S AS INTEGER))") ]
  in
  let where =
    oneof
      [ return ""; map (Printf.sprintf " WHERE K.G257 < %d") (int_range 1 40);
        return " WHERE K.I IS NULL" ]
  in
  let* nkeys = frequency [ (3, return 1); (1, return 2) ] in
  let* keys = list_repeat nkeys (oneofl key_cols) in
  let keys = List.sort_uniq compare keys in
  let* aggs = list_size (int_range 1 4) agg in
  let* where = where in
  (* through a derived table, a cast column is a kernel input read
     through the row record, evaluated per row *)
  let* from =
    oneofl
      [ "K";
        "(SELECT G1, G3, G255, G256, G257, G300, G5000, I, D, M, S, CAST(S AS \
         INTEGER) SI FROM K) AS K" ]
  in
  let* aggs =
    if from = "K" then return aggs
    else
      let* extra = oneofl [ "COUNT(K.SI)"; "SUM(K.SI)"; "MAX(K.SI)"; "AVG(K.SI)" ] in
      return (aggs @ [ extra ])
  in
  return
    (Printf.sprintf "SELECT %s, %s FROM %s%s GROUP BY %s" (String.concat ", " keys)
       (String.concat ", " (List.mapi (fun i a -> Printf.sprintf "%s A%d" a i) aggs))
       from where (String.concat ", " keys))

(* rows, or the error's SQLSTATE and message *)
let outcome_state f =
  match f () with
  | (rs : Rowset.t) -> Ok rs
  | exception e ->
    Error ((Aqua_driver.Sql_error.classify e).Sqlstate.sqlstate, Printexc.to_string e)

let agree_state ?(messages = true) ~what sql got oracle =
  match (got, oracle) with
  | Ok g, Ok o -> agree ~what sql (Ok g) (Ok o)
  | Error g, Error o when (if messages then g = o else fst g = fst o) -> ()
  | _ ->
    let show = function
      | Ok rs -> Printf.sprintf "%d row(s)" (List.length rs.Rowset.rows)
      | Error (s, m) -> Printf.sprintf "[%s] %s" s m
    in
    Alcotest.failf "%s on %s: %s, oracle %s" what sql (show got) (show oracle)

let prop_kernel_battery =
  QCheck.Test.make ~name:"kernel groups agree with both oracles" ~count:40
    (QCheck.make ~print:Fun.id kernel_statement)
    (fun sql ->
      let app = Lazy.force kernel_app in
      let exec conn () = Result_set.to_rowset (Connection.execute_query conn sql) in
      let interp = outcome_state (exec (Connection.connect ~optimize:false app)) in
      let reference =
        outcome_state (fun () ->
            Aqua_sqlengine.Engine.execute_sql
              (Aqua_sqlengine.Engine.env_of_application app)
              sql)
      in
      agree_state ~messages:false ~what:"interpreter vs reference engine" sql
        interp reference;
      let col = Connection.connect app in
      List.iter
        (fun size ->
          with_batch_size size @@ fun () ->
          let got = outcome_state (exec col) in
          agree_state ~what:(Printf.sprintf "kernels@%d" size) sql got interp)
        [ 1; 7; 1024 ];
      true)

(* The same over XQuery the translator does not emit: every kernel
   kind, fn:empty and fn:exists included, over random padded, non-numeric
   and absent text, so deferred kernel errors run, and over a cast
   field whose error must raise at its row; against the interpreter,
   results and error messages. *)
let prop_kernel_xq_battery =
  let gen =
    let open QCheck.Gen in
    let x = oneofl [ "<X>5</X>"; "<X> 7 </X>"; "<X>2.5</X>"; "<X>abc</X>"; "<X>NaN</X>"; "<X>-1e1</X>"; "" ] in
    let* groups = oneofl [ 1; 3; 255; 256; 257; 300 ] in
    let* nrows = int_range 1 700 in
    let* xs = list_repeat nrows x in
    let* aggs =
      list_size (int_range 1 3)
        (oneofl
           [ "fn:count($p)"; "fn:count($p/X)"; "fn:sum($p/X)"; "fn:avg($p/X)";
             "fn:min($p/X)"; "fn:max($p/X)"; "fn:empty($p/X)"; "fn:exists($p/X)";
             "fn:empty($p)"; "fn:exists($p)";
             "if (fn:empty($p/X)) then () else fn:sum($p/X)";
             "fn:count($p/Y)"; "fn:sum($p/Y)"; "fn:max($p/Y)" ])
    in
    let rows =
      String.concat ""
        (List.mapi (fun r x -> Printf.sprintf "<R><K>%d</K>%s</R>" (r * 7919 mod groups) x) xs)
    in
    (* [Y] is a derived cell that raises on text xs:int rejects *)
    return
      ( rows,
        Printf.sprintf
          "for $v in t:D() let $r := <RECORD>{if (fn:empty($v/K)) then () else \
           <K>{fn:data($v/K)}</K>}{if (fn:empty($v/X)) then () else \
           <X>{fn:data($v/X)}</X>}{if (fn:empty($v/X)) then () else \
           <Y>{xs:int(fn:data($v/X))}</Y>}</RECORD> group $r as $p by \
           aqua:content-data(fn:data($v/K)) as $k return ($k, (%s))"
          (String.concat ", " aggs) )
  in
  QCheck.Test.make ~name:"kernel groups on raw XQuery agree with the interpreter"
    ~count:25
    (QCheck.make ~print:(fun (rows, src) -> src ^ "\n" ^ rows) gen)
    (fun (rows, src) ->
      let items = xq_rows rows in
      let resolve = function "t:D" -> Some (fun _ -> items) | _ -> None in
      let e = Aqua_xquery.Parser.parse_expr src in
      let ser = Aqua_xml.Serialize.sequence_to_string in
      let outcome f =
        match f () with r -> Ok (ser r) | exception e -> Error (Printexc.to_string e)
      in
      let oracle = outcome (fun () -> Eval.eval (Eval.context ~resolve ()) e) in
      List.iter
        (fun size ->
          with_batch_size size @@ fun () ->
          let got =
            outcome (fun () ->
                Compile.run (Compile.compile_expr ~resolve ~node_fns:d_node_fns e))
          in
          if got <> oracle then
            Alcotest.failf "@%d: columnar %s, interpreter %s" size
              (match got with Ok s -> s | Error e -> "raised " ^ e)
              (match oracle with Ok s -> s | Error e -> "raised " ^ e))
        [ 1; 7; 1024 ];
      true)

(* An ORDERS table of [orders] rows over 300 customers; at 2500 and
   5000 rows every one of them has an order (checked where used). *)
let groups_app orders =
  Aqua_workload.Datagen.application ~seed:47
    { Aqua_workload.Datagen.customers = 300; orders; lines_per_order = 1;
      payments = 10 }

let warm_rows conn sql =
  let rows () = List.length (rows_of (Connection.execute_query conn sql)) in
  ignore (rows ());
  rows ()

(* Growing the per-group arrays past 256 words with a freshly allocated
   initial value made [Array.make] empty the minor heap: one forced
   minor collection per run of every group by with more than 256
   groups.  With a minor heap far larger than a run allocates, a warm
   run must now take none, through the kernel group and through the
   materializing group DISTINCT lowers to. *)
let group_runs_force_no_minor () =
  let conn = Connection.connect (groups_app 2500) in
  let prev = Gc.get () in
  Gc.set { prev with Gc.minor_heap_size = 4 * 1024 * 1024 };
  Fun.protect ~finally:(fun () -> Gc.set prev) @@ fun () ->
  List.iter
    (fun sql ->
      check_int ("300 groups: " ^ sql) 300 (warm_rows conn sql);
      Gc.minor ();
      let before = (Gc.quick_stat ()).Gc.minor_collections in
      ignore (Connection.execute_query conn sql);
      check_int ("minor collections during a warm run of " ^ sql) before
        (Gc.quick_stat ()).Gc.minor_collections)
    [ "SELECT CUSTOMERID, COUNT(*) N FROM ORDERS GROUP BY CUSTOMERID";
      "SELECT DISTINCT CUSTOMERID FROM ORDERS" ]

(* The kernels' allocation per run, as the words a warm aggregate
   statement allocates beyond its key-only twin, is per group: doubling
   the rows over the same 300 groups adds under a quarter of a word per
   added row (a boxed float per SUM or AVG update added two).  Counted
   at the default batch size: per-batch work is not under test. *)
let kernel_alloc_per_group () =
  let agg =
    "SELECT CUSTOMERID, SUM(PRIORITY) S, AVG(PRIORITY) A, MIN(PRIORITY) MN, \
     MAX(PRIORITY) MX FROM ORDERS GROUP BY CUSTOMERID"
  and key = "SELECT CUSTOMERID FROM ORDERS GROUP BY CUSTOMERID" in
  with_batch_size 1024 @@ fun () ->
  let kernel_words orders =
    let conn = Connection.connect (groups_app orders) in
    let words sql =
      check_int ("300 groups: " ^ sql) 300 (warm_rows conn sql);
      let w = Gc.minor_words () in
      ignore (Connection.execute_query conn sql);
      Gc.minor_words () -. w
    in
    words agg -. words key
  in
  let small = kernel_words 2500 and large = kernel_words 5000 in
  if large -. small > 2500. /. 4. then
    Alcotest.failf
      "kernel words per run grow with the rows: %.0f at 2500 rows, %.0f at 5000"
      small large

let suite =
  ( "columnar",
    [ Helpers.case "battery agrees at batch size 1" (battery_at_size 1);
      Helpers.case "battery agrees at batch size 2" (battery_at_size 2);
      Helpers.case "battery agrees at batch size 7" (battery_at_size 7);
      Helpers.case "battery agrees at batch size 1024" (battery_at_size 1024);
      Helpers.case "aggregation kernels agree at every edge size"
        aggregation_battery;
      Helpers.qcheck prop_columnar_differential;
      Helpers.case "governors trip at batch boundaries"
        governors_under_columnar;
      Helpers.case "mid-stream batch fault falls back"
        midstream_failpoint_falls_back;
      Helpers.case "columnar counters respect the toggle"
        columnar_counters_respect_toggle;
      Helpers.case "pruning and kernel notes in analyze output"
        pruning_notes_golden;
      Helpers.case "non-kernelizable groups agree"
        non_kernelizable_group_agrees;
      Helpers.case "batched probe matches row-wise probe"
        probe_batch_matches_probe;
      Helpers.case "group keys stay injective under buffer reuse"
        group_key_injective_after_buffer_reuse;
      Helpers.case "correlated probes agree with the reference engine"
        correlated_probe_battery;
      Helpers.case "correlated probes under faults and governors"
        correlated_probe_faults;
      Helpers.case "shadowed name read past a group (liveness by slot)"
        shadowed_name_after_group;
      Helpers.case "fused plans agree with both oracles"
        fused_plans_agree;
      Helpers.case "fused plans under faults and governors"
        fused_plans_under_faults;
      Helpers.case "scan projection agrees on report and paper shapes"
        projection_report_and_paper;
      Helpers.case "scan projection shapes agree with the interpreter"
        projection_shapes;
      Helpers.case "scan projection memo follows source identity"
        projection_memo_revision;
      Helpers.case "appended rows extend the memo, never a stale prefix"
        appended_rows_extend_the_memo;
      Helpers.case "scan projection with the scan cache off"
        projection_without_scan_cache;
      Helpers.case "scan projection memo cell bound"
        projection_cell_bound;
      Helpers.case "value ids: a probe column past the cell bound"
        probe_id_cell_bound;
      Helpers.case "scan projection parity with the unprojected lowering"
        projection_parity;
      Helpers.case "derived cell columns agree with the oracles"
        derived_cells_agree;
      Helpers.case "derived cell columns keep error messages and order"
        derived_xq_shapes;
      Helpers.case "analyze notes are the engine's decisions" engine_notes;
      Helpers.case "kernel column update equals the one-shot functions"
        kernel_fast_path_table;
      Helpers.case "memoized key components concatenate to the composite"
        key_components_concatenate;
      Helpers.case "value ids: untyped probes and secondary keys"
        ids_probe_secondary_keys;
      Helpers.case "value ids: cardinality errors at the same row"
        ids_cardinality_error;
      Helpers.case "value ids: equal integers and doubles group once"
        ids_group_mixed_numbers;
      Helpers.case "value ids: SQL shapes, inserts, anti-join"
        ids_sql_shapes;
      Helpers.case "derived cell memo lifecycle on report"
        derived_memo_lifecycle;
      Helpers.case "text writer matches the interpreter byte for byte"
        text_writer_fixed;
      Helpers.case "text writer on generated statements" text_writer_querygen;
      Helpers.case "text writer notes" text_writer_notes;
      Helpers.case "text writer on raw XQuery" text_writer_raw_xquery;
      Helpers.case "hoisted subqueries and set operations agree"
        hoisted_battery;
      Helpers.case "hoisted probes: counts and notes" hoisted_probe_notes;
      Helpers.case "a hoisted value is per run" hoisted_value_per_run;
      Helpers.case "hoisted subqueries read the inner scan once per run"
        hoisted_reads_inner_once;
      Helpers.qcheck prop_kernel_battery;
      Helpers.qcheck prop_kernel_xq_battery;
      Helpers.case "group-by runs force no minor collection"
        group_runs_force_no_minor;
      Helpers.case "kernel allocation grows with groups, not rows"
        kernel_alloc_per_group ] )
