(* The compiled batch engine against the interpreter oracle (DESIGN.md
   section 12): compiled plans, executed or prepared, must be
   observationally identical to the interpreter at every batch size —
   including sizes that leave a partial final batch — while budget
   probes still fire at batch boundaries, failpoints inside the batch
   pipeline still degrade gracefully, and the batch counters stay
   silent under the interpreter. *)

module Connection = Aqua_driver.Connection
module Result_set = Aqua_driver.Result_set
module Rowset = Aqua_relational.Rowset
module Schema = Aqua_relational.Schema
module Sql_type = Aqua_relational.Sql_type
module Table = Aqua_relational.Table
module Value = Aqua_relational.Value
module Engine = Aqua_sqlengine.Engine
module Artifact = Aqua_dsp.Artifact
module Scan_cache = Aqua_dsp.Scan_cache
module Server = Aqua_dsp.Server
module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item
module Batch = Aqua_xqeval.Batch
module Budget = Aqua_resilience.Budget
module Failpoint = Aqua_resilience.Failpoint
module Sqlstate = Aqua_resilience.Sqlstate
module Telemetry = Aqua_core.Telemetry

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* The edge-case sweep: 1 degenerates to row-at-a-time shape, 2 and 7
   leave partial final batches on every realistic cardinality, 1024 is
   the shipping default (most plans fit one batch). *)
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

(* Execute through the driver, capturing errors: a statement on which
   both evaluators raise (same governor, same dynamic error class)
   counts as agreement. *)
let run conn sql =
  match Result_set.to_rowset (Connection.execute_query conn sql) with
  | rs -> Ok rs
  | exception e -> Error (Printexc.to_string e)

(* The same statement prepared and executed: the plan [Server.prepare]
   compiles once, run at the current batch size. *)
let run_prepared conn sql =
  match
    Result_set.to_rowset
      (Connection.Prepared.execute_query (Connection.Prepared.prepare conn sql))
  with
  | rs -> Ok rs
  | exception e -> Error (Printexc.to_string e)

let agree ~what sql vec oracle =
  match (vec, oracle) with
  | Ok v, Ok o -> (
    match Rowset.diff_summary o v with
    | None -> ()
    | Some msg ->
      Alcotest.failf "%s diverged on %s: %s\n-- oracle:\n%s\n-- compiled:\n%s"
        what sql msg (Rowset.to_string o) (Rowset.to_string v))
  | Error _, Error _ -> ()
  | Ok _, Error e ->
    Alcotest.failf "%s: oracle raised (%s) but compiled succeeded on %s"
      what e sql
  | Error e, Ok _ ->
    Alcotest.failf "%s: compiled raised (%s) but oracle succeeded on %s"
      what e sql

(* --------------------------------------------------------------- *)
(* Fixed batteries: the full differential battery (demo app), prepared,
   and the paper's running examples (Datagen app, the P6 schema).    *)

let battery_at_size size () =
  let app = Helpers.demo_app () in
  let compiled = Connection.connect app in
  let oracle = Connection.connect ~optimize:false app in
  with_batch_size size @@ fun () ->
  List.iter
    (fun sql ->
      agree ~what:(Printf.sprintf "battery@%d" size) sql
        (run_prepared compiled sql) (run oracle sql))
    Test_differential.battery

(* The queries the paper's examples reduce to on the benchmark schema,
   P6 join shape included. *)
let paper_queries =
  [ "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERNAME LIKE 'C%'";
    "SELECT * FROM CUSTOMERS";
    "SELECT C.CUSTOMERNAME, O.ORDERID FROM CUSTOMERS C, ORDERS O \
     WHERE C.CUSTOMERID = O.CUSTOMERID AND O.PRIORITY > 1";
    "SELECT C.CUSTOMERID, P.PAYMENT FROM CUSTOMERS C LEFT OUTER JOIN \
     PAYMENTS P ON C.CUSTOMERID = P.CUSTID";
    "SELECT INFO.ID, INFO.NAME FROM (SELECT CUSTOMERID ID, CUSTOMERNAME NAME \
     FROM CUSTOMERS) AS INFO WHERE INFO.ID > 3";
    "SELECT O.STATUS, COUNT(*) N, SUM(O.PRIORITY) S FROM ORDERS O \
     GROUP BY O.STATUS ORDER BY O.STATUS";
    "SELECT C.CUSTOMERNAME, (SELECT COUNT(*) FROM ORDERS O \
     WHERE O.CUSTOMERID = C.CUSTOMERID) N FROM CUSTOMERS C" ]

let bench_app = lazy (
  Aqua_workload.Datagen.application
    { Aqua_workload.Datagen.customers = 12; orders = 25; lines_per_order = 2;
      payments = 18 })

let paper_battery () =
  let app = Lazy.force bench_app in
  let compiled = Connection.connect app in
  let oracle = Connection.connect ~optimize:false app in
  List.iter
    (fun size ->
      with_batch_size size @@ fun () ->
      List.iter
        (fun sql ->
          agree ~what:(Printf.sprintf "paper@%d" size) sql (run compiled sql)
            (run oracle sql))
        paper_queries)
    edge_sizes

(* --------------------------------------------------------------- *)
(* Randomized differential sweep: every generated statement, prepared,
   must agree with the interpreter at every edge batch size.         *)

let prop_vectorized_differential =
  let app = Lazy.force bench_app in
  let tables = Aqua_dsp.Metadata.list_tables app in
  let compiled = Connection.connect app in
  let oracle = Connection.connect ~optimize:false app in
  QCheck.Test.make ~name:"random statements agree at every batch size"
    ~count:60
    QCheck.(
      make
        (fun rand -> Aqua_workload.Querygen.generate rand tables)
        ~print:Aqua_sql.Pretty.statement_to_string)
    (fun stmt ->
      let sql = Aqua_sql.Pretty.statement_to_string stmt in
      let expected = run oracle sql in
      List.iter
        (fun size ->
          with_batch_size size @@ fun () ->
          agree ~what:(Printf.sprintf "qcheck@%d" size) sql
            (run_prepared compiled sql) expected)
        edge_sizes;
      true)

(* --------------------------------------------------------------- *)
(* Budget probes at batch boundaries: the compiled pipeline calls
   Budget.probe between batches, so governors trip with the same
   SQLSTATEs as the interpreter — even when the whole result fits a
   single batch.                                                     *)

let sqlstate_of_query conn sql =
  match Connection.execute_query conn sql with
  | exception Sqlstate.Error e -> e.Sqlstate.sqlstate
  | _ -> Alcotest.fail "expected the governor to trip"

let governors_under_vectorization () =
  let app = Helpers.demo_app () in
  let sql = "SELECT * FROM CUSTOMERS" in
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
        Connection.connect ~limits:(Budget.limits ~max_rows:2 ()) app
      in
      Alcotest.(check string)
        (Printf.sprintf "row governor @%d" size)
        "53400" (sqlstate_of_query rows sql);
      let deadline =
        Connection.connect ~limits:(Budget.limits ~timeout_ms:0 ()) app
      in
      Alcotest.(check string)
        (Printf.sprintf "deadline probed at batch boundary @%d" size)
        "57014" (sqlstate_of_query deadline sql))
    [ 1; 7; 1024 ]

(* --------------------------------------------------------------- *)
(* Failpoint inside the batch pipeline: the "xqeval.batch" site fires
   once per batch boundary; a fault there must degrade to the
   interpreter rerun (which never reaches the site) and still produce
   the oracle rows.                                                  *)

let failpoint_falls_back_to_oracle () =
  let app = Helpers.demo_app () in
  let sql =
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C INNER JOIN PAYMENTS P \
     ON C.CUSTOMERID = P.CUSTID"
  in
  let oracle = Engine.execute_sql (Engine.env_of_application app) sql in
  with_telemetry @@ fun () ->
  with_failpoints "xqeval.batch=fail" @@ fun () ->
  let conn = Connection.connect app in
  let rs = Connection.execute_query conn sql in
  (match Rowset.diff_summary oracle (Result_set.to_rowset rs) with
  | None -> ()
  | Some msg -> Alcotest.failf "fallback produced wrong rows: %s" msg);
  check_bool "the batch fault actually fired" true
    (Telemetry.value Telemetry.c_faults_injected >= 1);
  check_bool "fallback counted" true
    (Telemetry.value Telemetry.c_fallbacks_unoptimized >= 1)

(* A mid-stream fault (second batch boundary) exercises partial-batch
   teardown before the fallback rerun. *)
let midstream_failpoint_falls_back () =
  let app = Helpers.demo_app () in
  let sql = "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS" in
  let oracle = Engine.execute_sql (Engine.env_of_application app) sql in
  with_batch_size 2 @@ fun () ->
  with_failpoints "xqeval.batch=at(2)" @@ fun () ->
  let conn = Connection.connect app in
  let rs = Connection.execute_query conn sql in
  match Rowset.diff_summary oracle (Result_set.to_rowset rs) with
  | None -> ()
  | Some msg -> Alcotest.failf "mid-stream fallback wrong rows: %s" msg

(* --------------------------------------------------------------- *)
(* Counter hygiene: the interpreter ([~optimize:false]) must leave the
   xqeval.batch.* counters untouched; the compiled path must move
   them.                                                             *)

let batch_counters_respect_toggle () =
  let app = Helpers.demo_app () in
  let sql = "SELECT CUSTOMERID FROM CUSTOMERS WHERE CUSTOMERID > 1" in
  with_telemetry @@ fun () ->
  let oracle = Connection.connect ~optimize:false app in
  ignore (Connection.execute_query oracle sql);
  let m = Telemetry.snapshot () in
  check_int "no batches under the interpreter" 0 m.Telemetry.batch_batches;
  check_int "no batch rows under the interpreter" 0 m.Telemetry.batch_rows;
  check_int "no batch filtering under the interpreter" 0
    m.Telemetry.batch_filtered;
  Telemetry.reset ();
  let compiled = Connection.connect app in
  ignore (Connection.execute_query compiled sql);
  let m = Telemetry.snapshot () in
  check_bool "compiled run pushes batches" true (m.Telemetry.batch_batches > 0);
  check_bool "compiled run carries rows" true (m.Telemetry.batch_rows > 0);
  check_bool "the filter dropped rows in-batch" true
    (m.Telemetry.batch_filtered > 0)

(* --------------------------------------------------------------- *)
(* Join-table reuse across invocations: repeated execution of the same
   plan over unchanged data skips the hash-table build (keyed on the
   physical identity of the cached scan); a data change breaks the
   key and forces a rebuild.                                         *)

let join_app () =
  let app = Artifact.application "JoinApp" in
  let t1 = Table.create "T1" [ Schema.column ~nullable:false "ID" Sql_type.Integer ] in
  let t2 = Table.create "T2" [ Schema.column ~nullable:false "REF" Sql_type.Integer ] in
  List.iter (fun i -> Table.insert t1 [ Value.Int i ]) [ 1; 2; 3; 4 ];
  List.iter (fun i -> Table.insert t2 [ Value.Int i ]) [ 2; 3; 3; 5 ];
  ignore (Artifact.import_physical_table app ~project:"P" t1);
  ignore (Artifact.import_physical_table app ~project:"P" t2);
  (app, t2)

let join_build_reused_until_data_changes () =
  let app, t2 = join_app () in
  let sql = "SELECT A.ID FROM T1 A, T2 B WHERE A.ID = B.REF" in
  with_telemetry @@ fun () ->
  let conn = Connection.connect ~translation_cache:false app in
  let count () =
    List.length
      (Result_set.to_rowset (Connection.execute_query conn sql)).Rowset.rows
  in
  check_int "cold join rows" 3 (count ());
  check_int "one build on the cold run" 1
    (Telemetry.value Telemetry.c_hash_join_builds);
  check_int "nothing to reuse yet" 0
    (Telemetry.value Telemetry.c_hash_join_reused);
  check_int "warm join rows" 3 (count ());
  check_int "warm run built nothing" 1
    (Telemetry.value Telemetry.c_hash_join_builds);
  check_int "warm run reused the table" 1
    (Telemetry.value Telemetry.c_hash_join_reused);
  (* a row insert moves the data revision: the scan cache re-fetches,
     the physical identity key breaks, and the join table is rebuilt *)
  Table.insert t2 [ Value.Int 1 ];
  check_int "post-insert join rows" 4 (count ());
  check_int "data change forced a rebuild" 2
    (Telemetry.value Telemetry.c_hash_join_builds);
  check_int "stale table not reused" 1
    (Telemetry.value Telemetry.c_hash_join_reused)

let suite =
  ( "vectorize",
    [ Helpers.case "battery agrees at batch size 1" (battery_at_size 1);
      Helpers.case "battery agrees at batch size 2" (battery_at_size 2);
      Helpers.case "battery agrees at batch size 7" (battery_at_size 7);
      Helpers.case "battery agrees at batch size 1024" (battery_at_size 1024);
      Helpers.case "paper examples agree at every edge size" paper_battery;
      Helpers.qcheck prop_vectorized_differential;
      Helpers.case "governors trip at batch boundaries"
        governors_under_vectorization;
      Helpers.case "batch fault falls back to the oracle"
        failpoint_falls_back_to_oracle;
      Helpers.case "mid-stream batch fault falls back"
        midstream_failpoint_falls_back;
      Helpers.case "batch counters respect the toggle"
        batch_counters_respect_toggle;
      Helpers.case "join build reused until data changes"
        join_build_reused_until_data_changes ] )
