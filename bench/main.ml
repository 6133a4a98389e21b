(* Benchmark harness regenerating the paper's performance story
   (DESIGN.md experiments P1-P8).  One Bechamel test per measured
   configuration; each experiment prints its table plus the derived
   ratios ("who wins, by what factor") that EXPERIMENTS.md records.

     dune exec bench/main.exe            run everything
     dune exec bench/main.exe -- P1 P3   run selected experiments
     dune exec bench/main.exe -- --smoke P6   tiny scales + short quota (CI)

   All synthetic data is generated from a fixed seed (override with
   BENCH_SEED=<int>) so runs are reproducible; the seed is recorded in
   the emitted BENCH_*.json and printed on any sanity failure. *)

(* the raw ns clock from bechamel's stubs — aliased before [open
   Toolkit], which shadows [Monotonic_clock] with its MEASURE wrapper *)
module Mclock = Monotonic_clock

open Bechamel
open Toolkit

module Connection = Aqua_driver.Connection
module Result_set = Aqua_driver.Result_set
module Translator = Aqua_translator.Translator
module Semantic = Aqua_translator.Semantic
module Generate = Aqua_translator.Generate
module Metadata = Aqua_dsp.Metadata
module Server = Aqua_dsp.Server
module Engine = Aqua_sqlengine.Engine
module Artifact = Aqua_dsp.Artifact
module Datagen = Aqua_workload.Datagen
module Telemetry = Aqua_core.Telemetry
module Obs_stats = Aqua_obs.Stats
module Recorder = Aqua_obs.Recorder
module Histogram = Aqua_obs.Histogram

(* ------------------------------------------------------------------ *)
(* Reproducibility and smoke mode                                     *)

let seed =
  match Option.bind (Sys.getenv_opt "BENCH_SEED") int_of_string_opt with
  | Some s -> s
  | None -> 42

let smoke = ref false

(* Smoke mode (CI): shrink the data scales ~10x and the measurement
   quota so the whole run takes seconds, with the same output schema. *)
let sc n = if !smoke then max 2 (n / 10) else n

let sizes c o l p =
  { Datagen.customers = sc c; orders = sc o; lines_per_order = l;
    payments = sc p }

(* Telemetry spans should use the same monotonic source the benchmark
   measurements do, not the wall clock. *)
let () = Telemetry.set_clock Mclock.now

(* A default-sized (256k-word) nursery forces a minor collection every
   couple of query executions, and whatever is live at that moment —
   for the batch engine, entire in-flight batches — gets promoted and
   later swept by the major collector.  That turns the measurements
   into a lottery over GC phase.  An 8M-word nursery lets intermediate
   rows die young across every engine configuration, so the sweeps
   compare evaluator cost, not promotion luck. *)
let () = Gc.set { (Gc.get ()) with Gc.minor_heap_size = 8 * 1024 * 1024 }

(* ------------------------------------------------------------------ *)
(* Harness                                                            *)

let ols =
  Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]

let instance = Instance.monotonic_clock

let run_benchmarks tests =
  let cfg =
    if !smoke then Benchmark.cfg ~limit:100 ~quota:(Time.second 0.05) ~kde:None ()
    else Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None ()
  in
  let raw = Benchmark.all cfg [ instance ] tests in
  Analyze.all ols instance raw

let estimate results name =
  match Hashtbl.find_opt results name with
  | None -> nan
  | Some ols_result -> (
    match Analyze.OLS.estimates ols_result with
    | Some (e :: _) -> e
    | _ -> nan)

(* Interleaved A/B medians, for overhead comparisons.  Two bechamel
   estimates taken tens of seconds apart drift by far more than a
   few-percent effect (GC state, frequency scaling carried over from
   earlier tests), so small overheads are measured by alternating the
   two configurations and comparing medians of the same window. *)
let ab_median_ratio ?(warmup = 10) ~iters (f : bool -> unit) =
  let time b =
    let t0 = Mclock.now () in
    f b;
    Int64.to_float (Int64.sub (Mclock.now ()) t0)
  in
  for _ = 1 to warmup do
    ignore (time false);
    ignore (time true)
  done;
  let off = ref [] and on_ = ref [] in
  for _ = 1 to iters do
    off := time false :: !off;
    on_ := time true :: !on_
  done;
  let median l = List.nth (List.sort compare l) (iters / 2) in
  median !on_ /. median !off

let pretty_ns ns =
  if Float.is_nan ns then "n/a"
  else if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

let print_table title rows =
  Printf.printf "\n### %s\n\n" title;
  let w =
    List.fold_left (fun acc (name, _) -> max acc (String.length name)) 12 rows
  in
  Printf.printf "%-*s | time/op\n%s-+---------\n" w "case" (String.make w '-');
  List.iter
    (fun (name, ns) -> Printf.printf "%-*s | %s\n" w name (pretty_ns ns))
    rows;
  flush stdout

let ratio a b =
  if Float.is_nan a || Float.is_nan b || b = 0.0 then nan else a /. b

(* ------------------------------------------------------------------ *)
(* P1: result transport — text-encoded vs XML materialization          *)

let p1 () =
  print_endline "\n== P1: result handling, text transport vs XML (section 4) ==";
  let configs =
    List.map
      (fun (rows, cols) -> (sc rows, cols))
      [ (100, 4); (100, 16); (1000, 4); (1000, 16); (4000, 8) ]
  in
  let cases =
    List.map
      (fun (rows, cols) ->
        let name = Printf.sprintf "W%d" cols in
        let table = Datagen.wide_table ~seed ~name ~columns:cols ~rows () in
        let app = Artifact.application (Printf.sprintf "P1_%d_%d" rows cols) in
        ignore (Artifact.import_physical_table app ~project:"P" table);
        let env = Semantic.env_of_application app in
        let srv = Server.create app in
        let t =
          Translator.translate env (Printf.sprintf "SELECT * FROM %s" name)
        in
        let wrapped = Translator.for_text_transport t in
        let xml_path () =
          (* server executes + serializes; client parses + types rows *)
          let text = Server.execute_to_xml srv t.Translator.xquery in
          Result_set.to_rowset
            (Result_set.of_xml_text t.Translator.columns text)
        in
        let text_path () =
          let text = Server.execute_to_text srv wrapped in
          Result_set.to_rowset
            (Result_set.of_encoded_text t.Translator.columns text)
        in
        (rows, cols, xml_path, text_path))
      configs
  in
  let tests =
    List.concat_map
      (fun (rows, cols, xml_path, text_path) ->
        [ Test.make
            ~name:(Printf.sprintf "xml rows=%d cols=%d" rows cols)
            (Staged.stage (fun () -> ignore (xml_path ())));
          Test.make
            ~name:(Printf.sprintf "text rows=%d cols=%d" rows cols)
            (Staged.stage (fun () -> ignore (text_path ()))) ])
      cases
  in
  let results = run_benchmarks (Test.make_grouped ~name:"p1" tests) in
  let times =
    List.concat_map
      (fun (rows, cols, _, _) ->
        [ ( Printf.sprintf "xml  transport rows=%-4d cols=%-2d" rows cols,
            estimate results (Printf.sprintf "p1/xml rows=%d cols=%d" rows cols) );
          ( Printf.sprintf "text transport rows=%-4d cols=%-2d" rows cols,
            estimate results (Printf.sprintf "p1/text rows=%d cols=%d" rows cols) ) ])
      cases
  in
  print_table "P1a full-pipeline transport cost (includes XQuery evaluation)"
    times;
  Printf.printf
    "\nspeedup of text transport over XML materialization (full pipeline):\n";
  List.iter
    (fun (rows, cols, _, _) ->
      let x = estimate results (Printf.sprintf "p1/xml rows=%d cols=%d" rows cols) in
      let t = estimate results (Printf.sprintf "p1/text rows=%d cols=%d" rows cols) in
      Printf.printf "  rows=%-4d cols=%-2d : %.2fx\n" rows cols (ratio x t))
    cases;
  flush stdout

(* P1b isolates what the paper's claim is about: the JDBC driver's
   client-side result handling.  Both wire payloads are produced once;
   we measure decoding them into typed result sets, and report the
   wire sizes. *)
let p1b () =
  print_endline
    "\n== P1b: client-side result handling (decode wire to rows) ==";
  let configs =
    List.map
      (fun (rows, cols) -> (sc rows, cols))
      [ (100, 4); (1000, 4); (1000, 16); (4000, 8) ]
  in
  let cases =
    List.map
      (fun (rows, cols) ->
        let name = Printf.sprintf "W%d" cols in
        let table = Datagen.wide_table ~seed ~name ~columns:cols ~rows () in
        let app = Artifact.application (Printf.sprintf "P1b_%d_%d" rows cols) in
        ignore (Artifact.import_physical_table app ~project:"P" table);
        let env = Semantic.env_of_application app in
        let srv = Server.create app in
        let t =
          Translator.translate env (Printf.sprintf "SELECT * FROM %s" name)
        in
        let xml_wire = Server.execute_to_xml srv t.Translator.xquery in
        let text_wire =
          Server.execute_to_text srv (Translator.for_text_transport t)
        in
        (rows, cols, t.Translator.columns, xml_wire, text_wire))
      configs
  in
  let tests =
    List.concat_map
      (fun (rows, cols, columns, xml_wire, text_wire) ->
        [ Test.make
            ~name:(Printf.sprintf "xml-decode rows=%d cols=%d" rows cols)
            (Staged.stage (fun () ->
                 ignore
                   (Result_set.to_rowset (Result_set.of_xml_text columns xml_wire))));
          Test.make
            ~name:(Printf.sprintf "text-decode rows=%d cols=%d" rows cols)
            (Staged.stage (fun () ->
                 ignore
                   (Result_set.to_rowset
                      (Result_set.of_encoded_text columns text_wire)))) ])
      cases
  in
  let results = run_benchmarks (Test.make_grouped ~name:"p1b" tests) in
  print_table "P1b client-side decode cost"
    (List.concat_map
       (fun (rows, cols, _, _, _) ->
         [ ( Printf.sprintf "xml  decode rows=%-4d cols=%-2d" rows cols,
             estimate results
               (Printf.sprintf "p1b/xml-decode rows=%d cols=%d" rows cols) );
           ( Printf.sprintf "text decode rows=%-4d cols=%-2d" rows cols,
             estimate results
               (Printf.sprintf "p1b/text-decode rows=%d cols=%d" rows cols) ) ])
       cases);
  Printf.printf "\nwire sizes and client-side speedup (xml/text):\n";
  List.iter
    (fun (rows, cols, _, xml_wire, text_wire) ->
      let x =
        estimate results (Printf.sprintf "p1b/xml-decode rows=%d cols=%d" rows cols)
      in
      let t =
        estimate results (Printf.sprintf "p1b/text-decode rows=%d cols=%d" rows cols)
      in
      Printf.printf
        "  rows=%-4d cols=%-2d : xml %7d bytes, text %7d bytes (%.2fx smaller), decode %.2fx faster\n"
        rows cols (String.length xml_wire) (String.length text_wire)
        (ratio (float_of_int (String.length xml_wire))
           (float_of_int (String.length text_wire)))
        (ratio x t))
    cases;
  flush stdout

(* ------------------------------------------------------------------ *)
(* P2: translation throughput by SQL feature class                     *)

let p2_classes =
  [ ( "simple-select",
      "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID > 3" );
    ("star", "SELECT * FROM CUSTOMERS");
    ( "derived-table",
      "SELECT I.ID FROM (SELECT CUSTOMERID ID FROM CUSTOMERS) AS I WHERE I.ID \
       > 2" );
    ( "inner-join",
      "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C INNER JOIN PAYMENTS \
       P ON C.CUSTOMERID = P.CUSTID" );
    ( "left-outer-join",
      "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C LEFT OUTER JOIN \
       PAYMENTS P ON C.CUSTOMERID = P.CUSTID" );
    ( "group-by",
      "SELECT CITY, COUNT(*) N, SUM(TIER) S FROM CUSTOMERS GROUP BY CITY \
       HAVING COUNT(*) > 1" );
    ( "set-op",
      "SELECT CITY FROM CUSTOMERS WHERE TIER = 1 UNION SELECT CITY FROM \
       CUSTOMERS WHERE TIER = 2" );
    ( "subquery-predicates",
      "SELECT CUSTOMERNAME FROM CUSTOMERS C WHERE CUSTOMERID IN (SELECT \
       CUSTOMERID FROM PO_CUSTOMERS) AND EXISTS (SELECT 1 FROM PAYMENTS P \
       WHERE P.CUSTID = C.CUSTOMERID)" );
    ( "complex-report",
      "SELECT C.CITY, COUNT(*) N, SUM(P.AMOUNT) T FROM CUSTOMERS C INNER \
       JOIN PO_CUSTOMERS P ON C.CUSTOMERID = P.CUSTOMERID WHERE C.TIER IS \
       NOT NULL GROUP BY C.CITY ORDER BY T DESC" ) ]

let p2 () =
  print_endline
    "\n== P2: translation throughput by query class (section 3.2) ==";
  let app = Aqua_workload.Demo.build () in
  let cache = Metadata.Cache.create app in
  let env = Semantic.env_of_cache cache in
  let tests =
    List.map
      (fun (name, sql) ->
        Test.make ~name
          (Staged.stage (fun () -> ignore (Translator.translate env sql))))
      p2_classes
  in
  let results = run_benchmarks (Test.make_grouped ~name:"p2" tests) in
  print_table "P2 translation latency (warm metadata cache)"
    (List.map
       (fun (name, _) -> (name, estimate results ("p2/" ^ name)))
       p2_classes)

(* ------------------------------------------------------------------ *)
(* P3: metadata cache effect on translation                            *)

let p3 () =
  print_endline "\n== P3: metadata cache (section 3.5) ==";
  let app = Aqua_workload.Demo.build () in
  let sql =
    "SELECT C.CUSTOMERNAME, O.AMOUNT, P.PAYMENT FROM CUSTOMERS C, \
     PO_CUSTOMERS O, PAYMENTS P WHERE C.CUSTOMERID = O.CUSTOMERID AND \
     C.CUSTOMERID = P.CUSTID"
  in
  let warm_cache = Metadata.Cache.create app in
  let warm_env = Semantic.env_of_cache warm_cache in
  ignore (Translator.translate warm_env sql);
  let cold_cache = Metadata.Cache.create app in
  let cold_env = Semantic.env_of_cache cold_cache in
  let tests =
    [ Test.make ~name:"warm-cache"
        (Staged.stage (fun () -> ignore (Translator.translate warm_env sql)));
      Test.make ~name:"cold-cache"
        (Staged.stage (fun () ->
             Metadata.Cache.clear cold_cache;
             ignore (Translator.translate cold_env sql)));
      Test.make ~name:"metadata-fetch-only"
        (Staged.stage (fun () ->
             ignore (Metadata.fetch app "CUSTOMERS");
             ignore (Metadata.fetch app "PO_CUSTOMERS");
             ignore (Metadata.fetch app "PAYMENTS"))) ]
  in
  let results = run_benchmarks (Test.make_grouped ~name:"p3" tests) in
  let warm = estimate results "p3/warm-cache" in
  let cold = estimate results "p3/cold-cache" in
  print_table "P3 translation latency, 3-table query"
    [ ("warm metadata cache", warm);
      ("cold metadata cache", cold);
      ("metadata fetch alone", estimate results "p3/metadata-fetch-only") ];
  Printf.printf "\ncold/warm ratio: %.2fx\n" (ratio cold warm);
  flush stdout

(* ------------------------------------------------------------------ *)
(* P4: end-to-end SQL-via-XQuery vs the direct SQL engine              *)

let p4 () =
  print_endline "\n== P4: end-to-end vs direct SQL engine ==";
  let scales =
    [ ("small", sizes 20 60 2 40); ("medium", sizes 60 240 3 150) ]
  in
  let sql =
    "SELECT C.CITY, COUNT(*) N, SUM(L.QTY * L.PRICE) REV FROM CUSTOMERS C \
     INNER JOIN ORDERS O ON C.CUSTOMERID = O.CUSTOMERID INNER JOIN \
     ORDERLINES L ON O.ORDERID = L.ORDERID GROUP BY C.CITY ORDER BY REV DESC"
  in
  let cases =
    List.map
      (fun (label, s) ->
        let app = Datagen.application ~seed s in
        let conn = Connection.connect app in
        let engine_env = Engine.env_of_application app in
        let stmt = Aqua_sql.Parser.parse sql in
        (label, conn, engine_env, stmt))
      scales
  in
  let tests =
    List.concat_map
      (fun (label, conn, engine_env, stmt) ->
        [ Test.make
            ~name:("dsp-pipeline-" ^ label)
            (Staged.stage (fun () ->
                 ignore
                   (Result_set.to_rowset (Connection.execute_query conn sql))));
          Test.make
            ~name:("direct-engine-" ^ label)
            (Staged.stage (fun () -> ignore (Engine.execute engine_env stmt)))
        ])
      cases
  in
  let results = run_benchmarks (Test.make_grouped ~name:"p4" tests) in
  print_table "P4 reporting query, full pipeline vs baseline"
    (List.concat_map
       (fun (label, _, _, _) ->
         [ ( "dsp pipeline  " ^ label,
             estimate results ("p4/dsp-pipeline-" ^ label) );
           ( "direct engine " ^ label,
             estimate results ("p4/direct-engine-" ^ label) ) ])
       cases);
  List.iter
    (fun (label, _, _, _) ->
      Printf.printf "overhead of the DSP pipeline (%s): %.2fx\n" label
        (ratio
           (estimate results ("p4/dsp-pipeline-" ^ label))
           (estimate results ("p4/direct-engine-" ^ label))))
    cases;
  flush stdout

(* ------------------------------------------------------------------ *)
(* P5: patterned vs naive emission (ablation)                          *)

let p5 () =
  print_endline "\n== P5: patterned vs naive XQuery emission (ablation) ==";
  let app = Datagen.application ~seed (sizes 40 150 2 90) in
  let env = Semantic.env_of_application app in
  let srv = Server.create app in
  let queries =
    [ ( "like-filter",
        "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERNAME LIKE 'Acme%'" );
      ("projection", "SELECT ORDERID, CUSTOMERID, ORDERDATE, STATUS FROM ORDERS");
      ( "group-by",
        "SELECT STATUS, COUNT(*) N, MIN(PRIORITY) MN FROM ORDERS GROUP BY \
         STATUS" ) ]
  in
  let run_style style sql () =
    let t = Translator.translate ~style env sql in
    ignore (Server.execute srv t.Translator.xquery)
  in
  let tests =
    List.concat_map
      (fun (name, sql) ->
        [ Test.make
            ~name:("patterned-" ^ name)
            (Staged.stage (run_style Generate.Patterned sql));
          Test.make
            ~name:("naive-" ^ name)
            (Staged.stage (run_style Generate.Naive sql)) ])
      queries
  in
  let results = run_benchmarks (Test.make_grouped ~name:"p5" tests) in
  print_table "P5 translate+execute by emission style"
    (List.concat_map
       (fun (name, _) ->
         [ ("patterned " ^ name, estimate results ("p5/patterned-" ^ name));
           ("naive     " ^ name, estimate results ("p5/naive-" ^ name)) ])
       queries);
  List.iter
    (fun (name, _) ->
      Printf.printf "naive/patterned (%s): %.2fx\n" name
        (ratio
           (estimate results ("p5/naive-" ^ name))
           (estimate results ("p5/patterned-" ^ name))))
    queries;
  flush stdout

(* ------------------------------------------------------------------ *)
(* P6: join strategy — nested loop vs hash equi-join (optimizer)       *)

let p6_json_path = "BENCH_P6.json"

let p6 () =
  print_endline
    "\n== P6: join strategy, nested loop vs hash equi-join (optimizer) ==";
  let scales =
    [ ("small", sizes 50 200 2 60); ("medium", sizes 150 600 2 180);
      ("large", sizes 300 1200 2 360) ]
  in
  (* a comma-style join: the translator emits for/for/where, which the
     optimizer rewrites into a hash equi-join plus a residual filter *)
  let sql =
    "SELECT C.CUSTOMERNAME, O.ORDERID FROM CUSTOMERS C, ORDERS O WHERE \
     C.CUSTOMERID = O.CUSTOMERID AND O.PRIORITY > 1"
  in
  let cases =
    List.map
      (fun (label, s) ->
        let app = Datagen.application ~seed s in
        let env = Semantic.env_of_application app in
        let t = Translator.translate env sql in
        let naive_srv = Server.create ~optimize:false app in
        let opt_srv = Server.create app in
        let prepared = Server.prepare opt_srv t.Translator.xquery in
        (label, s, t, naive_srv, opt_srv, prepared))
      scales
  in
  (* sanity: the three strategies must agree before we time them *)
  List.iter
    (fun (label, _, t, naive_srv, opt_srv, prepared) ->
      let ser items = Aqua_xml.Serialize.sequence_to_string items in
      let a = ser (Server.execute naive_srv t.Translator.xquery) in
      let b = ser (Server.execute opt_srv t.Translator.xquery) in
      let c = ser (Server.execute_prepared prepared) in
      if a <> b || a <> c then
        failwith
          (Printf.sprintf "P6 %s: join strategies disagree (BENCH_SEED=%d)"
             label seed))
    cases;
  let tests =
    List.concat_map
      (fun (label, _, t, naive_srv, opt_srv, prepared) ->
        [ Test.make
            ~name:("nested-loop-" ^ label)
            (Staged.stage (fun () ->
                 ignore (Server.execute naive_srv t.Translator.xquery)));
          Test.make
            ~name:("hash-join-" ^ label)
            (Staged.stage (fun () ->
                 ignore (Server.execute opt_srv t.Translator.xquery)));
          (* same path with the telemetry probes live, to bound the
             instrumentation overhead *)
          Test.make
            ~name:("hash-join-telemetry-" ^ label)
            (Staged.stage (fun () ->
                 Telemetry.set_enabled true;
                 ignore (Server.execute opt_srv t.Translator.xquery);
                 Telemetry.set_enabled false));
          Test.make
            ~name:("hash-join-compiled-" ^ label)
            (Staged.stage (fun () -> ignore (Server.execute_prepared prepared)))
        ])
      cases
  in
  let results = run_benchmarks (Test.make_grouped ~name:"p6" tests) in
  let rows =
    List.map
      (fun (label, s, _, _, _, _) ->
        let n = estimate results ("p6/nested-loop-" ^ label) in
        let h = estimate results ("p6/hash-join-" ^ label) in
        let ht = estimate results ("p6/hash-join-telemetry-" ^ label) in
        let c = estimate results ("p6/hash-join-compiled-" ^ label) in
        (label, s, n, h, ht, c))
      cases
  in
  print_table "P6 inner join by strategy"
    (List.concat_map
       (fun (label, (s : Datagen.sizes), n, h, ht, c) ->
         let tag =
           Printf.sprintf "%-6s (%dx%d)" label s.Datagen.customers
             s.Datagen.orders
         in
         [ ("nested loop        " ^ tag, n);
           ("hash join          " ^ tag, h);
           ("hash join w/telem  " ^ tag, ht);
           ("hash join compiled " ^ tag, c) ])
       rows);
  (* the telemetry overhead is a few percent, far below the run-to-run
     drift of sequential bechamel estimates — so measure it with the
     interleaved A/B harness instead of dividing two table rows *)
  let overheads =
    List.map
      (fun (label, _, t, _, opt_srv, _) ->
        let r =
          ab_median_ratio
            ~iters:(if !smoke then 30 else 150)
            (fun enabled ->
              Telemetry.set_enabled enabled;
              ignore (Server.execute opt_srv t.Translator.xquery);
              Telemetry.set_enabled false)
        in
        (label, r))
      cases
  in
  Printf.printf "\nspeedup over the nested loop:\n";
  List.iter
    (fun (label, (s : Datagen.sizes), n, h, _, c) ->
      Printf.printf
        "  %-6s (%4d customers x %4d orders): hash %.2fx, hash+compile %.2fx, \
         telemetry overhead %+.1f%% (interleaved)\n"
        label s.Datagen.customers s.Datagen.orders (ratio n h) (ratio n c)
        ((List.assoc label overheads -. 1.0) *. 100.0))
    rows;
  (* one instrumented execution at the largest scale: its counter
     snapshot and per-span latency histograms are embedded in the JSON
     record *)
  let telemetry_json, obs_json, telemetry_label =
    match List.rev cases with
    | (label, _, t, _, opt_srv, _) :: _ ->
      Telemetry.reset ();
      Obs_stats.reset ();
      Obs_stats.install_span_histograms ();
      Telemetry.set_enabled true;
      ignore (Server.execute opt_srv t.Translator.xquery);
      Telemetry.set_enabled false;
      Obs_stats.uninstall_span_histograms ();
      let hists =
        List.filter
          (fun (_, h) -> not (Histogram.is_empty h))
          (Obs_stats.histograms ())
      in
      let obs =
        "{"
        ^ String.concat ", "
            (List.map
               (fun (name, h) ->
                 Printf.sprintf "%S: %s" name (Histogram.quantiles_to_json h))
               hists)
        ^ "}"
      in
      (Telemetry.metrics_to_json (Telemetry.snapshot ()), obs, label)
    | [] -> ("null", "{}", "none")
  in
  (* machine-readable record for EXPERIMENTS.md / regression tracking *)
  let jf f = if Float.is_nan f then "null" else Printf.sprintf "%.1f" f in
  let jr f = if Float.is_nan f then "null" else Printf.sprintf "%.2f" f in
  let oc = open_out p6_json_path in
  Printf.fprintf oc
    "{\n  \"experiment\": \"P6 join strategy\",\n  \"sql\": \"%s\",\n  \
     \"units\": \"ns per query execution\",\n  \"seed\": %d,\n  \
     \"smoke\": %b,\n  \"scales\": [\n"
    (String.concat " " (String.split_on_char '\n' (String.escaped sql)))
    seed !smoke;
  let n_rows = List.length rows in
  List.iteri
    (fun i (label, (s : Datagen.sizes), n, h, ht, c) ->
      Printf.fprintf oc
        "    { \"label\": \"%s\", \"customers\": %d, \"orders\": %d,\n      \
         \"nested_loop_ns\": %s, \"hash_join_ns\": %s, \
         \"hash_join_telemetry_ns\": %s, \"hash_join_compiled_ns\": %s,\n      \
         \"speedup_hash\": %s, \"speedup_hash_compiled\": %s, \
         \"telemetry_overhead\": %s }%s\n"
        label s.Datagen.customers s.Datagen.orders (jf n) (jf h) (jf ht) (jf c)
        (jr (ratio n h))
        (jr (ratio n c))
        (jr (List.assoc label overheads))
        (if i = n_rows - 1 then "" else ","))
    rows;
  Printf.fprintf oc
    "  ],\n  \"telemetry_scale\": \"%s\",\n  \"telemetry\": %s,\n  \
     \"obs_histograms\": %s\n}\n"
    telemetry_label telemetry_json obs_json;
  close_out oc;
  Printf.printf "\nwrote %s\n" p6_json_path;
  flush stdout

(* ------------------------------------------------------------------ *)
(* P8: query compilation (interpreted vs compiled evaluator)           *)

let p8 () =
  print_endline
    "\n== P8: server-side query compilation (interpreter vs compiled \
     closures) ==";
  let app = Datagen.application ~seed (sizes 40 150 2 90) in
  let env = Semantic.env_of_application app in
  let srv = Server.create app in
  let queries =
    [ ("scan", "SELECT ORDERID, CUSTOMERID, STATUS FROM ORDERS");
      ( "join-filter",
        "SELECT C.CUSTOMERNAME, O.ORDERID FROM CUSTOMERS C INNER JOIN ORDERS \
         O ON C.CUSTOMERID = O.CUSTOMERID WHERE O.PRIORITY > 2" );
      ( "group-by",
        "SELECT STATUS, COUNT(*) N, MAX(PRIORITY) MX FROM ORDERS GROUP BY \
         STATUS ORDER BY N DESC" ) ]
  in
  let cases =
    List.map
      (fun (name, sql) ->
        let t = Translator.translate env sql in
        let prepared = Server.prepare srv t.Translator.xquery in
        (* the section-4 wrapper through the compiled engine *)
        let wrapped = Translator.for_text_transport t in
        let wrapped_prepared = Server.prepare srv wrapped in
        (name, t, prepared, wrapped_prepared))
      queries
  in
  let tests =
    List.concat_map
      (fun (name, t, prepared, wrapped_prepared) ->
        [ Test.make ~name:("interpreted-" ^ name)
            (Staged.stage (fun () ->
                 ignore (Server.execute srv t.Translator.xquery)));
          Test.make ~name:("compiled-" ^ name)
            (Staged.stage (fun () ->
                 ignore (Server.execute_prepared prepared)));
          Test.make ~name:("compile+run-" ^ name)
            (Staged.stage (fun () ->
                 ignore
                   (Server.execute_prepared
                      (Server.prepare srv t.Translator.xquery))));
          Test.make ~name:("compiled-text-wrapper-" ^ name)
            (Staged.stage (fun () ->
                 ignore (Server.execute_prepared wrapped_prepared))) ])
      cases
  in
  let results = run_benchmarks (Test.make_grouped ~name:"p8" tests) in
  print_table "P8 execution by engine"
    (List.concat_map
       (fun (name, _, _, _) ->
         [ ("interpreted      " ^ name, estimate results ("p8/interpreted-" ^ name));
           ("compiled (hot)   " ^ name, estimate results ("p8/compiled-" ^ name));
           ("compile+run      " ^ name, estimate results ("p8/compile+run-" ^ name));
           ("compiled wrapper " ^ name, estimate results ("p8/compiled-text-wrapper-" ^ name)) ])
       cases);
  List.iter
    (fun (name, _, _, _) ->
      Printf.printf "interpreted/compiled (%s): %.2fx\n" name
        (ratio
           (estimate results ("p8/interpreted-" ^ name))
           (estimate results ("p8/compiled-" ^ name))))
    cases;
  flush stdout

(* ------------------------------------------------------------------ *)
(* P7: prepared statements vs ad hoc statements.  Both reuse one plan
   from the driver's plan cache (the ad hoc literal is lifted), so the
   difference is the ad hoc statement's key pass and literal binding. *)

let p7 () =
  print_endline
    "\n== P7: prepared statements vs ad hoc statements (driver) ==";
  let app = Datagen.application ~seed (sizes 40 150 2 90) in
  let conn = Connection.connect app in
  let sql_template =
    "SELECT ORDERID, STATUS FROM ORDERS WHERE CUSTOMERID = ?"
  in
  let stmt = Connection.Prepared.prepare conn sql_template in
  let counter = ref 0 in
  let tests =
    [ Test.make ~name:"adhoc"
        (Staged.stage (fun () ->
             incr counter;
             let id = 1 + (!counter mod 40) in
             ignore
               (Result_set.to_rowset
                  (Connection.execute_query conn
                     (Printf.sprintf
                        "SELECT ORDERID, STATUS FROM ORDERS WHERE CUSTOMERID \
                         = %d"
                        id)))));
      Test.make ~name:"prepared"
        (Staged.stage (fun () ->
             incr counter;
             Connection.Prepared.set_int stmt 1 (1 + (!counter mod 40));
             ignore
               (Result_set.to_rowset (Connection.Prepared.execute_query stmt))));
      Test.make ~name:"prepare-only"
        (Staged.stage (fun () ->
             ignore (Connection.Prepared.prepare conn sql_template))) ]
  in
  let results = run_benchmarks (Test.make_grouped ~name:"p7" tests) in
  let adhoc = estimate results "p7/adhoc" in
  let prepared = estimate results "p7/prepared" in
  print_table "P7 parameterized point query through the driver"
    [ ("ad hoc (plan cache, literal lifted)", adhoc);
      ("prepared (compiled once)", prepared);
      ("preparation cost (plan cache hit)", estimate results "p7/prepare-only") ];
  Printf.printf "\nadhoc/prepared ratio: %.2fx\n" (ratio adhoc prepared);
  flush stdout

(* ------------------------------------------------------------------ *)
(* P9: observability probe overhead (flight recorder, fingerprint      *)
(* stats, telemetry spans) on the driver's hot path                    *)

let p9_json_path = "BENCH_P9.json"

let p9 () =
  print_endline
    "\n== P9: observability probe overhead (recorder / stats / telemetry) ==";
  let app = Datagen.application ~seed (sizes 40 150 2 90) in
  let conn = Connection.connect app in
  let sql =
    "SELECT C.CUSTOMERNAME, O.ORDERID FROM CUSTOMERS C INNER JOIN ORDERS O \
     ON C.CUSTOMERID = O.CUSTOMERID WHERE O.PRIORITY > 1"
  in
  ignore (Connection.execute_query conn sql) (* warm the translation cache *);
  let all_off () =
    Telemetry.set_enabled false;
    Obs_stats.set_enabled false;
    Recorder.set_enabled false;
    Obs_stats.uninstall_span_histograms ()
  in
  let iters = if !smoke then 30 else 150 in
  (* each configuration is measured interleaved against all-probes-off;
     the enable/disable flips inside the window are single ref writes *)
  let overhead label switch_on =
    all_off ();
    let r =
      ab_median_ratio ~iters (fun enabled ->
          if enabled then switch_on () else all_off ();
          ignore (Connection.execute_query conn sql))
    in
    all_off ();
    (label, r)
  in
  let overheads =
    [
      overhead "recorder-only" (fun () -> Recorder.set_enabled true);
      overhead "stats+recorder" (fun () ->
          Recorder.set_enabled true;
          Obs_stats.set_enabled true);
      overhead "telemetry+stats+recorder" (fun () ->
          Recorder.set_enabled true;
          Obs_stats.set_enabled true;
          Obs_stats.install_span_histograms ();
          Telemetry.set_enabled true);
    ]
  in
  (* restore the library defaults the other experiments run under *)
  Recorder.set_enabled true;
  Printf.printf "\noverhead vs all probes disabled (interleaved medians):\n";
  List.iter
    (fun (label, r) ->
      Printf.printf "  %-26s %+.1f%%\n" label ((r -. 1.0) *. 100.0))
    overheads;
  let jr f = if Float.is_nan f then "null" else Printf.sprintf "%.3f" f in
  let oc = open_out p9_json_path in
  Printf.fprintf oc
    "{\n  \"experiment\": \"P9 observability overhead\",\n  \"sql\": \"%s\",\n  \
     \"units\": \"ratio vs probes-disabled\",\n  \"seed\": %d,\n  \
     \"smoke\": %b,\n  \"iters\": %d,\n  \"overheads\": [\n"
    (String.concat " " (String.split_on_char '\n' (String.escaped sql)))
    seed !smoke iters;
  let n = List.length overheads in
  List.iteri
    (fun i (label, r) ->
      Printf.fprintf oc "    { \"label\": \"%s\", \"ratio\": %s }%s\n" label
        (jr r)
        (if i = n - 1 then "" else ","))
    overheads;
  Printf.fprintf oc "  ]\n}\n";
  close_out oc;
  Printf.printf "\nwrote %s\n" p9_json_path;
  flush stdout

(* ------------------------------------------------------------------ *)
(* P10: scan materialization (the cross-query scan cache)             *)

let p10_json_path = "BENCH_P10.json"

let p10 () =
  print_endline
    "\n== P10: scan materialization (version-aware cross-query scan \
     cache) ==";
  let app = Datagen.application ~seed (sizes 300 400 2 200) in
  (* a self-join (two occurrences of the same scan) whose filter holds
     an uncorrelated subquery (a third scan, re-invoked per row) — the
     paper's repeated-data-service-call shape; with the cache on, every
     call after a table's first in a statement is a hit *)
  let sql =
    "SELECT A.CUSTOMERNAME, B.CITY FROM CUSTOMERS A, CUSTOMERS B WHERE \
     A.CUSTOMERID = B.CUSTOMERID AND B.TIER > 1 AND A.CUSTOMERID IN \
     (SELECT CUSTOMERID FROM ORDERS WHERE PRIORITY > 2)"
  in
  let iters = if !smoke then 20 else 100 in
  (* Each phase interleaves a cache-on connection against a cache-off
     one (same app, same translation cache state) and compares medians
     of the same window; speedup = off/on. *)
  let phase label ~prep =
    let conn_on = Connection.connect app in
    let conn_off = Connection.connect ~scan_cache:false app in
    (* warm both translation caches and the scan cache *)
    ignore (Connection.execute_query conn_on sql);
    ignore (Connection.execute_query conn_off sql);
    let r =
      ab_median_ratio ~iters (fun enabled ->
          let conn = if enabled then conn_on else conn_off in
          prep conn;
          ignore (Connection.execute_query conn sql))
    in
    (label, 1.0 /. r, Aqua_dsp.Scan_cache.stats (Connection.scan_cache conn_on))
  in
  let phases =
    [ (* warm: scans stay resident across queries — the shipping path *)
      phase "warm" ~prep:(fun _ -> ());
      (* cold: the cache-on side starts every query empty, so it pays
         materialization AND admission *)
      phase "cold" ~prep:(fun conn ->
          Aqua_dsp.Scan_cache.flush (Connection.scan_cache conn));
      (* invalidated: a metadata revision bump before every query, the
         worst case for a revision-checked cache *)
      phase "invalidated" ~prep:(fun _ ->
          app.Artifact.revision <- app.Artifact.revision + 1) ]
  in
  Printf.printf "\nspeedup vs --no-scan-cache (interleaved medians):\n";
  List.iter
    (fun (label, s, _) -> Printf.printf "  %-12s %.2fx\n" label s)
    phases;
  let _, _, warm_stats = List.hd phases in
  let module SC = Aqua_dsp.Scan_cache in
  Printf.printf
    "warm cache counters: hits=%d misses=%d evictions=%d invalidations=%d \
     entries=%d bytes=%d\n"
    warm_stats.SC.hits warm_stats.SC.misses warm_stats.SC.evictions
    warm_stats.SC.invalidations warm_stats.SC.entries warm_stats.SC.bytes;
  let jr f = if Float.is_nan f then "null" else Printf.sprintf "%.3f" f in
  let oc = open_out p10_json_path in
  Printf.fprintf oc
    "{\n  \"experiment\": \"P10 scan materialization\",\n  \"sql\": \"%s\",\n  \
     \"units\": \"speedup vs scan cache disabled\",\n  \"seed\": %d,\n  \
     \"smoke\": %b,\n  \"iters\": %d,\n  \"phases\": [\n"
    (String.concat " " (String.split_on_char '\n' (String.escaped sql)))
    seed !smoke iters;
  let n = List.length phases in
  List.iteri
    (fun i (label, s, _) ->
      Printf.fprintf oc "    { \"label\": \"%s\", \"speedup\": %s }%s\n" label
        (jr s)
        (if i = n - 1 then "" else ","))
    phases;
  Printf.fprintf oc
    "  ],\n  \"cache\": { \"hits\": %d, \"misses\": %d, \"evictions\": %d, \
     \"invalidations\": %d, \"entries\": %d, \"bytes\": %d }\n}\n"
    warm_stats.SC.hits warm_stats.SC.misses warm_stats.SC.evictions
    warm_stats.SC.invalidations warm_stats.SC.entries warm_stats.SC.bytes;
  close_out oc;
  Printf.printf "\nwrote %s\n" p10_json_path;
  flush stdout

(* ------------------------------------------------------------------ *)
(* P11: concurrent serving throughput — a mixed read workload replayed
   by 1/2/4/8 domains through a session pool over ONE shared connection
   (shared translation cache, metadata cache, materialized scan cache).
   Closed loop: each domain issues its next query as soon as the
   previous one returns; per-domain latency histograms are merged for
   the leg's p50/p90/p99, QPS is total completed ops over wall time. *)

module Mcore = Aqua_multicore.Mcore
module Session_pool = Aqua_driver.Session_pool

let p11_json_path = "BENCH_P11.json"

let p11_domain_counts () =
  match Sys.getenv_opt "AQUA_DOMAINS" with
  | None | Some "" -> [ 1; 2; 4; 8 ]
  | Some s ->
    let parsed =
      List.filter_map int_of_string_opt (String.split_on_char ',' s)
    in
    let parsed = List.filter (fun d -> d >= 1) parsed in
    if parsed = [] then [ 1; 2; 4; 8 ] else parsed

(* the mixed read workload: point lookup, filtered scan, equi-join,
   grouped aggregate — the ad-hoc JDBC-reporting shapes of the paper *)
let p11_workload =
  [ "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = 17";
    "SELECT CUSTOMERNAME, CREDIT FROM CUSTOMERS WHERE TIER > 1";
    "SELECT C.CUSTOMERNAME, O.ORDERID FROM CUSTOMERS C, ORDERS O WHERE \
     C.CUSTOMERID = O.CUSTOMERID AND O.PRIORITY > 2";
    "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY" ]

let p11 () =
  print_endline
    "\n== P11: concurrent serving throughput (domains sharing one \
     connection) ==";
  let app = Datagen.application ~seed (sizes 200 300 2 150) in
  let conn = Connection.connect app in
  (* warm every cache once so every leg measures the same steady
     state, not leg-one paying all the cold misses *)
  List.iter (fun sql -> ignore (Connection.execute_query conn sql)) p11_workload;
  let stmts = Array.of_list p11_workload in
  let nstmts = Array.length stmts in
  let ops_per_domain = if !smoke then 60 else 600 in
  let leg domains =
    let pool = Session_pool.create ~capacity:domains conn in
    let run_domain d () =
      let h = Histogram.create () in
      for i = 0 to ops_per_domain - 1 do
        let sql = stmts.((d + i) mod nstmts) in
        let t0 = Mclock.now () in
        ignore (Session_pool.execute ~wait_ms:60_000 pool sql);
        Histogram.record h (Int64.sub (Mclock.now ()) t0)
      done;
      h
    in
    let t0 = Mclock.now () in
    let outcomes =
      Mcore.Domains.parallel (List.init domains (fun d -> run_domain d))
    in
    let wall_ns = Int64.sub (Mclock.now ()) t0 in
    let merged = Histogram.create () in
    List.iter
      (function
        | Ok h -> Histogram.merge_into ~into:merged h
        | Error e -> raise e)
      outcomes;
    let ops = domains * ops_per_domain in
    let qps = float_of_int ops /. (Int64.to_float wall_ns /. 1e9) in
    (domains, ops, wall_ns, qps, merged)
  in
  let legs = List.map leg (p11_domain_counts ()) in
  let cores = Mcore.num_cores () in
  Printf.printf "cores=%d multicore=%b ops/domain=%d\n\n" cores
    Mcore.multicore ops_per_domain;
  Printf.printf "  %-8s %-8s %-12s %-10s %-10s %-10s\n" "domains" "ops"
    "qps" "p50" "p90" "p99";
  List.iter
    (fun (d, ops, _, qps, h) ->
      Printf.printf "  %-8d %-8d %-12.0f %-10s %-10s %-10s\n" d ops qps
        (pretty_ns (Int64.to_float (Histogram.p50 h)))
        (pretty_ns (Int64.to_float (Histogram.p90 h)))
        (pretty_ns (Int64.to_float (Histogram.p99 h))))
    legs;
  let qps_at n =
    List.find_map
      (fun (d, _, _, qps, _) -> if d = n then Some qps else None)
      legs
  in
  let speedup_4v1 =
    match (qps_at 1, qps_at 4) with
    | Some q1, Some q4 when q1 > 0.0 -> Some (q4 /. q1)
    | _ -> None
  in
  (match speedup_4v1 with
  | Some s -> Printf.printf "\n4-domain vs 1-domain throughput: %.2fx\n" s
  | None -> ());
  let oc = open_out p11_json_path in
  Printf.fprintf oc
    "{\n  \"experiment\": \"P11 concurrent serving throughput\",\n  \
     \"units\": \"queries per second; latency quantiles in ns\",\n  \
     \"seed\": %d,\n  \"smoke\": %b,\n  \"cores\": %d,\n  \
     \"multicore\": %b,\n  \"ops_per_domain\": %d,\n  \"legs\": [\n"
    seed !smoke cores Mcore.multicore ops_per_domain;
  let n = List.length legs in
  List.iteri
    (fun i (d, ops, wall_ns, qps, h) ->
      Printf.fprintf oc
        "    { \"domains\": %d, \"ops\": %d, \"wall_ns\": %Ld, \"qps\": \
         %.3f, \"p50_ns\": %Ld, \"p90_ns\": %Ld, \"p99_ns\": %Ld }%s\n"
        d ops wall_ns qps (Histogram.p50 h) (Histogram.p90 h)
        (Histogram.p99 h)
        (if i = n - 1 then "" else ","))
    legs;
  Printf.fprintf oc "  ],\n  \"speedup_4v1\": %s\n}\n"
    (match speedup_4v1 with
    | Some s -> Printf.sprintf "%.3f" s
    | None -> "null");
  close_out oc;
  Printf.printf "\nwrote %s\n" p11_json_path;
  flush stdout

(* ------------------------------------------------------------------ *)
(* P13: the wire-protocol front end under an open-loop arrival process.
   Phase 1 measures closed-loop saturation throughput (persistent
   connections, each client fires its next query on completion).
   Phase 2 replays a deterministic open-loop schedule — arrival i is
   due at i/rate seconds, regardless of how the server is coping — at
   0.5x and 2.0x the measured saturation, connection-per-query, plus a
   2.0x leg with net-layer failpoints armed.  The claim under test is
   the robustness contract: overload degrades into fast typed sheds
   (53300/08006), never into losing admitted queries, and every
   offered arrival is accounted for as completed or shed. *)

module Failpoint = Aqua_resilience.Failpoint
module Netserver = Aqua_net.Netserver
module Net_client = Aqua_net.Client

let p13_json_path = "BENCH_P13.json"
let p13_fault_spec = "net.session=flaky(0.1);net.read=flaky(0.05)"

(* only CUSTOMERS(CUSTOMERID, CUSTOMERNAME, CITY, TIER) — columns both
   the synthetic Datagen catalog (in-process server) and the demo
   catalog (an external `sql2xq serve` via AQUA_NET_ADDR) provide, so
   every arrival is a valid query against either backend *)
let p13_workload =
  [ "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = 17";
    "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE TIER > 1";
    "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY";
    "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERNAME" ]

(* AQUA_NET_ADDR=host:port points the bench at an externally started
   `sql2xq serve` instead of the in-process server (failpoints then
   only make sense if the external server armed its own). *)
let p13_external_addr () =
  match Sys.getenv_opt "AQUA_NET_ADDR" with
  | None | Some "" -> None
  | Some s -> (
    match String.rindex_opt s ':' with
    | Some i -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some port -> Some (String.sub s 0 i, port)
      | None -> None)
    | None -> None)

let p13 () =
  print_endline
    "\n== P13: wire front end — open-loop arrivals, admission shedding ==";
  let external_addr = p13_external_addr () in
  if (not Mcore.multicore) && external_addr = None then begin
    (* the single-domain shim cannot host a background server; emit a
       schema-valid file that says so instead of fake numbers *)
    print_endline "single-domain build: skipping (no background server)";
    let oc = open_out p13_json_path in
    Printf.fprintf oc
      "{\n  \"experiment\": \"P13 wire-protocol serving\",\n  \"units\": \
       \"queries per second; latency quantiles in ns\",\n  \"seed\": %d,\n  \
       \"smoke\": %b,\n  \"multicore\": false,\n  \"saturation\": null,\n  \
       \"legs\": []\n}\n"
      seed !smoke;
    close_out oc;
    Printf.printf "wrote %s\n" p13_json_path;
    flush stdout
  end
  else begin
    let app = Datagen.application ~seed (sizes 200 300 2 150) in
    let stmts = Array.of_list p13_workload in
    let nstmts = Array.length stmts in
    let srv, host, port =
      match external_addr with
      | Some (host, port) ->
        Printf.printf "driving external server at %s:%d\n" host port;
        (None, host, port)
      | None ->
        let conn = Connection.connect app in
        let config =
          { Netserver.default_config with
            port = 0;
            pool_size = 4;
            workers = 4;
            queue_depth = (if !smoke then 4 else 8);
            borrow_wait_ms = 200;
          }
        in
        let srv = Netserver.start ~config conn in
        (Some srv, "127.0.0.1", Netserver.port srv)
    in
    Fun.protect ~finally:(fun () -> Option.iter Netserver.drain srv)
    @@ fun () ->
    (* -------- phase 1: closed-loop saturation (persistent conns) --- *)
    let sat_clients = if !smoke then 2 else 4 in
    let sat_ops = if !smoke then 40 else 300 in
    let sat_client c () =
      match Net_client.connect ~host ~port () with
      | Error (code, msg) -> failwith (Printf.sprintf "[%s] %s" code msg)
      | Ok t ->
        Fun.protect ~finally:(fun () -> Net_client.close t) @@ fun () ->
        let h = Histogram.create () in
        let done_ = ref 0 in
        for i = 0 to sat_ops - 1 do
          let sql = stmts.((c + i) mod nstmts) in
          let t0 = Mclock.now () in
          match Net_client.query t sql with
          | Ok _ ->
            incr done_;
            Histogram.record h (Int64.sub (Mclock.now ()) t0)
          | Error _ -> ()
        done;
        (!done_, h)
    in
    let t0 = Mclock.now () in
    let outcomes =
      Mcore.Domains.parallel (List.init sat_clients (fun c -> sat_client c))
    in
    let sat_wall = Int64.sub (Mclock.now ()) t0 in
    let sat_hist = Histogram.create () in
    let sat_done =
      List.fold_left
        (fun acc -> function
          | Ok (n, h) ->
            Histogram.merge_into ~into:sat_hist h;
            acc + n
          | Error e -> raise e)
        0 outcomes
    in
    let sat_qps =
      float_of_int sat_done /. (Int64.to_float sat_wall /. 1e9)
    in
    Printf.printf
      "saturation (closed loop, %d clients): %.0f qps, p50 %s, p99 %s\n"
      sat_clients sat_qps
      (pretty_ns (Int64.to_float (Histogram.p50 sat_hist)))
      (pretty_ns (Int64.to_float (Histogram.p99 sat_hist)));
    (* -------- phase 2: open-loop legs, connection per query --------- *)
    let offered = if !smoke then 80 else 400 in
    let fleet = if !smoke then 8 else 12 in
    let leg (label, rate_factor, failpoints) =
      (match failpoints with Some spec -> Failpoint.arm spec | None -> ());
      Fun.protect
        ~finally:(fun () ->
          if failpoints <> None then Failpoint.disarm ())
      @@ fun () ->
      let rate = Float.max 1.0 (sat_qps *. rate_factor) in
      let interval_ns = 1e9 /. rate in
      let next = Atomic.make 0 in
      let shed_lock = Mutex.create () in
      let shed : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let shed_one code =
        Mutex.protect shed_lock (fun () ->
            Hashtbl.replace shed code
              (1 + Option.value ~default:0 (Hashtbl.find_opt shed code)))
      in
      let t0 = Mclock.now () in
      let worker _w () =
        let h = Histogram.create () in
        let completed = ref 0 in
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i >= offered then (!completed, h)
          else begin
            (* the arrival process is the schedule, not the server: op i
               is due at t0 + i/rate whether or not the fleet is late *)
            let due =
              Int64.add t0 (Int64.of_float (float_of_int i *. interval_ns))
            in
            let now = Mclock.now () in
            if Int64.compare now due < 0 then
              Unix.sleepf (Int64.to_float (Int64.sub due now) /. 1e9);
            (match Net_client.connect ~timeout_ms:5_000 ~host ~port () with
            | Error (code, _) -> shed_one code
            | Ok t ->
              (match Net_client.query t stmts.(i mod nstmts) with
              | Ok _ ->
                incr completed;
                (* response time from scheduled arrival: queueing delay
                   under overload is the signal, so it must count *)
                Histogram.record h (Int64.sub (Mclock.now ()) due)
              | Error (code, _) -> shed_one code);
              Net_client.close t);
            go ()
          end
        in
        go ()
      in
      let outcomes =
        Mcore.Domains.parallel (List.init fleet (fun w -> worker w))
      in
      let merged = Histogram.create () in
      let completed =
        List.fold_left
          (fun acc -> function
            | Ok (n, h) ->
              Histogram.merge_into ~into:merged h;
              acc + n
            | Error e -> raise e)
          0 outcomes
      in
      let shed_total = Hashtbl.fold (fun _ n acc -> n + acc) shed 0 in
      let shed_codes =
        List.sort compare
          (Hashtbl.fold (fun c n acc -> (c, n) :: acc) shed [])
      in
      Printf.printf
        "  %-14s rate %-7.0f offered %-5d completed %-5d shed %-4d %s p99 %s\n"
        label rate offered completed shed_total
        (String.concat " "
           (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) shed_codes))
        (pretty_ns (Int64.to_float (Histogram.p99 merged)));
      (label, rate, failpoints, completed, shed_total, shed_codes, merged)
    in
    print_endline "open-loop legs (connection per query):";
    let legs =
      List.map leg
        [ ("0.5x", 0.5, None);
          ("2.0x", 2.0, None);
          ("2.0x+faults", 2.0, Some p13_fault_spec) ]
    in
    let oc = open_out p13_json_path in
    Printf.fprintf oc
      "{\n  \"experiment\": \"P13 wire-protocol serving\",\n  \"units\": \
       \"queries per second; latency quantiles in ns\",\n  \"seed\": %d,\n  \
       \"smoke\": %b,\n  \"multicore\": true,\n  \"external\": %b,\n  \
       \"server\": { \"pool_size\": 4, \"workers\": 4, \"queue_depth\": %d \
       },\n  \"saturation\": { \"clients\": %d, \"completed\": %d, \"qps\": \
       %.3f, \"p50_ns\": %Ld, \"p99_ns\": %Ld },\n  \"legs\": [\n"
      seed !smoke
      (external_addr <> None)
      (if !smoke then 4 else 8)
      sat_clients sat_done sat_qps (Histogram.p50 sat_hist)
      (Histogram.p99 sat_hist);
    let n = List.length legs in
    List.iteri
      (fun i (label, rate, failpoints, completed, shed_total, shed_codes, h) ->
        Printf.fprintf oc
          "    { \"label\": %S, \"rate_qps\": %.3f, \"offered\": %d, \
           \"completed\": %d, \"shed\": %d, \"shed_by_code\": { %s }, \
           \"failpoints\": %s, \"p50_ns\": %Ld, \"p90_ns\": %Ld, \
           \"p99_ns\": %Ld }%s\n"
          label rate offered completed shed_total
          (String.concat ", "
             (List.map
                (fun (c, cnt) -> Printf.sprintf "\"%s\": %d" c cnt)
                shed_codes))
          (match failpoints with
          | Some spec -> Printf.sprintf "%S" spec
          | None -> "null")
          (Histogram.p50 h) (Histogram.p90 h) (Histogram.p99 h)
          (if i = n - 1 then "" else ","))
      legs;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote %s\n" p13_json_path;
    (match srv with
    | Some s ->
      let sm = Netserver.summary s in
      Printf.printf
        "server summary: connections=%d queries=%d shed_queue=%d \
         shed_breaker=%d protocol_errors=%d\n"
        sm.Netserver.connections sm.queries sm.shed_queue sm.shed_breaker
        sm.protocol_errors
    | None -> ());
    flush stdout
  end

(* ------------------------------------------------------------------ *)

(* P14: what observability costs on the serve path.  Four closed-loop
   legs over the wire, identical except for trace wiring: no sink at
   all (baseline), a sink with 0% head sampling (the production
   default — every query mints and threads a trace context, none emit),
   1%, and 100%.  The claim under test is that the always-on plumbing
   is free: the gated comparison is baseline vs sink@0%, and
   validate.exe rejects the run if 0%-sampling throughput falls more
   than the bound below baseline.  The 1%/100% legs are informational
   (they buy NDJSON span trees, counted per leg). *)

let p14_json_path = "BENCH_P14.json"

let p14 () =
  print_endline "\n== P14: trace-sampling overhead on the serve path ==";
  if not Mcore.multicore then begin
    print_endline "single-domain build: skipping (no background server)";
    let oc = open_out p14_json_path in
    Printf.fprintf oc
      "{\n  \"experiment\": \"P14 trace-sampling overhead\",\n  \"units\": \
       \"queries per second; latency quantiles in ns\",\n  \"seed\": %d,\n  \
       \"smoke\": %b,\n  \"multicore\": false,\n  \"baseline_qps\": null,\n  \
       \"sampled0_qps\": null,\n  \"overhead\": null,\n  \"legs\": []\n}\n"
      seed !smoke;
    close_out oc;
    Printf.printf "wrote %s\n" p14_json_path;
    flush stdout
  end
  else begin
    let app = Datagen.application ~seed (sizes 200 300 2 150) in
    let stmts = Array.of_list p13_workload in
    let nstmts = Array.length stmts in
    let clients = if !smoke then 2 else 4 in
    let ops = if !smoke then 50 else 400 in
    (* the serve path's production posture: telemetry, per-fingerprint
       stats and span histograms all on, identical in every leg *)
    Telemetry.set_enabled true;
    Obs_stats.set_enabled true;
    Obs_stats.install_span_histograms ();
    Fun.protect
      ~finally:(fun () ->
        Obs_stats.uninstall_span_histograms ();
        Obs_stats.set_enabled false;
        Telemetry.set_enabled false;
        Telemetry.set_trace_sink None)
    @@ fun () ->
    let leg (label, sample, with_sink) =
      Telemetry.reset ();
      Obs_stats.reset ();
      let trace_lines = Atomic.make 0 in
      Telemetry.set_trace_sink
        (if with_sink then
           Some (fun _line -> Atomic.incr trace_lines)
         else None);
      let conn = Connection.connect app in
      let config =
        { Netserver.default_config with
          port = 0;
          pool_size = 4;
          workers = 4;
          queue_depth = 16;
          trace_sample = sample;
        }
      in
      let srv = Netserver.start ~config conn in
      Fun.protect
        ~finally:(fun () ->
          Netserver.drain srv;
          Telemetry.set_trace_sink None)
      @@ fun () ->
      let host = "127.0.0.1" and port = Netserver.port srv in
      let client c () =
        match Net_client.connect ~host ~port () with
        | Error (code, msg) -> failwith (Printf.sprintf "[%s] %s" code msg)
        | Ok t ->
          Fun.protect ~finally:(fun () -> Net_client.close t) @@ fun () ->
          let h = Histogram.create () in
          let done_ = ref 0 in
          for i = 0 to ops - 1 do
            let sql = stmts.((c + i) mod nstmts) in
            let t0 = Mclock.now () in
            match Net_client.query t sql with
            | Ok _ ->
              incr done_;
              Histogram.record h (Int64.sub (Mclock.now ()) t0)
            | Error (code, msg) ->
              failwith (Printf.sprintf "leg %s: [%s] %s" label code msg)
          done;
          (!done_, h)
      in
      let t0 = Mclock.now () in
      let outcomes =
        Mcore.Domains.parallel (List.init clients (fun c -> client c))
      in
      let wall = Int64.sub (Mclock.now ()) t0 in
      let merged = Histogram.create () in
      let completed =
        List.fold_left
          (fun acc -> function
            | Ok (n, h) ->
              Histogram.merge_into ~into:merged h;
              acc + n
            | Error e -> raise e)
          0 outcomes
      in
      let qps = float_of_int completed /. (Int64.to_float wall /. 1e9) in
      let lines = Atomic.get trace_lines in
      Printf.printf
        "  %-12s sample %-4.2f sink %-5b completed %-5d %.0f qps, p50 %s, \
         p99 %s, trace lines %d\n"
        label sample with_sink completed qps
        (pretty_ns (Int64.to_float (Histogram.p50 merged)))
        (pretty_ns (Int64.to_float (Histogram.p99 merged)))
        lines;
      flush stdout;
      (label, sample, with_sink, completed, qps, merged, lines)
    in
    let legs =
      List.map leg
        [ ("baseline", 0.0, false);
          ("sink-0pct", 0.0, true);
          ("sink-1pct", 0.01, true);
          ("sink-100pct", 1.0, true) ]
    in
    let find label =
      List.find (fun (l, _, _, _, _, _, _) -> l = label) legs
    in
    let qps_of (_, _, _, _, qps, _, _) = qps in
    let baseline_qps = qps_of (find "baseline") in
    let sampled0_qps = qps_of (find "sink-0pct") in
    let overhead = (baseline_qps -. sampled0_qps) /. baseline_qps in
    Printf.printf
      "0%%-sampling serve-path overhead vs baseline: %.1f%%\n"
      (100.0 *. overhead);
    let oc = open_out p14_json_path in
    Printf.fprintf oc
      "{\n  \"experiment\": \"P14 trace-sampling overhead\",\n  \"units\": \
       \"queries per second; latency quantiles in ns\",\n  \"seed\": %d,\n  \
       \"smoke\": %b,\n  \"multicore\": true,\n  \"server\": { \
       \"pool_size\": 4, \"workers\": 4, \"clients\": %d, \"ops_per_client\": \
       %d },\n  \"baseline_qps\": %.3f,\n  \"sampled0_qps\": %.3f,\n  \
       \"overhead\": %.4f,\n  \"legs\": [\n"
      seed !smoke clients ops baseline_qps sampled0_qps overhead;
    let n = List.length legs in
    List.iteri
      (fun i (label, sample, with_sink, completed, qps, h, lines) ->
        Printf.fprintf oc
          "    { \"label\": %S, \"trace_sample\": %.2f, \"sink\": %b, \
           \"completed\": %d, \"qps\": %.3f, \"p50_ns\": %Ld, \"p90_ns\": \
           %Ld, \"p99_ns\": %Ld, \"trace_lines\": %d }%s\n"
          label sample with_sink completed qps (Histogram.p50 h)
          (Histogram.p90 h) (Histogram.p99 h) lines
          (if i = n - 1 then "" else ","))
      legs;
    Printf.fprintf oc "  ]\n}\n";
    close_out oc;
    Printf.printf "wrote %s\n" p14_json_path;
    flush stdout
  end

(* ------------------------------------------------------------------ *)

let () =
  let args =
    List.filter
      (fun a ->
        if a = "--smoke" || String.uppercase_ascii a = "SMOKE" then begin
          smoke := true;
          false
        end
        else true)
      (List.tl (Array.to_list Sys.argv))
  in
  if !smoke then
    Printf.printf "(smoke mode: tiny scales, short quota, seed=%d)\n" seed;
  let selected =
    match args with
    | _ :: _ -> List.map String.uppercase_ascii args
    | [] -> [ "P1"; "P1B"; "P2"; "P3"; "P4"; "P5"; "P6"; "P7"; "P8"; "P9"; "P10"; "P11"; "P13"; "P14" ]
  in
  let all = [ ("P1", p1); ("P1B", p1b); ("P2", p2); ("P3", p3); ("P4", p4); ("P5", p5); ("P6", p6); ("P7", p7); ("P8", p8); ("P9", p9); ("P10", p10); ("P11", p11); ("P13", p13); ("P14", p14) ] in
  List.iter
    (fun name ->
      match List.assoc_opt name all with
      | Some f -> f ()
      | None -> Printf.eprintf "unknown experiment %s\n" name)
    selected;
  print_endline "\nbench: done"
