(* Telemetry layer: span nesting across the three translation stages,
   engine counters on known query shapes (the P6 join), NDJSON trace
   validity, and the driver cache/result-set counters. *)

module Telemetry = Aqua_core.Telemetry
module Json = Aqua_core.Json
module Translator = Aqua_translator.Translator
module Semantic = Aqua_translator.Semantic
module Server = Aqua_dsp.Server
module Connection = Aqua_driver.Connection
module Expose = Aqua_obs.Expose
module Scan_cache = Aqua_dsp.Scan_cache
module Result_set = Aqua_driver.Result_set
module Datagen = Aqua_workload.Datagen

let case = Helpers.case

(* Run [f] with telemetry enabled and a fresh slate, collecting trace
   lines; always disable and detach the sink afterwards so the rest of
   the suite is unaffected. *)
let with_telemetry f =
  let lines = ref [] in
  Telemetry.set_trace_sink (Some (fun l -> lines := l :: !lines));
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_enabled false;
      Telemetry.set_trace_sink None)
    (fun () ->
      let v = f () in
      (v, List.rev !lines))

let p6_sizes =
  { Datagen.customers = 10; orders = 40; lines_per_order = 2; payments = 12 }

let p6_sql =
  "SELECT C.CUSTOMERNAME, O.ORDERID FROM CUSTOMERS C, ORDERS O WHERE \
   C.CUSTOMERID = O.CUSTOMERID AND O.PRIORITY > 1"

(* --- spans ---------------------------------------------------------- *)

let span_events lines =
  List.filter_map
    (fun line ->
      let j = Json.parse line in
      match Json.member "ev" j with
      | Some (Json.Str "span") -> Some j
      | _ -> None)
    lines

let field_num name j =
  match Json.member name j with
  | Some (Json.Num f) -> f
  | _ -> Alcotest.failf "span event lacks numeric %S in %s" name (Json.to_string j)

let field_str name j =
  match Json.member name j with
  | Some (Json.Str s) -> s
  | _ -> Alcotest.failf "span event lacks string %S in %s" name (Json.to_string j)

let test_stage_spans_nest () =
  let app = Helpers.demo_app () in
  let env = Semantic.env_of_application app in
  let (), lines =
    with_telemetry (fun () ->
        ignore (Translator.translate env "SELECT CUSTOMERNAME FROM CUSTOMERS"))
  in
  let spans = span_events lines in
  let depth_of name =
    match
      List.find_opt (fun j -> field_str "name" j = name) spans
    with
    | Some j -> int_of_float (field_num "depth" j)
    | None ->
      Alcotest.failf "no span named %s in trace:\n%s" name
        (String.concat "\n" lines)
  in
  (* the three stages are children (depth 1) of the depth-0 translate span *)
  Alcotest.(check int) "translate depth" 0 (depth_of "translate");
  Alcotest.(check int) "parse depth" 1 (depth_of "translate.parse");
  Alcotest.(check int) "semantic depth" 1 (depth_of "translate.semantic");
  Alcotest.(check int) "generate depth" 1 (depth_of "translate.generate");
  (* stage spans aggregate into the span totals *)
  Alcotest.(check int) "one translation" 1
    (Telemetry.value Telemetry.c_translations);
  let stage = Telemetry.span_total_ns in
  Alcotest.(check bool) "parse time recorded" true
    (stage "translate.parse" >= 0L);
  (* child stage totals cannot exceed the enclosing translate span *)
  let stage_total =
    Int64.add (stage "translate.parse")
      (Int64.add (stage "translate.semantic") (stage "translate.generate"))
  in
  Alcotest.(check bool) "stages within parent" true
    (stage_total <= Telemetry.span_total_ns "translate")

let test_span_stats_aggregate () =
  let (), _ =
    with_telemetry (fun () ->
        for _ = 1 to 3 do
          Telemetry.with_span "outer" (fun () ->
              Telemetry.with_span "inner" (fun () -> ()))
        done)
  in
  let find name =
    match
      List.find_opt (fun (n, _, _) -> n = name) (Telemetry.span_stats ())
    with
    | Some (_, count, total) -> (count, total)
    | None -> Alcotest.failf "no span stats for %s" name
  in
  let outer_n, outer_ns = find "outer" in
  let inner_n, inner_ns = find "inner" in
  Alcotest.(check int) "outer count" 3 outer_n;
  Alcotest.(check int) "inner count" 3 inner_n;
  Alcotest.(check bool) "inner within outer" true (inner_ns <= outer_ns)

(* --- engine counters ------------------------------------------------ *)

let test_p6_join_counters () =
  let app = Datagen.application p6_sizes in
  let env = Semantic.env_of_application app in
  let t = Translator.translate env p6_sql in
  let srv = Server.create app in
  let (), _ =
    with_telemetry (fun () -> ignore (Server.execute srv t.Translator.xquery))
  in
  let v = Telemetry.value in
  (* one hash join: ORDERS (second for) is the build side, one probe
     per customer tuple streaming through the pipeline *)
  Alcotest.(check int) "builds" 1 (v Telemetry.c_hash_join_builds);
  Alcotest.(check int) "build rows = orders" p6_sizes.Datagen.orders
    (v Telemetry.c_hash_join_build_rows);
  Alcotest.(check int) "probes = customers" p6_sizes.Datagen.customers
    (v Telemetry.c_hash_join_probes);
  Alcotest.(check bool) "join rewrite fired" true
    (v Telemetry.c_hash_join_rewrites >= 1);
  Alcotest.(check bool) "rows emitted" true (v Telemetry.c_rows_emitted > 0);
  (* per-clause accounting saw the hash join *)
  let clause_rows = Telemetry.clause_rows () in
  Alcotest.(check bool) "hash-join clause recorded" true
    (List.exists
       (fun (label, _) ->
         String.length label >= 9 && String.sub label 0 9 = "hash-join")
       clause_rows)

let test_p6_naive_no_hash_join () =
  let app = Datagen.application p6_sizes in
  let env = Semantic.env_of_application app in
  let t = Translator.translate env p6_sql in
  let srv = Server.create ~optimize:false app in
  let (), _ =
    with_telemetry (fun () -> ignore (Server.execute srv t.Translator.xquery))
  in
  let v = Telemetry.value in
  Alcotest.(check int) "no hash builds" 0 (v Telemetry.c_hash_join_builds);
  Alcotest.(check int) "no probes" 0 (v Telemetry.c_hash_join_probes);
  (* the nested loop pushes every customer x order pair through the
     where clause *)
  Alcotest.(check bool) "nested loop emits the cross product" true
    (v Telemetry.c_rows_emitted
    >= p6_sizes.Datagen.customers * p6_sizes.Datagen.orders)

let test_disabled_counts_nothing () =
  Telemetry.reset ();
  let app = Datagen.application p6_sizes in
  let env = Semantic.env_of_application app in
  let t = Translator.translate env p6_sql in
  ignore (Server.execute (Server.create app) t.Translator.xquery);
  let v = Telemetry.value in
  Alcotest.(check int) "no translations" 0 (v Telemetry.c_translations);
  Alcotest.(check int) "no builds" 0 (v Telemetry.c_hash_join_builds);
  Alcotest.(check int) "no rows" 0 (v Telemetry.c_rows_emitted)

(* --- driver counters ------------------------------------------------ *)

let test_driver_cache_counters () =
  let app = Helpers.demo_app () in
  let sql = "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY 1" in
  let (), _ =
    with_telemetry (fun () ->
        let conn = Connection.connect app in
        ignore (Result_set.to_rowset (Connection.execute_query conn sql));
        ignore (Result_set.to_rowset (Connection.execute_query conn sql)))
  in
  let v = Telemetry.value in
  Alcotest.(check int) "one miss" 1 (v Telemetry.c_cache_misses);
  Alcotest.(check int) "one hit" 1 (v Telemetry.c_cache_hits);
  Alcotest.(check bool) "rows materialized" true
    (v Telemetry.c_resultset_rows > 0);
  Alcotest.(check bool) "ds calls recorded" true
    (List.exists
       (fun (name, n, _) ->
         String.starts_with ~prefix:"dsp.call." name && n > 0)
       (Telemetry.span_stats ()))

(* --- NDJSON trace --------------------------------------------------- *)

let test_trace_is_ndjson () =
  let app = Helpers.demo_app () in
  let env = Semantic.env_of_application app in
  let sql =
    "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS LEFT \
     OUTER JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID"
  in
  let (), lines =
    with_telemetry (fun () ->
        let t = Translator.translate env sql in
        ignore (Server.execute (Server.create app) t.Translator.xquery))
  in
  Alcotest.(check bool) "trace nonempty" true (lines <> []);
  (* every line is one standalone JSON object *)
  List.iter
    (fun line ->
      match Json.parse line with
      | Json.Obj _ as j ->
        if Json.member "ev" j = None then
          Alcotest.failf "trace line lacks \"ev\": %s" line
      | _ -> Alcotest.failf "trace line is not an object: %s" line
      | exception Json.Parse_error m ->
        Alcotest.failf "trace line does not parse (%s): %s" m line)
    lines;
  (* all three stages appear *)
  let names = List.map (field_str "name") (span_events lines) in
  List.iter
    (fun stage ->
      Alcotest.(check bool) (stage ^ " traced") true (List.mem stage names))
    [ "translate.parse"; "translate.semantic"; "translate.generate" ];
  (* durations are sane *)
  List.iter
    (fun j ->
      Alcotest.(check bool) "dur_ns >= 0" true (field_num "dur_ns" j >= 0.0))
    (span_events lines)

(* One name per counter: the trace snapshot's counter keys are the
   registry's names, each renders exactly once in the Prometheus
   exposition as aqua_<name>_total, and scan_cache.bytes is a gauge
   read from the live cache, never a counter. *)
let test_counter_names_invariant () =
  let app = Helpers.demo_app () in
  let conn = Connection.connect app in
  let cache = Connection.scan_cache conn in
  let store () =
    Scan_cache.store cache "k" []
      [ Aqua_xml.Item.Atomic (Aqua_xml.Atomic.String "resident") ]
  in
  (* stored while telemetry is off, dropped while it is on: the gauge
     must still read what is resident, never a negative delta sum *)
  store ();
  let (), _ =
    with_telemetry (fun () ->
        ignore (Connection.execute_query conn "SELECT * FROM CUSTOMERS");
        Scan_cache.flush cache)
  in
  store ();
  let names = List.map fst (Telemetry.counters ()) in
  (match Json.member "counters" (Json.parse (Expose.trace_snapshot ())) with
  | Some (Json.Obj fields) ->
    Alcotest.(check (list string)) "snapshot keys are the registry's names"
      names (List.map fst fields)
  | _ -> Alcotest.fail "trace snapshot has no counters object");
  Alcotest.(check bool) "scan_cache.bytes is not a counter" false
    (List.mem "scan_cache.bytes" names);
  Connection.register_scan_cache_gauge conn;
  Fun.protect ~finally:(fun () -> Expose.unregister_gauge "scan_cache.bytes")
  @@ fun () ->
  let prom = Expose.prometheus () in
  let lines = String.split_on_char '\n' prom in
  let samples metric =
    List.length
      (List.filter (String.starts_with ~prefix:(metric ^ " ")) lines)
  in
  List.iter
    (fun name ->
      let metric =
        "aqua_" ^ String.map (fun c -> if c = '.' then '_' else c) name
        ^ "_total"
      in
      Alcotest.(check int) (metric ^ " renders once") 1 (samples metric))
    names;
  Alcotest.(check bool) "scan_cache.bytes typed as a gauge" true
    (List.mem "# TYPE aqua_scan_cache_bytes gauge" lines);
  Alcotest.(check int) "no scan_cache.bytes counter" 0
    (samples "aqua_scan_cache_bytes_total");
  let gauge () = List.assoc "scan_cache.bytes" (Expose.gauge_values ()) in
  Alcotest.(check bool) "the gauge reads the resident entry" true
    (gauge () > 0
    && gauge () = (Scan_cache.stats cache).Scan_cache.bytes);
  Alcotest.(check (list string)) "exposition lints clean" []
    (Expose.lint prom);
  Scan_cache.flush cache;
  Alcotest.(check int) "an emptied cache reads zero" 0 (gauge ())

let test_reset_zeroes () =
  let (), _ =
    with_telemetry (fun () ->
        Telemetry.incr Telemetry.c_cache_hits;
        Telemetry.with_span "x" (fun () -> ());
        ignore (Telemetry.clause_counter "for $x");
        Telemetry.reset ();
        Alcotest.(check int) "hits zeroed" 0
          (Telemetry.value Telemetry.c_cache_hits);
        Alcotest.(check (list (pair string int))) "clauses cleared" []
          (Telemetry.clause_rows ());
        Alcotest.(check int) "span stats cleared" 0
          (List.length (Telemetry.span_stats ())))
  in
  ()

(* --- clock robustness ----------------------------------------------- *)

(* Regression: the default clock derives from gettimeofday, which can
   step backwards (NTP).  A span closing before its rigged clock's
   "earlier" reading must record 0, never negative — and a later
   well-behaved span must still aggregate normally. *)
let test_backwards_clock_clamps () =
  let readings = ref [ 1_000L; 400L; 2_000L; 2_500L ] in
  let rigged () =
    match !readings with
    | [] -> 3_000L
    | t :: rest ->
      readings := rest;
      t
  in
  Telemetry.set_clock rigged;
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_clock (fun () ->
          Int64.of_float (Unix.gettimeofday () *. 1e9)))
    (fun () ->
      let (), lines =
        with_telemetry (fun () ->
            Telemetry.with_span "rigged" (fun () -> ());
            Telemetry.with_span "rigged" (fun () -> ()))
      in
      (* first close: 400 - 1000 clamps to 0; second: 2500 - 2000 *)
      Alcotest.(check int64) "clamped total" 500L
        (Telemetry.span_total_ns "rigged");
      List.iter
        (fun j ->
          match Json.member "dur_ns" (Json.parse j) with
          | Some (Json.Num d) ->
            if d < 0.0 then
              Alcotest.failf "negative traced duration: %s" j
          | _ -> ())
        lines)

(* --- Json parser ---------------------------------------------------- *)

let test_json_parser () =
  let roundtrip s = Json.to_string (Json.parse s) in
  Alcotest.(check string) "object"
    {|{"a":1,"b":[true,null,"x"]}|}
    (roundtrip {|{ "a": 1, "b": [true, null, "x"] }|});
  Alcotest.(check string) "escapes" {|{"k":"a\"b"}|} (roundtrip {|{"k":"a\"b"}|});
  Alcotest.(check bool) "nested member" true
    (Json.member "b" (Json.parse {|{"a":{"c":2},"b":3}|}) = Some (Json.Num 3.0));
  (match Json.parse "[1, 2.5, -3e2]" with
  | Json.Arr [ Json.Num a; Json.Num b; Json.Num c ] ->
    Alcotest.(check (float 0.0)) "int" 1.0 a;
    Alcotest.(check (float 0.0)) "frac" 2.5 b;
    Alcotest.(check (float 0.0)) "exp" (-300.0) c
  | _ -> Alcotest.fail "array parse");
  let expect_error s =
    match Json.parse s with
    | _ -> Alcotest.failf "expected a parse error for %s" s
    | exception Json.Parse_error _ -> ()
  in
  expect_error "{\"a\":1} trailing";
  expect_error "{\"a\":}";
  expect_error "[1,]";
  expect_error "\"unterminated"

(* --- trace context -------------------------------------------------- *)

let test_trace_context_nests () =
  Alcotest.(check bool) "no ambient context" true
    (Telemetry.current_trace () = None);
  Telemetry.with_trace ~id:"outer" ~sampled:true (fun () ->
      Alcotest.(check (option string)) "outer id" (Some "outer")
        (Telemetry.current_trace_id ());
      Telemetry.with_trace ~id:"inner" ~sampled:false (fun () ->
          Alcotest.(check bool) "inner shadows" true
            (Telemetry.current_trace () = Some ("inner", false)));
      Alcotest.(check (option string)) "outer restored" (Some "outer")
        (Telemetry.current_trace_id ()));
  Alcotest.(check bool) "context cleared" true
    (Telemetry.current_trace () = None);
  (* restored on exception too *)
  (try
     Telemetry.with_trace ~id:"boom" ~sampled:true (fun () ->
         failwith "boom")
   with Failure _ -> ());
  Alcotest.(check bool) "cleared after raise" true
    (Telemetry.current_trace () = None)

let test_trace_sampling_gates_emission () =
  let (), lines =
    with_telemetry (fun () ->
        (* sampled: span lines emit, tagged with the id *)
        Telemetry.with_trace ~id:"tid-on" ~sampled:true (fun () ->
            Telemetry.with_span "t.sampled" (fun () -> ()));
        (* unsampled: no lines, but aggregates still fed *)
        Telemetry.with_trace ~id:"tid-off" ~sampled:false (fun () ->
            Telemetry.with_span "t.unsampled" (fun () -> ());
            Telemetry.trace_event "custom" [ ("k", "v") ]);
        (* no context: legacy emit-everything behavior *)
        Telemetry.with_span "t.plain" (fun () -> ()))
  in
  let spans = span_events lines in
  let names =
    List.map (fun j -> field_str "name" j) spans |> List.sort compare
  in
  Alcotest.(check (list string)) "only sampled and plain spans emitted"
    [ "t.plain"; "t.sampled" ] names;
  List.iter
    (fun j ->
      match (field_str "name" j, Json.member "trace" j) with
      | "t.sampled", Some (Json.Str id) ->
        Alcotest.(check string) "sampled span tagged" "tid-on" id
      | "t.sampled", _ -> Alcotest.fail "sampled span lacks trace field"
      | _, trace ->
        Alcotest.(check bool) "plain span untagged" true (trace = None))
    spans;
  Alcotest.(check bool) "unsampled span still aggregated" true
    (Telemetry.span_total_ns "t.unsampled" >= 0L
    && List.exists
         (fun (n, _, _) -> n = "t.unsampled")
         (Telemetry.span_stats ()))

let suite =
  ( "telemetry",
    [ case "three stages nest under translate" test_stage_spans_nest;
      case "span stats aggregate" test_span_stats_aggregate;
      case "p6 join counters" test_p6_join_counters;
      case "naive pipeline has no hash join" test_p6_naive_no_hash_join;
      case "disabled telemetry counts nothing" test_disabled_counts_nothing;
      case "driver cache and result-set counters" test_driver_cache_counters;
      case "trace output is NDJSON over all stages" test_trace_is_ndjson;
      case "one name per counter across snapshot and /metrics"
        test_counter_names_invariant;
      case "reset zeroes everything" test_reset_zeroes;
      case "backwards clock clamps to zero" test_backwards_clock_clamps;
      case "json parser" test_json_parser;
      case "trace context nests and restores" test_trace_context_nests;
      case "trace sampling gates NDJSON, not aggregates"
        test_trace_sampling_gates_emission ] )
