(* Observability layer: histogram percentile accuracy (qcheck),
   fingerprint normalization goldens, the per-fingerprint stats
   registry fed by the driver, flight-recorder ring bounding, the
   dump-on-error path under an env-armed failpoint, and the Prometheus
   exposition against its own linter. *)

module Histogram = Aqua_obs.Histogram
module Fingerprint = Aqua_obs.Fingerprint
module Stats = Aqua_obs.Stats
module Recorder = Aqua_obs.Recorder
module Expose = Aqua_obs.Expose
module Telemetry = Aqua_core.Telemetry
module Json = Aqua_core.Json
module Connection = Aqua_driver.Connection
module Sqlstate = Aqua_resilience.Sqlstate
module Failpoint = Aqua_resilience.Failpoint

let case = Helpers.case
let has haystack needle = Helpers.contains ~needle haystack

(* Obs state is global; every test that touches it starts clean and
   restores the always-on defaults (stats off, recorder on). *)
let with_obs f =
  Stats.reset ();
  Stats.set_enabled true;
  Recorder.clear ();
  Recorder.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Stats.set_enabled false;
      Stats.uninstall_span_histograms ();
      Stats.reset ();
      Recorder.set_dump_sink None;
      Recorder.clear ())
    f

(* --- histogram ------------------------------------------------------ *)

let test_histogram_basics () =
  let h = Histogram.create () in
  Alcotest.(check bool) "fresh is empty" true (Histogram.is_empty h);
  Alcotest.(check int64) "empty p99" 0L (Histogram.p99 h);
  List.iter (fun v -> Histogram.record h v) [ 5L; 5L; 17L; 1_000L; 123_456L ];
  Alcotest.(check int) "count" 5 (Histogram.count h);
  Alcotest.(check int64) "total" 124_483L (Histogram.total h);
  Alcotest.(check int64) "min" 5L (Histogram.min_value h);
  Alcotest.(check int64) "max" 123_456L (Histogram.max_value h);
  Alcotest.(check int64) "p100 is the exact max" 123_456L
    (Histogram.percentile h 100.0);
  (* identity region: values below [subbuckets] are exact *)
  Alcotest.(check int64) "small values are exact" 5L
    (Histogram.percentile h 40.0);
  Histogram.record h (-3L);
  Alcotest.(check int64) "negative clamps to 0" 0L (Histogram.min_value h);
  Histogram.reset h;
  Alcotest.(check bool) "reset empties" true (Histogram.is_empty h)

let exact_rank values p =
  let sorted = List.sort Int64.compare values in
  let n = List.length sorted in
  let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n))) in
  List.nth sorted (rank - 1)

(* Any quantile estimate must land in the same log-linear bucket as the
   exact order statistic — the <= 1/16 relative-error contract. *)
let prop_percentile_accuracy =
  QCheck.Test.make ~name:"p50/p90/p99 within one bucket of exact" ~count:300
    QCheck.(
      list_of_size Gen.(1 -- 200)
        (map Int64.of_int (oneof [ 0 -- 64; 0 -- 100_000; 0 -- 500_000_000 ])))
    (fun values ->
      let h = Histogram.create () in
      List.iter (fun v -> Histogram.record h v) values;
      List.for_all
        (fun p ->
          let est = Histogram.percentile h p in
          let exact = exact_rank values p in
          if Histogram.bucket_index est <> Histogram.bucket_index exact then
            QCheck.Test.fail_reportf
              "p%.0f: estimate %Ld (bucket %d) vs exact %Ld (bucket %d)" p est
              (Histogram.bucket_index est) exact
              (Histogram.bucket_index exact)
          else true)
        [ 50.0; 90.0; 99.0 ])

(* Merging histograms must equal recording the union of their samples,
   regardless of how the samples were split — what makes per-stage and
   cross-fingerprint aggregation well defined. *)
let prop_merge_associative =
  QCheck.Test.make ~name:"merge = recording the union" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 80) (map Int64.of_int (0 -- 1_000_000)))
        (list_of_size Gen.(0 -- 80) (map Int64.of_int (0 -- 1_000_000))))
    (fun (xs, ys) ->
      let record vs =
        let h = Histogram.create () in
        List.iter (fun v -> Histogram.record h v) vs;
        h
      in
      let merged = Histogram.merge (record xs) (record ys) in
      let direct = record (xs @ ys) in
      Histogram.nonzero_buckets merged = Histogram.nonzero_buckets direct
      && Histogram.count merged = Histogram.count direct
      && Histogram.total merged = Histogram.total direct
      && Histogram.min_value merged = Histogram.min_value direct
      && Histogram.max_value merged = Histogram.max_value direct)

let test_histogram_json () =
  let h = Histogram.create () in
  List.iter (fun v -> Histogram.record h v) [ 10L; 20L; 30L ];
  let j = Json.parse (Histogram.quantiles_to_json h) in
  let num name =
    match Json.member name j with
    | Some (Json.Num f) -> int_of_float f
    | _ -> Alcotest.failf "missing %s in %s" name (Json.to_string j)
  in
  Alcotest.(check int) "count" 3 (num "count");
  Alcotest.(check int) "total_ns" 60 (num "total_ns");
  Alcotest.(check int) "max_ns" 30 (num "max_ns")

(* --- fingerprint ---------------------------------------------------- *)

let check_shape = Alcotest.(check string)

let test_fingerprint_goldens () =
  check_shape "literals become ?"
    "SELECT * FROM T WHERE A = ? AND B = ?"
    (Fingerprint.normalize "select * from t where a = 42 and b = 'x''y'");
  check_shape "whitespace and comments collapse"
    "SELECT NAME FROM CUSTOMERS"
    (Fingerprint.normalize
       "  SELECT /* pick
          the column */ name\n\tFROM customers -- trailing");
  check_shape "IN-list arity collapses"
    "SELECT * FROM T WHERE ID IN(?)"
    (Fingerprint.normalize "SELECT * FROM T WHERE ID IN (1, 2, 3, 4)");
  check_shape "numeric forms become ?"
    "SELECT ? + ? + ? FROM T"
    (Fingerprint.normalize "SELECT 1.5 + .25 + 2e-3 FROM t");
  check_shape "quoted identifiers keep case"
    {|SELECT "MixedCase" FROM T|}
    (Fingerprint.normalize {|select "MixedCase" from t|});
  check_shape "unparseable SQL still normalizes" "SELEC X FRM"
    (Fingerprint.normalize "selec x frm")

let test_fingerprint_digests () =
  let d = Fingerprint.digest in
  Alcotest.(check string) "case and literals do not change the digest"
    (d "SELECT NAME FROM CUSTOMERS WHERE TIER = 1")
    (d "select name from customers where tier = 42");
  Alcotest.(check string) "IN-list arity does not change the digest"
    (d "SELECT * FROM T WHERE ID IN (1)")
    (d "SELECT * FROM T WHERE ID IN (1, 2, 3)");
  if d "SELECT A FROM T" = d "SELECT B FROM T" then
    Alcotest.fail "distinct shapes must not collide";
  Alcotest.(check int) "digest is 16 hex chars" 16
    (String.length (d "SELECT 1"));
  let digest, shape = Fingerprint.fingerprint "select 1" in
  Alcotest.(check string) "fingerprint pairs digest with shape" digest
    (Fingerprint.digest shape)

(* --- stats registry through the driver ------------------------------ *)

let test_stats_through_driver () =
  with_obs (fun () ->
      let app = Helpers.demo_app () in
      let conn = Connection.connect app in
      let sql = "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE TIER = 1" in
      ignore (Connection.execute_query conn sql);
      ignore (Connection.execute_query conn sql);
      ignore
        (Connection.execute_query conn
           "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE TIER = 2");
      (match Connection.execute_query conn "SELECT FROM WHERE" with
      | _ -> Alcotest.fail "expected a syntax error"
      | exception Sqlstate.Error _ -> ());
      let digest, _ = Fingerprint.fingerprint sql in
      let e =
        match Stats.find digest with
        | Some e -> e
        | None -> Alcotest.fail "no entry for the replayed fingerprint"
      in
      (* literal normalization folds TIER = 1 and TIER = 2 together *)
      Alcotest.(check int) "calls aggregated by shape" 3 e.Stats.calls;
      (* the plan cache keys on shape with literals lifted: the repeated
         statement and the TIER = 2 variant both reuse the first plan *)
      Alcotest.(check int) "cache hits counted" 2 e.Stats.cache_hits;
      Alcotest.(check bool) "rows accumulated" true (e.Stats.rows > 0);
      Alcotest.(check int) "no errors on this shape" 0 e.Stats.errors;
      Alcotest.(check int) "total histogram counts each call" 3
        (Histogram.count e.Stats.total);
      Alcotest.(check int) "per-stage histograms count each call" 3
        (Histogram.count e.Stats.execute);
      (* the failing statement lands on its own fingerprint with its
         SQLSTATE class *)
      let bad, _ = Fingerprint.fingerprint "SELECT FROM WHERE" in
      let be =
        match Stats.find bad with
        | Some e -> e
        | None -> Alcotest.fail "no entry for the failing fingerprint"
      in
      Alcotest.(check int) "error counted" 1 be.Stats.errors;
      Alcotest.(check bool) "error classed by SQLSTATE prefix" true
        (List.mem_assoc "42" (Stats.error_classes be));
      (* disabled stats observe nothing *)
      Stats.set_enabled false;
      ignore (Connection.execute_query conn sql);
      Alcotest.(check int) "disabled stats observe nothing" 3
        (Stats.find digest |> Option.get).Stats.calls)

(* --- flight recorder ------------------------------------------------ *)

let test_recorder_ring_bounds () =
  with_obs (fun () ->
      Recorder.set_capacity 4;
      Fun.protect
        ~finally:(fun () -> Recorder.set_capacity 64)
        (fun () ->
          for i = 1 to 10 do
            Recorder.record ~fingerprint:(Printf.sprintf "fp%d" i)
              ~shape:"SELECT ?" ~start_ns:0L
              ~dur_ns:(Int64.of_int (i * 100))
              Recorder.Done
          done;
          let evs = Recorder.events () in
          Alcotest.(check int) "ring keeps only the newest" 4
            (List.length evs);
          Alcotest.(check (list string)) "oldest first, newest last"
            [ "fp7"; "fp8"; "fp9"; "fp10" ]
            (List.map (fun (e : Recorder.event) -> e.Recorder.fingerprint) evs);
          let seqs = List.map (fun (e : Recorder.event) -> e.Recorder.seq) evs in
          Alcotest.(check bool) "seq survives the wrap" true
            (List.sort compare seqs = seqs);
          (* a disabled recorder appends nothing *)
          Recorder.set_enabled false;
          Recorder.record ~fingerprint:"off" ~shape:"" ~start_ns:0L
            ~dur_ns:0L Recorder.Done;
          Alcotest.(check int) "disabled recorder is silent" 4
            (List.length (Recorder.events ()))))

(* The acceptance path: a fault armed through AQUA_FAILPOINTS makes a
   query fail past the retry budget; the escaping SQLSTATE error must
   dump the ring — with the failing query's fingerprint and its
   resilience outcome — to the sink. *)
let test_recorder_dump_on_failpoint () =
  with_obs (fun () ->
      Telemetry.set_enabled true;
      Telemetry.reset ();
      Unix.putenv "AQUA_FAILPOINTS" "dsp.invoke=fail";
      Alcotest.(check bool) "failpoint armed from the environment" true
        (Failpoint.arm_from_env ());
      let sink = ref [] in
      Recorder.set_dump_sink (Some (fun line -> sink := line :: !sink));
      Fun.protect
        ~finally:(fun () ->
          Unix.putenv "AQUA_FAILPOINTS" "";
          Failpoint.disarm ();
          Telemetry.set_enabled false)
        (fun () ->
          let app = Helpers.demo_app () in
          let conn = Connection.connect app in
          let sql = "SELECT CUSTOMERNAME FROM CUSTOMERS" in
          let sqlstate =
            match Connection.execute_query conn sql with
            | _ -> Alcotest.fail "expected the injected fault to escape"
            | exception Sqlstate.Error e -> e.Sqlstate.sqlstate
          in
          Alcotest.(check string) "fault surfaces as connection failure"
            "08006" sqlstate;
          let lines = List.rev !sink in
          let jsons = List.map Json.parse lines in
          let header =
            match
              List.find_opt
                (fun j -> Json.member "ev" j = Some (Json.Str "recorder"))
                jsons
            with
            | Some h -> h
            | None -> Alcotest.fail "no recorder header in the dump"
          in
          Alcotest.(check bool) "dump reason is the SQLSTATE" true
            (Json.member "reason" header = Some (Json.Str "08006"));
          let digest, _ = Fingerprint.fingerprint sql in
          let event =
            match
              List.find_opt
                (fun j -> Json.member "fp" j = Some (Json.Str digest))
                jsons
            with
            | Some e -> e
            | None ->
              Alcotest.failf "failing fingerprint %s not in dump:\n%s" digest
                (String.concat "\n" lines)
          in
          Alcotest.(check bool) "event outcome is the SQLSTATE" true
            (Json.member "outcome" event = Some (Json.Str "08006"));
          let num name =
            match Json.member name event with
            | Some (Json.Num f) -> int_of_float f
            | _ -> Alcotest.failf "event lacks %s" name
          in
          Alcotest.(check bool) "faults recorded in the outcome" true
            (num "faults" > 0);
          Alcotest.(check bool) "retries recorded in the outcome" true
            (num "retries" > 0)))

(* --- exposition ----------------------------------------------------- *)

let test_prometheus_lints_clean () =
  with_obs (fun () ->
      Telemetry.set_enabled true;
      Telemetry.reset ();
      Stats.install_span_histograms ();
      Fun.protect
        ~finally:(fun () -> Telemetry.set_enabled false)
        (fun () ->
          let app = Helpers.demo_app () in
          let conn = Connection.connect app in
          ignore
            (Connection.execute_query conn
               "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE TIER = 1");
          (match
             Connection.execute_query conn "SELECT NOPE FROM NOWHERE"
           with
          | _ -> Alcotest.fail "expected an unknown-table error"
          | exception Sqlstate.Error _ -> ());
          let text = Expose.prometheus () in
          Alcotest.(check (list string)) "exposition passes the linter" []
            (Expose.lint text);
          (* the per-fingerprint families must actually be present *)
          let contains needle =
            let nl = String.length needle and tl = String.length text in
            let rec scan i =
              i + nl <= tl
              && (String.sub text i nl = needle || scan (i + 1))
            in
            scan 0
          in
          Alcotest.(check bool) "query calls exposed" true
            (contains "aqua_query_calls_total");
          Alcotest.(check bool) "per-stage quantiles exposed" true
            (contains "aqua_query_latency_ns");
          Alcotest.(check bool) "error classes exposed" true
            (contains "aqua_query_errors_total");
          Alcotest.(check bool) "span histograms exposed" true
            (contains "aqua_latency_ns_bucket");
          let j = Json.parse (Expose.json ()) in
          (match Json.member "fingerprints" j with
          | Some (Json.Arr (_ :: _)) -> ()
          | _ -> Alcotest.fail "json exposition lacks fingerprints");
          match Json.member "histograms" j with
          | Some (Json.Obj _) -> ()
          | _ -> Alcotest.fail "json exposition lacks histograms"))

(* Gauges: registered read-callbacks must render as a gauge family,
   pass the linter, track the underlying value live, and disappear on
   unregister. *)
let test_gauges_render_and_lint () =
  let depth = ref 3 in
  Expose.register_gauge ~help:"a test gauge" "test.gauge_depth" (fun () ->
      !depth);
  Fun.protect
    ~finally:(fun () -> Expose.unregister_gauge "test.gauge_depth")
    (fun () ->
      let text = Expose.prometheus () in
      Alcotest.(check (list string)) "exposition with gauges lints clean" []
        (Expose.lint text);
      Alcotest.(check bool) "TYPE line says gauge" true
        (has text "# TYPE aqua_test_gauge_depth gauge");
      Alcotest.(check bool) "value rendered" true
        (has text "aqua_test_gauge_depth 3");
      depth := 7;
      Alcotest.(check bool) "gauge reads live" true
        (has (Expose.prometheus ()) "aqua_test_gauge_depth 7");
      Alcotest.(check bool) "json exposition carries gauges" true
        (match Json.member "gauges" (Json.parse (Expose.json ())) with
        | Some (Json.Obj fields) ->
          List.exists (fun (k, _) -> k = "test.gauge_depth") fields
        | _ -> false);
      (* a raising reader is skipped, not fatal to the scrape *)
      Expose.register_gauge ~help:"broken" "test.gauge_broken" (fun () ->
          failwith "reader died");
      Fun.protect
        ~finally:(fun () -> Expose.unregister_gauge "test.gauge_broken")
        (fun () ->
          let text = Expose.prometheus () in
          Alcotest.(check (list string)) "scrape survives a dead reader" []
            (Expose.lint text);
          Alcotest.(check bool) "dead reader omitted" false
            (has text "test_gauge_broken")));
  Alcotest.(check bool) "unregistered gauge gone" false
    (has (Expose.prometheus ()) "aqua_test_gauge_depth")

(* The recorder stamps events with the ambient trace context, and the
   NDJSON rendering carries the id. *)
let test_recorder_trace_ids () =
  with_obs (fun () ->
      Telemetry.with_trace ~id:"trace-77" ~sampled:false (fun () ->
          Recorder.record ~fingerprint:"fp-ambient" ~shape:"SELECT ?"
            ~start_ns:0L ~dur_ns:10L Recorder.Done);
      Recorder.record ~fingerprint:"fp-explicit" ~shape:"SELECT ?"
        ~trace_id:"trace-88" ~start_ns:0L ~dur_ns:10L Recorder.Done;
      Recorder.record ~fingerprint:"fp-none" ~shape:"SELECT ?" ~start_ns:0L
        ~dur_ns:10L Recorder.Done;
      match Recorder.events () with
      | [ ambient; explicit; bare ] ->
        Alcotest.(check string) "ambient context stamped" "trace-77"
          ambient.Recorder.trace_id;
        Alcotest.(check bool) "ambient id in ndjson" true
          (has
             (Recorder.event_to_ndjson ambient)
             "\"trace\":\"trace-77\"");
        Alcotest.(check string) "explicit id wins" "trace-88"
          explicit.Recorder.trace_id;
        Alcotest.(check string) "no context, no id" ""
          bare.Recorder.trace_id;
        Alcotest.(check bool) "no trace field without an id" false
          (has (Recorder.event_to_ndjson bare) "\"trace\"")
      | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs))

(* The linter itself must reject broken expositions, or the CI check
   proves nothing. *)
let test_linter_catches_breakage () =
  let reject label text =
    if Expose.lint text = [] then
      Alcotest.failf "linter accepted %s:\n%s" label text
  in
  reject "sample without TYPE" "aqua_x_total 1\n";
  reject "non-cumulative buckets"
    "# TYPE h histogram\n\
     h_bucket{le=\"1\"} 5\n\
     h_bucket{le=\"2\"} 3\n\
     h_bucket{le=\"+Inf\"} 5\n\
     h_sum 9\nh_count 5\n";
  reject "missing +Inf bucket"
    "# TYPE h histogram\nh_bucket{le=\"1\"} 5\nh_sum 9\nh_count 5\n";
  reject "count disagrees with +Inf"
    "# TYPE h histogram\n\
     h_bucket{le=\"+Inf\"} 5\n\
     h_sum 9\nh_count 7\n";
  reject "malformed value" "# TYPE c counter\nc 12abc\n";
  Alcotest.(check (list string)) "a valid exposition passes" []
    (Expose.lint
       "# HELP c a counter\n# TYPE c counter\nc{label=\"v\"} 12\n")

(* --- probe cost ------------------------------------------------------ *)

(* The probes cost O(1) per query: with the flight recorder, the
   per-fingerprint stats, telemetry spans and span histograms all on, a
   warm join allocates the same number of extra words over 150 ORDERS
   rows as over 1500, within a small constant, so no probe does work
   per row.  Each figure is the least of three warm calls, since a span
   histogram allocates when a duration lands in a new bucket. *)
let test_probe_cost_is_per_query () =
  let sql =
    "SELECT C.CUSTOMERNAME, O.ORDERID FROM CUSTOMERS C INNER JOIN ORDERS O \
     ON C.CUSTOMERID = O.CUSTOMERID WHERE O.PRIORITY > 1"
  in
  let probes on =
    Recorder.set_enabled on;
    Stats.set_enabled on;
    Telemetry.set_enabled on;
    if on then Stats.install_span_histograms ()
    else Stats.uninstall_span_histograms ()
  in
  let extra (customers, orders, lines_per_order, payments) =
    let conn =
      Connection.connect
        (Aqua_workload.Datagen.application ~seed:42
           { customers; orders; lines_per_order; payments })
    in
    let words on =
      probes on;
      List.fold_left Float.min infinity
        (List.init 3 (fun _ ->
             Helpers.minor_words (fun () -> Connection.execute_query conn sql)))
    in
    let off = words false in
    words true -. off
  in
  with_obs @@ fun () ->
  Fun.protect ~finally:(fun () ->
      probes false;
      Recorder.set_enabled true)
  @@ fun () ->
  let small = extra (40, 150, 2, 90) and large = extra (400, 1500, 2, 900) in
  if Float.abs (large -. small) > 32. then
    Alcotest.failf
      "the probes allocate %.0f words per query over 150 ORDERS rows and \
       %.0f over 1500"
      small large

let suite =
  ( "obs",
    [ case "histogram basics" test_histogram_basics;
      Helpers.qcheck prop_percentile_accuracy;
      Helpers.qcheck prop_merge_associative;
      case "histogram quantile json" test_histogram_json;
      case "fingerprint normalization goldens" test_fingerprint_goldens;
      case "fingerprint digests" test_fingerprint_digests;
      case "stats registry through the driver" test_stats_through_driver;
      case "recorder ring is bounded" test_recorder_ring_bounds;
      case "recorder dumps on failpoint fault" test_recorder_dump_on_failpoint;
      case "prometheus exposition lints clean" test_prometheus_lints_clean;
      case "gauges render, lint and unregister" test_gauges_render_and_lint;
      case "recorder stamps trace ids" test_recorder_trace_ids;
      case "linter catches breakage" test_linter_catches_breakage;
      case "probes cost the same words at 10x the rows"
        test_probe_cost_is_per_query ] )
