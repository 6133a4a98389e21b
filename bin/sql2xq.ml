(* sql2xq: command-line front end to the translator.

     sql2xq translate "SELECT * FROM CUSTOMERS"   print the XQuery
     sql2xq run       "SELECT ..."                execute via DSP, print rows
     sql2xq text      "SELECT ..."                print the section-4 wrapper
     sql2xq tables                                list demo catalog tables
     sql2xq lint-prom FILE                        lint Prometheus text

   Queries run against the built-in demo catalog (see demo_catalog.ml). *)

open Cmdliner

module Translator = Aqua_translator.Translator
module Semantic = Aqua_translator.Semantic
module Errors = Aqua_translator.Errors
module Server = Aqua_dsp.Server
module Metadata = Aqua_dsp.Metadata
module Telemetry = Aqua_core.Telemetry
module Budget = Aqua_resilience.Budget
module Failpoint = Aqua_resilience.Failpoint
module Sqlstate = Aqua_resilience.Sqlstate
module Obs_stats = Aqua_obs.Stats
module Histogram = Aqua_obs.Histogram
module Fingerprint = Aqua_obs.Fingerprint
module Recorder = Aqua_obs.Recorder
module Expose = Aqua_obs.Expose

let with_env f =
  let app = Aqua_workload.Demo.build () in
  let env = Semantic.env_of_application app in
  (* every failure mode funnels through the driver taxonomy, so the
     CLI prints one "[SQLSTATE] condition: message" line and exits 1 *)
  try Aqua_driver.Sql_error.wrap (fun () -> f app env)
  with Sqlstate.Error e ->
    prerr_endline (Sqlstate.to_string e);
    exit 1

(* An input file's text ("-": stdin).  An unreadable input is the
   caller's error, reported with the file's name before any query runs,
   not an engine fault. *)
let read_input file =
  try
    if file = "-" then In_channel.input_all stdin
    else In_channel.with_open_text file In_channel.input_all
  with Sys_error msg ->
    prerr_endline ("sql2xq: cannot read input: " ^ msg);
    exit 1

let style_of_naive naive =
  if naive then Aqua_translator.Generate.Naive
  else Aqua_translator.Generate.Patterned

let sql_arg =
  Arg.(required & pos 0 (some string) None & info [] ~docv:"SQL")

let naive_flag =
  Arg.(value & flag & info [ "naive" ] ~doc:"Use the naive emission style.")

let no_optimize_flag =
  Arg.(
    value & flag
    & info [ "no-optimize" ]
        ~doc:
          "Disable the XQuery optimizer (predicate pushdown, hash \
           equi-joins); evaluate with the naive nested-loop pipeline.")

let no_scan_cache_flag =
  Arg.(
    value & flag
    & info [ "no-scan-cache" ]
        ~doc:
          "Disable the cross-query materialized scan cache for \
           parameterless data-service calls: every call materializes its \
           rows afresh.")

let translate_cmd =
  let run sql naive =
    with_env (fun _app env ->
        let t = Translator.translate ~style:(style_of_naive naive) env sql in
        print_endline (Translator.to_string t);
        prerr_endline
          ("-- result columns: "
          ^ String.concat ", "
              (List.map
                 (fun (c : Aqua_translator.Outcol.t) ->
                   Printf.sprintf "%s %s" c.label
                     (Aqua_relational.Sql_type.to_string c.ty))
                 t.Translator.columns)))
  in
  Cmd.v
    (Cmd.info "translate" ~doc:"Translate SQL to XQuery and print it")
    Term.(const run $ sql_arg $ naive_flag)

let trace_flag =
  Arg.(
    value & flag
    & info [ "trace" ]
        ~doc:
          "Emit NDJSON telemetry trace events to stderr (one span per \
           line, plus a final snapshot of all counters).")

let timeout_opt =
  Arg.(
    value & opt (some int) None
    & info [ "timeout" ] ~docv:"MS"
        ~doc:
          "Per-query deadline in milliseconds; exceeding it cancels the \
           query with SQLSTATE 57014.")

let max_rows_opt =
  Arg.(
    value & opt (some int) None
    & info [ "max-rows" ] ~docv:"N"
        ~doc:
          "Per-query output-row governor; exceeding it fails the query \
           with SQLSTATE 53400.")

let failpoints_opt =
  Arg.(
    value & opt (some string) None
    & info [ "failpoints" ] ~docv:"SPEC"
        ~doc:
          "Arm fault-injection sites, e.g. \
           'dsp.invoke=fail(1);engine.scan=delay(5ms)'.  Also read from \
           \\$(b,AQUA_FAILPOINTS).")

(* Arm --failpoints (the flag wins over the environment) and build the
   query budget from the governor flags. *)
let governors ?timeout ?max_rows failpoints =
  (match failpoints with
   | Some spec -> Failpoint.arm spec
   | None -> ignore (Failpoint.arm_from_env ()));
  Budget.limits ?timeout_ms:timeout ?max_rows ()

(* Server.execute returns XML items, not decoded rows: count the
   RECORD children of a RECORDSET (one per row), and any other item as
   itself, against the row governor. *)
let tick_items_as_rows items =
  List.iter
    (fun item ->
      match item with
      | Aqua_xml.Item.Node (Aqua_xml.Node.Element e)
        when Aqua_xml.Node.local_name e.Aqua_xml.Node.name = "RECORDSET" ->
        Budget.tick_rows
          (List.length
             (Aqua_xml.Node.children_elements (Aqua_xml.Node.Element e)))
      | _ -> Budget.tick_rows 1)
    items

let start_trace () =
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Telemetry.set_trace_sink (Some prerr_endline)

let finish_trace () = prerr_endline (Expose.trace_snapshot ())

let run_cmd =
  let run sql naive no_optimize no_scan_cache trace timeout max_rows
      failpoints =
    with_env (fun app env ->
        if trace then start_trace ();
        (* the final counter snapshot must reach the sink even when
           translation or execution raises — that failing trace is the
           one worth reading *)
        Fun.protect
          ~finally:(fun () -> if trace then finish_trace ())
          (fun () ->
            let limits = governors ?timeout ?max_rows failpoints in
            Failpoint.hit "driver.translate";
            let t =
              Translator.translate ~style:(style_of_naive naive) env sql
            in
            let server =
              Server.create ~optimize:(not no_optimize)
                ~scan_cache:(not no_scan_cache) app
            in
            let items =
              Budget.with_budget limits @@ fun () ->
              Telemetry.with_span "execute" @@ fun () ->
              let items = Server.execute server t.Translator.xquery in
              tick_items_as_rows items;
              items
            in
            print_endline
              (Aqua_xml.Serialize.sequence_to_string ~indent:true items)))
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Translate and execute; print the XML result")
    Term.(
      const run $ sql_arg $ naive_flag $ no_optimize_flag $ no_scan_cache_flag
      $ trace_flag $ timeout_opt $ max_rows_opt $ failpoints_opt)

let analyze_cmd =
  let ms ns = Int64.to_float ns /. 1e6 in
  let run sql naive no_optimize no_scan_cache trace timeout max_rows
      failpoints =
    with_env (fun app env ->
        Telemetry.set_enabled true;
        Telemetry.reset ();
        Obs_stats.reset ();
        Obs_stats.set_enabled true;
        Obs_stats.install_span_histograms ();
        if trace then Telemetry.set_trace_sink (Some prerr_endline);
        Fun.protect
          ~finally:(fun () ->
            Obs_stats.uninstall_span_histograms ();
            (* flush the snapshot even when translation or execution
               raises mid-report *)
            if trace then finish_trace ())
        @@ fun () ->
        let limits = governors ?timeout ?max_rows failpoints in
        Failpoint.hit "driver.translate";
        let t = Translator.translate ~style:(style_of_naive naive) env sql in
        let server =
          Server.create ~optimize:(not no_optimize)
            ~scan_cache:(not no_scan_cache) app
        in
        (* the plan the driver runs: the text transport's wrapper,
           executed and decoded as the connection does *)
        let wrapped = Translator.for_text_transport t in
        let text, rs =
          Budget.with_budget limits @@ fun () ->
          let text =
            Telemetry.with_span "execute" (fun () ->
                Server.execute_to_text server wrapped)
          in
          ( text,
            Telemetry.with_span "decode" (fun () ->
                Aqua_driver.Result_set.of_encoded_text t.Translator.columns
                  text) )
        in
        let clause_rows = Telemetry.clause_rows () in
        let span_stats = Telemetry.span_stats () in
        let execute_ns = Telemetry.span_total_ns "execute" in
        let decode_ns = Telemetry.span_total_ns "decode" in
        Telemetry.set_enabled false;
        Obs_stats.set_enabled false;
        (* the counters are frozen now, so re-running the optimizer for
           its report and compiling the plan again for its notes does
           not skew the figures read below *)
        let _, report =
          Aqua_xqeval.Optimize.query
            ~node_fns:
              (Server.physical_fns app
                 t.Translator.xquery.Aqua_xquery.Ast.prolog
                   .Aqua_xquery.Ast.imports)
            wrapped
        in
        Printf.printf "EXPLAIN ANALYZE  %s\n" sql;
        Printf.printf "translation (three stages):\n";
        List.iter
          (fun (stage, span) ->
            Printf.printf "  %-18s %8.3f ms\n" stage
              (ms (Telemetry.span_total_ns span)))
          [ ("stage 1 parse", "translate.parse");
            ("stage 2 semantic", "translate.semantic");
            ("stage 3 generate", "translate.generate") ];
        let v = Telemetry.value in
        if no_optimize then Printf.printf "optimizer: disabled (--no-optimize)\n"
        else begin
          print_endline (Aqua_xqeval.Optimize.report_line report);
          List.iter
            (fun note -> Printf.printf "  note: %s\n" note)
            (report.Aqua_xqeval.Optimize.notes
            @ Server.shape (Server.prepare server wrapped))
        end;
        if no_scan_cache then
          Printf.printf "scan cache: disabled (--no-scan-cache)\n"
        else begin
          let sc = Aqua_dsp.Scan_cache.stats (Server.scan_cache server) in
          Printf.printf
            "scan cache: hits=%d misses=%d evictions=%d entries=%d bytes=%d\n"
            sc.Aqua_dsp.Scan_cache.hits sc.Aqua_dsp.Scan_cache.misses
            sc.Aqua_dsp.Scan_cache.evictions sc.Aqua_dsp.Scan_cache.entries
            sc.Aqua_dsp.Scan_cache.bytes
        end;
        Printf.printf "execution: %.3f ms, %d row(s) returned\n" (ms execute_ns)
          (Aqua_driver.Result_set.row_count rs);
        if clause_rows <> [] then begin
          Printf.printf "plan (clause -> actual rows):\n";
          List.iter
            (fun (label, rows) -> Printf.printf "  %-28s %8d\n" label rows)
            clause_rows
        end;
        if no_optimize then
          Printf.printf "batch pipeline: disabled (--no-optimize)\n"
        else begin
          let batches = v Telemetry.c_col_batches in
          let brows = v Telemetry.c_col_rows in
          Printf.printf
            "batch pipeline: %d-row batches; %d batch(es) pushed, %.1f \
             rows/batch avg, %d row(s) where-filtered\n"
            (Aqua_xqeval.Batch.size ()) batches
            (if batches = 0 then 0.0 else float_of_int brows /. float_of_int batches)
            (v Telemetry.c_batch_filtered);
          (* per-clause selectivity: each vectorized clause's output
             rows against its input (the previous clause's output) *)
          if clause_rows <> [] then begin
            Printf.printf "  clause (vectorized)          rows out  selectivity\n";
            ignore
              (List.fold_left
                 (fun prev (label, rows) ->
                   (match prev with
                   | Some p when p > 0 ->
                     Printf.printf "  %-28s %8d  %9.1f%%\n" label rows
                       (100.0 *. float_of_int rows /. float_of_int p)
                   | _ -> Printf.printf "  %-28s %8d          -\n" label rows);
                   Some rows)
                 None clause_rows)
          end;
          Printf.printf
            "columnar layout: %d batch(es), %d row(s); %d column copies \
             pruned, %d kernel update(s); %d projected column(s) built, \
             %d memo hit(s); %d derived cell column(s) built, %d derived \
             hit(s)\n"
            batches brows
            (v Telemetry.c_col_pruned_columns)
            (v Telemetry.c_col_kernel_updates)
            (v Telemetry.c_col_projected_columns)
            (v Telemetry.c_col_projection_hits)
            (v Telemetry.c_col_derived_columns)
            (v Telemetry.c_col_derived_hits)
        end;
        Printf.printf "engine counters:\n";
        Printf.printf "  rows emitted (all clauses)   %8d\n"
          (v Telemetry.c_rows_emitted);
        Printf.printf
          "  hash join: builds=%d build_rows=%d probes=%d collisions=%d \
           reused=%d\n"
          (v Telemetry.c_hash_join_builds) (v Telemetry.c_hash_join_build_rows)
          (v Telemetry.c_hash_join_probes) (v Telemetry.c_hash_join_collisions)
          (v Telemetry.c_hash_join_reused);
        let ds_spans =
          List.filter
            (fun (name, _, _) ->
              String.length name > 9 && String.sub name 0 9 = "dsp.call.")
            span_stats
        in
        if ds_spans <> [] then begin
          Printf.printf "data-service calls:\n";
          List.iter
            (fun (name, n, total) ->
              Printf.printf "  %-28s n=%-4d %8.3f ms\n"
                (String.sub name 9 (String.length name - 9))
                n (ms total))
            ds_spans
        end;
        let resilience_active =
          v Telemetry.c_retry_attempts + v Telemetry.c_retry_giveups
          + v Telemetry.c_breaker_trips + v Telemetry.c_breaker_recoveries
          + v Telemetry.c_breaker_rejections + v Telemetry.c_deadline_exceeded
          + v Telemetry.c_resource_exhausted + v Telemetry.c_faults_injected
          + v Telemetry.c_fallbacks_unoptimized
          > 0
        in
        if resilience_active then begin
          Printf.printf "resilience:\n";
          Printf.printf "  faults injected=%d retries=%d giveups=%d\n"
            (v Telemetry.c_faults_injected)
            (v Telemetry.c_retry_attempts)
            (v Telemetry.c_retry_giveups);
          Printf.printf "  breaker trips=%d recoveries=%d rejections=%d\n"
            (v Telemetry.c_breaker_trips)
            (v Telemetry.c_breaker_recoveries)
            (v Telemetry.c_breaker_rejections);
          Printf.printf
            "  deadline exceeded=%d resources exhausted=%d \
             unoptimized fallbacks=%d\n"
            (v Telemetry.c_deadline_exceeded)
            (v Telemetry.c_resource_exhausted)
            (v Telemetry.c_fallbacks_unoptimized)
        end;
        let hists =
          List.filter
            (fun (_, h) -> not (Histogram.is_empty h))
            (Obs_stats.histograms ())
        in
        if hists <> [] then begin
          Printf.printf "latency distributions (per span, ms):\n";
          List.iter
            (fun (name, h) ->
              Printf.printf
                "  %-28s n=%-4d p50=%8.3f p90=%8.3f p99=%8.3f max=%8.3f\n"
                name (Histogram.count h)
                (ms (Histogram.p50 h))
                (ms (Histogram.p90 h))
                (ms (Histogram.p99 h))
                (ms (Histogram.max_value h)))
            hists
        end;
        let digest, shape = Fingerprint.fingerprint sql in
        Printf.printf "fingerprint: %s  %s\n" digest shape;
        Printf.printf "decode: %.3f ms (%d bytes)\n" (ms decode_ns)
          (String.length text))
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Translate, execute and print an EXPLAIN ANALYZE-style report: \
          per-stage timings, optimizer decisions, per-clause row counts, \
          batch-pipeline shape, engine counters and resilience counters \
          (retries, breaker state changes, governor trips).")
    Term.(
      const run $ sql_arg $ naive_flag $ no_optimize_flag $ no_scan_cache_flag
      $ trace_flag $ timeout_opt $ max_rows_opt $ failpoints_opt)

(* sql2xq stats: replay a workload through the driver (the real
   Connection path: translation cache, budgets, fallback, transports)
   with the per-fingerprint stats registry and the flight recorder on,
   then render the registry — the pg_stat_statements view of the
   workload. *)
let stats_cmd =
  let ms ns = Int64.to_float ns /. 1e6 in
  let queries_opt =
    Arg.(
      value & opt (some string) None
      & info [ "queries" ] ~docv:"FILE"
          ~doc:
            "Replay the SQL statements in $(docv), one per line (blank \
             lines and lines starting with '#' are skipped).  Without \
             this flag a reproducible random reporting workload is \
             generated.")
  in
  let count_opt =
    Arg.(
      value & opt int 12
      & info [ "count" ] ~docv:"N"
          ~doc:"Distinct generated statements (ignored with --queries).")
  in
  let repeat_opt =
    Arg.(
      value & opt int 5
      & info [ "repeat" ] ~docv:"R"
          ~doc:"Times the statement list is replayed.")
  in
  let seed_opt =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED" ~doc:"Workload-generator seed.")
  in
  let top_opt =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"N" ~doc:"Fingerprints shown (table format).")
  in
  let by_opt =
    Arg.(
      value
      & opt
          (enum
             [
               ("time", Obs_stats.By_total_time);
               ("p99", Obs_stats.By_p99);
               ("calls", Obs_stats.By_calls);
             ])
          Obs_stats.By_total_time
      & info [ "by" ] ~docv:"ORDER"
          ~doc:"Ranking for --top: $(b,time), $(b,p99) or $(b,calls).")
  in
  let format_opt =
    Arg.(
      value
      & opt (enum [ ("table", `Table); ("prom", `Prom); ("json", `Json) ])
          `Table
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "Output format: human $(b,table), Prometheus text exposition \
             ($(b,prom)) or $(b,json).")
  in
  let read_queries file =
    read_input file
    |> String.split_on_char '\n'
    |> List.filter_map (fun line ->
           let line = String.trim line in
           if line = "" || line.[0] = '#' then None else Some line)
  in
  let print_table ~executed ~failures top by =
    let entries = Obs_stats.top ~by top in
    Printf.printf "%d statement(s) executed, %d failed, %d fingerprint(s)\n"
      executed failures
      (List.length (Obs_stats.entries ()));
    List.iter
      (fun (e : Obs_stats.entry) ->
        let errors =
          if e.Obs_stats.errors = 0 then ""
          else
            Printf.sprintf " errors=%d (%s)" e.Obs_stats.errors
              (String.concat ", "
                 (List.map
                    (fun (cls, n) -> Printf.sprintf "class %s: %d" cls n)
                    (Obs_stats.error_classes e)))
        in
        Printf.printf "\nfingerprint %s  calls=%d rows=%d cache-hits=%d%s\n"
          e.Obs_stats.fingerprint e.Obs_stats.calls e.Obs_stats.rows
          e.Obs_stats.cache_hits errors;
        Printf.printf "  shape: %s\n" e.Obs_stats.shape;
        Printf.printf "  %-10s %10s %10s %10s %10s  (ms)\n" "stage" "p50"
          "p90" "p99" "max";
        List.iter
          (fun (stage, h) ->
            if not (Histogram.is_empty h) then
              Printf.printf "  %-10s %10.3f %10.3f %10.3f %10.3f\n" stage
                (ms (Histogram.p50 h))
                (ms (Histogram.p90 h))
                (ms (Histogram.p99 h))
                (ms (Histogram.max_value h)))
          [
            ("translate", e.Obs_stats.translate);
            ("execute", e.Obs_stats.execute);
            ("decode", e.Obs_stats.decode);
            ("total", e.Obs_stats.total);
          ])
      entries;
    match Recorder.last_error () with
    | Some ev ->
      Printf.printf "\nlast failure (flight recorder):\n%s\n"
        (Recorder.event_to_ndjson ev)
    | None -> ()
  in
  let run queries count repeat seed top by format no_scan_cache trace timeout
      max_rows failpoints =
    let file_sqls = Option.map read_queries queries in
    with_env (fun app _env ->
        Telemetry.set_enabled true;
        Telemetry.reset ();
        Obs_stats.reset ();
        Obs_stats.set_enabled true;
        Obs_stats.install_span_histograms ();
        Recorder.clear ();
        if trace then begin
          Telemetry.set_trace_sink (Some prerr_endline);
          (* failing statements dump the flight-recorder ring into the
             same NDJSON stream *)
          Recorder.set_dump_sink (Some prerr_endline)
        end;
        let limits = governors ?timeout ?max_rows failpoints in
        let sqls =
          match file_sqls with
          | Some sqls -> sqls
          | None ->
            let tables = Metadata.list_tables app in
            let st = Random.State.make [| seed |] in
            List.init count (fun _ ->
                Aqua_workload.Querygen.generate_sql
                  ~profile:Aqua_workload.Querygen.reporting_profile st tables)
        in
        if sqls = [] then begin
          prerr_endline "stats: no statements to replay";
          exit 1
        end;
        let conn =
          Aqua_driver.Connection.connect ~limits
            ~scan_cache:(not no_scan_cache) app
        in
        Aqua_driver.Connection.register_scan_cache_gauge conn;
        let executed = ref 0 and failures = ref 0 in
        for _ = 1 to max 1 repeat do
          List.iter
            (fun sql ->
              incr executed;
              match Aqua_driver.Connection.execute_query conn sql with
              | _rs -> ()
              | exception Sqlstate.Error _ -> incr failures)
            sqls
        done;
        Obs_stats.uninstall_span_histograms ();
        if trace then finish_trace ();
        match format with
        | `Prom -> print_string (Expose.prometheus ())
        | `Json -> print_endline (Expose.json ())
        | `Table -> print_table ~executed:!executed ~failures:!failures top by)
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:
         "Replay a workload through the driver and report per-fingerprint \
          statistics: calls, rows, translation-cache hits, errors by \
          SQLSTATE class, and p50/p90/p99 latency per stage.  \
          $(b,--format prom) emits the Prometheus text exposition.")
    Term.(
      const run $ queries_opt $ count_opt $ repeat_opt $ seed_opt $ top_opt
      $ by_opt $ format_opt $ no_scan_cache_flag $ trace_flag $ timeout_opt
      $ max_rows_opt $ failpoints_opt)

let text_cmd =
  let run sql naive no_optimize =
    with_env (fun app env ->
        let t = Translator.translate ~style:(style_of_naive naive) env sql in
        let wrapped = Translator.for_text_transport t in
        print_endline (Aqua_xquery.Pretty.query_to_string wrapped);
        let server = Server.create ~optimize:(not no_optimize) app in
        let text = Server.execute_to_text server wrapped in
        Printf.printf "-- wire text (%d bytes): %s\n" (String.length text)
          (String.escaped text))
  in
  Cmd.v
    (Cmd.info "text"
       ~doc:"Print the text-transport wrapper query and its wire output")
    Term.(const run $ sql_arg $ naive_flag $ no_optimize_flag)

let diff_cmd =
  let run sql =
    with_env (fun app env ->
        ignore env;
        let conn =
          Aqua_driver.Connection.connect ~transport:Aqua_driver.Connection.Text
            app
        in
        let rs = Aqua_driver.Connection.execute_query conn sql in
        let via_driver = Aqua_driver.Result_set.to_rowset rs in
        let engine_env = Aqua_sqlengine.Engine.env_of_application app in
        let direct = Aqua_sqlengine.Engine.execute_sql engine_env sql in
        match Aqua_relational.Rowset.diff_summary direct via_driver with
        | None ->
          Printf.printf "MATCH (%d rows)\n%s\n"
            (List.length direct.Aqua_relational.Rowset.rows)
            (Aqua_relational.Rowset.to_string direct)
        | Some msg ->
          Printf.printf "MISMATCH: %s\n-- direct engine:\n%s\n-- via driver:\n%s\n"
            msg
            (Aqua_relational.Rowset.to_string direct)
            (Aqua_relational.Rowset.to_string via_driver);
          exit 1)
  in
  Cmd.v
    (Cmd.info "diff"
       ~doc:"Run via the driver AND the baseline SQL engine; compare rows")
    Term.(const run $ sql_arg)

let wdiff_cmd =
  (* like diff, but against the synthetic workload catalog used by the
     randomized test suite — for reproducing generator findings *)
  let run sql =
    let app =
      Aqua_workload.Datagen.application
        { Aqua_workload.Datagen.customers = 12; orders = 25;
          lines_per_order = 2; payments = 18 }
    in
    try
      let conn = Aqua_driver.Connection.connect app in
      let rs = Aqua_driver.Connection.execute_query conn sql in
      let via_driver = Aqua_driver.Result_set.to_rowset rs in
      let engine_env = Aqua_sqlengine.Engine.env_of_application app in
      let direct = Aqua_sqlengine.Engine.execute_sql engine_env sql in
      match Aqua_relational.Rowset.diff_summary direct via_driver with
      | None ->
        Printf.printf "MATCH (%d rows)\n"
          (List.length direct.Aqua_relational.Rowset.rows)
      | Some msg ->
        Printf.printf
          "MISMATCH: %s\n-- direct engine:\n%s\n-- via driver:\n%s\n" msg
          (Aqua_relational.Rowset.to_string direct)
          (Aqua_relational.Rowset.to_string via_driver);
        exit 1
    with
    | Errors.Error e ->
      prerr_endline (Errors.to_string e);
      exit 1
    | Aqua_xqeval.Error.Dynamic_error m ->
      prerr_endline ("dynamic error: " ^ m);
      exit 1
  in
  Cmd.v
    (Cmd.info "wdiff" ~doc:"diff against the synthetic workload catalog")
    Term.(const run $ sql_arg)

let explain_cmd =
  let show_xquery =
    Arg.(
      value & flag
      & info [ "xquery" ]
          ~doc:
            "Also print the optimized XQuery (hash equi-joins appear as \
             annotated for/where pairs).")
  in
  let run sql show_xquery =
    with_env (fun app env ->
        print_string (Aqua_translator.Explain.statement env
                        (Aqua_sql.Parser.parse sql));
        if show_xquery then begin
          let t = Translator.translate env sql in
          let optimized, _report =
            Aqua_xqeval.Optimize.query
              ~node_fns:
                (Server.physical_fns app
                   t.Translator.xquery.Aqua_xquery.Ast.prolog
                     .Aqua_xquery.Ast.imports)
              t.Translator.xquery
          in
          print_endline "-- optimized xquery --";
          print_endline (Aqua_xquery.Pretty.query_to_string optimized)
        end)
  in
  Cmd.v
    (Cmd.info "explain"
       ~doc:"Show the query-context / resultset-node tree (paper Figs 3-4)")
    Term.(const run $ sql_arg $ show_xquery)

let xq_cmd =
  (* parse raw XQuery text (from a file, or stdin with "-"), print the
     reparsed form, and execute it against the demo catalog *)
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let parse_only =
    Arg.(value & flag & info [ "parse-only" ] ~doc:"Do not execute.")
  in
  let run file parse_only =
    let src = read_input file in
    with_env (fun app _env ->
        match Aqua_xquery.Parser.parse_query src with
        | exception Aqua_xquery.Parser.Parse_error { offset; message } ->
          Printf.eprintf "parse error at offset %d: %s\n" offset message;
          exit 1
        | q ->
          print_endline (Aqua_xquery.Pretty.query_to_string q);
          if not parse_only then begin
            let srv = Server.create app in
            print_endline "-- result --";
            print_endline
              (Aqua_xml.Serialize.sequence_to_string ~indent:true
                 (Server.execute srv q))
          end)
  in
  Cmd.v
    (Cmd.info "xq" ~doc:"Parse (and run) raw XQuery against the demo catalog")
    Term.(const run $ file_arg $ parse_only)

let tables_cmd =
  let run () =
    with_env (fun app _env ->
        List.iter
          (fun (m : Metadata.table) ->
            Printf.printf "%s.%s.%s (%s)\n" m.Metadata.catalog m.Metadata.schema
              m.Metadata.table
              (String.concat ", "
                 (List.map
                    (fun (c : Aqua_relational.Schema.column) -> c.name)
                    m.Metadata.columns)))
          (Metadata.list_tables app))
  in
  Cmd.v
    (Cmd.info "tables" ~doc:"List the demo catalog's tables")
    Term.(const run $ const ())

let lint_prom_cmd =
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE")
  in
  let run file =
    match Expose.lint (read_input file) with
    | [] -> Printf.printf "lint-prom: %s ok\n" file
    | problems ->
      List.iter (fun m -> Printf.eprintf "%s: %s\n" file m) problems;
      exit 1
  in
  Cmd.v
    (Cmd.info "lint-prom"
       ~doc:
         "Check a Prometheus text exposition (FILE, or - for stdin), such \
          as $(b,stats --format prom) output or a $(b,/metrics) scrape; \
          print each problem and exit 1 if there is any.")
    Term.(const run $ file_arg)

let serve_cmd =
  let module Netserver = Aqua_net.Netserver in
  let port_opt =
    Arg.(
      value & opt int 5433
      & info [ "port" ] ~docv:"PORT"
          ~doc:"TCP port to listen on; 0 picks an ephemeral port.")
  in
  let host_opt =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Bind address.")
  in
  let pool_size_opt =
    Arg.(
      value & opt int 8
      & info [ "pool-size" ] ~docv:"N"
          ~doc:"Sessions in the shared session pool.")
  in
  let workers_opt =
    Arg.(
      value & opt int 0
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains serving connections; 0 means pool-size.")
  in
  let queue_depth_opt =
    Arg.(
      value & opt int 16
      & info [ "queue-depth" ] ~docv:"N"
          ~doc:
            "Accepted-but-unserved connection bound; beyond it new \
             connections are refused with SQLSTATE 53300.")
  in
  let borrow_wait_opt =
    Arg.(
      value & opt int 1_000
      & info [ "borrow-wait" ] ~docv:"MS"
          ~doc:
            "Per-query wait for a pool session before shedding with \
             SQLSTATE 53300.")
  in
  let io_timeout_opt =
    Arg.(
      value & opt int 5_000
      & info [ "io-timeout" ] ~docv:"MS"
          ~doc:"Socket read/write deadline per session.")
  in
  let drain_timeout_opt =
    Arg.(
      value & opt int 2_000
      & info [ "drain-timeout" ] ~docv:"MS"
          ~doc:
            "On SIGTERM/SIGINT, bound on waiting for in-flight queries \
             before sessions are cut.")
  in
  let trace_sample_opt =
    Arg.(
      value & opt float 0.0
      & info [ "trace-sample" ] ~docv:"RATE"
          ~doc:
            "Head-based trace-sampling probability in [0,1].  Every wire \
             query gets a trace id (accepted from a leading \
             /*traceparent:ID*/ comment or minted); sampled queries emit \
             their span tree as NDJSON on stderr tagged with that id.  \
             Aggregates and the flight recorder always see every query.")
  in
  let admin_port_opt =
    Arg.(
      value & opt (some int) None
      & info [ "admin-port" ] ~docv:"PORT"
          ~doc:
            "Serve the HTTP admin plane (/metrics, /healthz, /statusz) on \
             this side port; 0 picks an ephemeral port.")
  in
  let run host port pool_size workers queue_depth borrow_wait io_timeout
      drain_timeout trace_sample admin_port no_scan_cache timeout max_rows
      failpoints =
    with_env (fun app _env ->
        let limits = governors ?timeout ?max_rows failpoints in
        Telemetry.set_enabled true;
        (* per-fingerprint stats feed aqua_stat_statements and the
           per-span histograms behind /metrics *)
        Obs_stats.set_enabled true;
        Obs_stats.install_span_histograms ();
        (* sampled span trees become NDJSON on stderr; the drain dump
           and the final exposition go there too: the CI smoke job
           asserts both the trace line and the recorder fired *)
        Telemetry.set_trace_sink (Some prerr_endline);
        Recorder.set_dump_sink (Some prerr_endline);
        let conn =
          Aqua_driver.Connection.connect ~scan_cache:(not no_scan_cache) app
        in
        let config =
          { Netserver.default_config with
            host;
            port;
            pool_size;
            workers;
            queue_depth;
            borrow_wait_ms = borrow_wait;
            io_timeout_ms = io_timeout;
            drain_timeout_ms = drain_timeout;
            trace_sample;
            admin_port;
            limits;
          }
        in
        let s =
          Netserver.run ~config ~snapshot_sink:prerr_string
            ~on_listening:(fun p ->
              Printf.eprintf "listening on %s:%d\n%!" host p)
            ~on_admin_listening:(fun p ->
              Printf.eprintf "admin listening on %s:%d\n%!" host p)
            conn
        in
        Printf.eprintf
          "{\"ev\":\"serve_summary\",\"connections\":%d,\"queries\":%d,\
           \"shed_queue\":%d,\"shed_drain\":%d,\"shed_breaker\":%d,\
           \"protocol_errors\":%d,\"io_timeouts\":%d}\n%!"
          s.Netserver.connections s.queries s.shed_queue s.shed_drain
          s.shed_breaker s.protocol_errors s.io_timeouts)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Serve the translator over the PostgreSQL wire protocol \
          (simple-query subset) until SIGTERM, then drain gracefully")
    Term.(
      const run $ host_opt $ port_opt $ pool_size_opt $ workers_opt
      $ queue_depth_opt $ borrow_wait_opt $ io_timeout_opt
      $ drain_timeout_opt $ trace_sample_opt $ admin_port_opt
      $ no_scan_cache_flag $ timeout_opt $ max_rows_opt $ failpoints_opt)

let client_cmd =
  let module Client = Aqua_net.Client in
  let host_opt =
    Arg.(
      value & opt string "127.0.0.1"
      & info [ "host" ] ~docv:"ADDR" ~doc:"Server address.")
  in
  let port_opt =
    Arg.(
      value & opt int 5433
      & info [ "port" ] ~docv:"PORT" ~doc:"Server port.")
  in
  let timeout_opt =
    Arg.(
      value & opt int 5_000
      & info [ "timeout" ] ~docv:"MS"
          ~doc:"Connect and per-read/write deadline.")
  in
  let fail (code, msg) =
    Printf.eprintf "[%s] %s\n" code msg;
    exit 1
  in
  let run host port timeout_ms sql =
    match Client.connect ~timeout_ms ~host ~port () with
    | Error e -> fail e
    | Ok c ->
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      (match Client.query c sql with
      | Error e -> fail e
      | Ok r ->
        print_endline (String.concat "\t" r.Client.columns);
        List.iter
          (fun row ->
            print_endline
              (String.concat "\t"
                 (List.map (Option.value ~default:"NULL") row)))
          r.Client.rows;
        Printf.eprintf "%s\n" r.Client.tag)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "One-shot wire client: connect to a running $(b,sql2xq serve), \
          send one query, print columns then tab-separated rows (NULL \
          for SQL NULL).  Also answers the aqua_stat_* virtual tables, \
          making it the in-repo way to inspect a live server.")
    Term.(const run $ host_opt $ port_opt $ timeout_opt $ sql_arg)

let () =
  let doc = "SQL-92 to XQuery translation against a demo data-services catalog" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "sql2xq" ~doc)
          [ translate_cmd; run_cmd; analyze_cmd; stats_cmd; text_cmd;
            diff_cmd; wdiff_cmd; explain_cmd; xq_cmd; tables_cmd;
            lint_prom_cmd; serve_cmd; client_cmd ]))
