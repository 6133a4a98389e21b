(* Schema check for the BENCH_*.json files the harness emits — used by
   the CI bench-smoke and obs-smoke jobs, runnable locally:

     dune exec bench/validate.exe BENCH_P6.json BENCH_P9.json
     dune exec bench/validate.exe -- --max-overhead 1.5 BENCH_P9.json
     dune exec bench/validate.exe -- --prom metrics.prom

   JSON files are dispatched on their "experiment" field (P6 join
   strategy, P9 observability overhead, P10 scan materialization, P11
   concurrent serving throughput, P13 wire-protocol serving, P14
   trace-sampling overhead).  --prom switches to linting Prometheus text
   expositions ({!Aqua_obs.Expose.lint}); --max-overhead R additionally
   fails a P9 file whose measured probe overhead ratio exceeds R (and
   bounds P14's serve-path overhead); --min-speedup S fails a P10 file
   whose warm-phase speedup is below S (and floors P11's 4v1 speedup).
   Exit 0 when everything checks out; exit 1 with a list of problems
   otherwise. *)

module Json = Aqua_core.Json

let problems : string list ref = ref []
let problem fmt = Printf.ksprintf (fun m -> problems := m :: !problems) fmt

let check_field path obj name pred ty =
  match Json.member name obj with
  | None -> problem "%s: missing field %S" path name
  | Some v -> if not (pred v) then problem "%s: field %S is not %s" path name ty

let is_string = function Json.Str _ -> true | _ -> false
let is_bool = function Json.Bool _ -> true | _ -> false
let is_number_or_null = function Json.Num _ | Json.Null -> true | _ -> false

let is_int = function
  | Json.Num f -> Float.is_integer f
  | _ -> false

let telemetry_int_fields =
  [ "translations"; "parse_ns"; "semantic_ns"; "generate_ns"; "rows_emitted";
    "hash_join_builds"; "hash_join_build_rows"; "hash_join_probes";
    "hash_join_collisions"; "hash_join_reused"; "pushdown_rewrites";
    "hash_join_rewrites";
    "engine_rows_scanned"; "engine_rows_joined"; "cache_hits"; "cache_misses";
    "resultset_rows"; "ds_calls"; "ds_call_ns"; "scan_cache_hits";
    "scan_cache_misses"; "scan_cache_evictions"; "scan_cache_bytes";
    "batch_batches"; "batch_rows"; "batch_filtered";
    "columnar_batches"; "columnar_rows"; "columnar_pruned_columns";
    "columnar_kernel_updates" ]

let scale_fields =
  [ ("label", is_string, "a string");
    ("customers", is_int, "an integer");
    ("orders", is_int, "an integer");
    ("nested_loop_ns", is_number_or_null, "a number or null");
    ("hash_join_ns", is_number_or_null, "a number or null");
    ("hash_join_telemetry_ns", is_number_or_null, "a number or null");
    ("hash_join_compiled_ns", is_number_or_null, "a number or null");
    ("speedup_hash", is_number_or_null, "a number or null");
    ("speedup_hash_compiled", is_number_or_null, "a number or null");
    ("telemetry_overhead", is_number_or_null, "a number or null") ]

let histogram_int_fields =
  [ "count"; "total_ns"; "min_ns"; "p50_ns"; "p90_ns"; "p99_ns"; "max_ns" ]

(* P9: observability probe overhead — each ratio is on/off of the same
   driver path, so values far from 1 mean a broken measurement (or an
   expensive probe, which is exactly what --max-overhead guards). *)
let validate_p9 ?max_overhead path json =
  check_field path json "experiment" is_string "a string";
  check_field path json "sql" is_string "a string";
  check_field path json "units" is_string "a string";
  check_field path json "seed" is_int "an integer";
  check_field path json "smoke" is_bool "a boolean";
  check_field path json "iters" is_int "an integer";
  match Json.member "overheads" json with
  | Some (Json.Arr overheads) ->
    if overheads = [] then problem "%s: \"overheads\" is empty" path;
    List.iteri
      (fun i entry ->
        let epath = Printf.sprintf "%s: overheads[%d]" path i in
        match entry with
        | Json.Obj _ -> (
          check_field epath entry "label" is_string "a string";
          check_field epath entry "ratio" is_number_or_null "a number or null";
          match (Json.member "ratio" entry, max_overhead) with
          | Some (Json.Num r), Some cap when r > cap ->
            problem "%s: ratio %.3f exceeds --max-overhead %.3f" epath r cap
          | _ -> ())
        | _ -> problem "%s is not an object" epath)
      overheads
  | Some _ -> problem "%s: \"overheads\" is not an array" path
  | None -> problem "%s: missing field \"overheads\"" path

let validate_p6 path json =
  check_field path json "experiment" is_string "a string";
  check_field path json "sql" is_string "a string";
  check_field path json "units" is_string "a string";
  check_field path json "seed" is_int "an integer";
  check_field path json "smoke" is_bool "a boolean";
  (match Json.member "scales" json with
  | Some (Json.Arr scales) ->
    if scales = [] then problem "%s: \"scales\" is empty" path;
    List.iteri
      (fun i scale ->
        let spath = Printf.sprintf "%s: scales[%d]" path i in
        match scale with
        | Json.Obj _ ->
          List.iter
            (fun (name, pred, ty) -> check_field spath scale name pred ty)
            scale_fields
        | _ -> problem "%s is not an object" spath)
      scales
  | Some _ -> problem "%s: \"scales\" is not an array" path
  | None -> problem "%s: missing field \"scales\"" path);
  (match Json.member "telemetry" json with
  | Some (Json.Obj _ as telemetry) ->
    List.iter
      (fun name ->
        check_field (path ^ ": telemetry") telemetry name is_int "an integer")
      telemetry_int_fields
  | Some _ -> problem "%s: \"telemetry\" is not an object" path
  | None -> problem "%s: missing field \"telemetry\"" path);
  match Json.member "obs_histograms" json with
  | Some (Json.Obj members) ->
    List.iter
      (fun (span, h) ->
        let hpath = Printf.sprintf "%s: obs_histograms[%S]" path span in
        match h with
        | Json.Obj _ ->
          List.iter
            (fun name -> check_field hpath h name is_int "an integer")
            histogram_int_fields
        | _ -> problem "%s is not an object" hpath)
      members
  | Some _ -> problem "%s: \"obs_histograms\" is not an object" path
  | None -> problem "%s: missing field \"obs_histograms\"" path

(* P10: scan materialization — speedups are off/on of the same driver
   path, so a value below 1 means the cache slowed the query down;
   --min-speedup S additionally requires the warm phase to clear S. *)
let validate_p10 ?min_speedup path json =
  check_field path json "experiment" is_string "a string";
  check_field path json "sql" is_string "a string";
  check_field path json "units" is_string "a string";
  check_field path json "seed" is_int "an integer";
  check_field path json "smoke" is_bool "a boolean";
  check_field path json "iters" is_int "an integer";
  (match Json.member "phases" json with
  | Some (Json.Arr phases) ->
    if phases = [] then problem "%s: \"phases\" is empty" path;
    let saw_warm = ref false in
    List.iteri
      (fun i entry ->
        let epath = Printf.sprintf "%s: phases[%d]" path i in
        match entry with
        | Json.Obj _ -> (
          check_field epath entry "label" is_string "a string";
          check_field epath entry "speedup" is_number_or_null
            "a number or null";
          match (Json.member "label" entry, Json.member "speedup" entry) with
          | Some (Json.Str "warm"), Some speedup -> (
            saw_warm := true;
            match (speedup, min_speedup) with
            | Json.Num s, Some floor when s < floor ->
              problem "%s: warm speedup %.3f below --min-speedup %.3f" epath
                s floor
            | Json.Null, Some _ ->
              problem "%s: warm speedup is null but --min-speedup given"
                epath
            | _ -> ())
          | _ -> ())
        | _ -> problem "%s is not an object" epath)
      phases;
    if not !saw_warm then problem "%s: no phase labelled \"warm\"" path
  | Some _ -> problem "%s: \"phases\" is not an array" path
  | None -> problem "%s: missing field \"phases\"" path);
  match Json.member "cache" json with
  | Some (Json.Obj _ as cache) ->
    List.iter
      (fun name ->
        check_field (path ^ ": cache") cache name is_int "an integer")
      [ "hits"; "misses"; "evictions"; "invalidations"; "entries"; "bytes" ]
  | Some _ -> problem "%s: \"cache\" is not an object" path
  | None -> problem "%s: missing field \"cache\"" path

(* P11: concurrent serving throughput — legs of the same closed-loop
   workload at increasing domain counts.  The hard gate: on a machine
   with >= 4 cores and a multicore runtime, 4-domain throughput below
   1-domain throughput means the domain-safe read path serializes (or
   worse, contends) — the whole point of the refactor is gone, so the
   file fails outright.  --min-speedup S additionally requires
   speedup_4v1 >= S under the same conditions.  On fewer cores (or a
   single-domain build) the legs are still schema-checked but the
   speedup gates are vacuous — a 1-core runner cannot show parallel
   speedup and must not fail CI for the laws of physics. *)
let validate_p11 ?min_speedup path json =
  check_field path json "experiment" is_string "a string";
  check_field path json "units" is_string "a string";
  check_field path json "seed" is_int "an integer";
  check_field path json "smoke" is_bool "a boolean";
  check_field path json "cores" is_int "an integer";
  check_field path json "multicore" is_bool "a boolean";
  check_field path json "ops_per_domain" is_int "an integer";
  check_field path json "speedup_4v1" is_number_or_null "a number or null";
  let cores =
    match Json.member "cores" json with Some (Json.Num c) -> int_of_float c | _ -> 0
  in
  let multicore =
    match Json.member "multicore" json with Some (Json.Bool b) -> b | _ -> false
  in
  let qps = Hashtbl.create 8 in
  (match Json.member "legs" json with
  | Some (Json.Arr legs) ->
    if legs = [] then problem "%s: \"legs\" is empty" path;
    List.iteri
      (fun i entry ->
        let epath = Printf.sprintf "%s: legs[%d]" path i in
        match entry with
        | Json.Obj _ ->
          List.iter
            (fun name -> check_field epath entry name is_int "an integer")
            [ "domains"; "ops"; "wall_ns"; "p50_ns"; "p90_ns"; "p99_ns" ];
          check_field epath entry "qps" is_number_or_null "a number or null";
          (match (Json.member "domains" entry, Json.member "qps" entry) with
          | Some (Json.Num d), Some (Json.Num q) ->
            Hashtbl.replace qps (int_of_float d) q
          | _ -> ())
        | _ -> problem "%s is not an object" epath)
      legs
  | Some _ -> problem "%s: \"legs\" is not an array" path
  | None -> problem "%s: missing field \"legs\"" path);
  let gated = cores >= 4 && multicore in
  (match (Hashtbl.find_opt qps 1, Hashtbl.find_opt qps 4) with
  | Some q1, Some q4 when gated ->
    if q4 < q1 then
      problem
        "%s: 4-domain throughput (%.0f qps) below 1-domain (%.0f qps) on a \
         %d-core multicore runtime"
        path q4 q1 cores;
    (match min_speedup with
    | Some floor when q1 > 0.0 && q4 /. q1 < floor ->
      problem "%s: speedup_4v1 %.3f below --min-speedup %.3f" path
        (q4 /. q1) floor
    | _ -> ())
  | Some _, Some _ -> ()  (* gates vacuous off a >=4-core multicore box *)
  | _ ->
    if gated then
      problem "%s: missing the 1-domain and/or 4-domain leg" path)

(* P13: wire-protocol serving — an open-loop arrival process against
   the socket front end.  The hard gates are the robustness ledger:
   every leg must account for every offered arrival as completed or
   shed (a mismatch means the server lost admitted work — exactly the
   failure the drain/admission machinery exists to prevent), every leg
   must complete some queries (an all-shed leg means collapse, even
   the faulted one must degrade rather than die), and the shed
   breakdown must sum to the shed total.  On a single-domain build the
   file carries multicore=false and empty legs — schema-checked,
   gates vacuous. *)
let validate_p13 path json =
  check_field path json "experiment" is_string "a string";
  check_field path json "units" is_string "a string";
  check_field path json "seed" is_int "an integer";
  check_field path json "smoke" is_bool "a boolean";
  check_field path json "multicore" is_bool "a boolean";
  let multicore =
    match Json.member "multicore" json with Some (Json.Bool b) -> b | _ -> false
  in
  if multicore then begin
    (match Json.member "saturation" json with
    | Some (Json.Obj _ as sat) ->
      let spath = path ^ ": saturation" in
      List.iter
        (fun name -> check_field spath sat name is_int "an integer")
        [ "clients"; "completed"; "p50_ns"; "p99_ns" ];
      check_field spath sat "qps" is_number_or_null "a number or null";
      (match Json.member "qps" sat with
      | Some (Json.Num q) when q <= 0.0 ->
        problem "%s: saturation qps %.3f is not positive" path q
      | _ -> ())
    | Some _ -> problem "%s: \"saturation\" is not an object" path
    | None -> problem "%s: missing field \"saturation\"" path);
    match Json.member "legs" json with
    | Some (Json.Arr legs) ->
      if legs = [] then problem "%s: \"legs\" is empty" path;
      List.iteri
        (fun i entry ->
          let epath = Printf.sprintf "%s: legs[%d]" path i in
          match entry with
          | Json.Obj _ ->
            check_field epath entry "label" is_string "a string";
            check_field epath entry "rate_qps" is_number_or_null
              "a number or null";
            List.iter
              (fun name -> check_field epath entry name is_int "an integer")
              [ "offered"; "completed"; "shed"; "p50_ns"; "p90_ns"; "p99_ns" ];
            let int_of name =
              match Json.member name entry with
              | Some (Json.Num f) when Float.is_integer f ->
                Some (int_of_float f)
              | _ -> None
            in
            (match (int_of "offered", int_of "completed", int_of "shed") with
            | Some o, Some c, Some s ->
              if o <> c + s then
                problem
                  "%s: offered %d <> completed %d + shed %d — the server \
                   lost admitted work"
                  epath o c s;
              if c = 0 then
                problem "%s: no query completed (collapse, not shedding)"
                  epath
            | _ -> ());
            (match Json.member "shed_by_code" entry with
            | Some (Json.Obj fields) ->
              let sum =
                List.fold_left
                  (fun acc (code, v) ->
                    match v with
                    | Json.Num f when Float.is_integer f ->
                      acc + int_of_float f
                    | _ ->
                      problem "%s: shed_by_code[%S] is not an integer" epath
                        code;
                      acc)
                  0 fields
              in
              (match int_of "shed" with
              | Some s when s <> sum ->
                problem "%s: shed_by_code sums to %d but shed is %d" epath
                  sum s
              | _ -> ())
            | Some _ -> problem "%s: \"shed_by_code\" is not an object" epath
            | None -> problem "%s: missing field \"shed_by_code\"" epath);
            (match Json.member "failpoints" entry with
            | Some (Json.Str _ | Json.Null) -> ()
            | Some _ ->
              problem "%s: \"failpoints\" is not a string or null" epath
            | None -> problem "%s: missing field \"failpoints\"" epath)
          | _ -> problem "%s is not an object" epath)
        legs
    | Some _ -> problem "%s: \"legs\" is not an array" path
    | None -> problem "%s: missing field \"legs\"" path
  end

(* P14: trace-sampling overhead on the serve path — closed-loop legs
   identical but for trace wiring.  The hard gates: the baseline and
   0%-sampling legs must emit zero trace lines (0% means silent), the
   100% leg must emit some (the plumbing actually works), and the
   0%-sampling throughput loss against baseline must stay within the
   bound — 15% by default (two separately started servers carry that
   much closed-loop noise), or --max-overhead interpreted as the
   fractional bound when given.  A regression here means every served
   query pays for tracing nobody asked for. *)
let validate_p14 ?max_overhead path json =
  check_field path json "experiment" is_string "a string";
  check_field path json "units" is_string "a string";
  check_field path json "seed" is_int "an integer";
  check_field path json "smoke" is_bool "a boolean";
  check_field path json "multicore" is_bool "a boolean";
  check_field path json "baseline_qps" is_number_or_null "a number or null";
  check_field path json "sampled0_qps" is_number_or_null "a number or null";
  check_field path json "overhead" is_number_or_null "a number or null";
  let multicore =
    match Json.member "multicore" json with Some (Json.Bool b) -> b | _ -> false
  in
  if multicore then begin
    (match Json.member "legs" json with
    | Some (Json.Arr legs) ->
      if legs = [] then problem "%s: \"legs\" is empty" path;
      List.iteri
        (fun i entry ->
          let epath = Printf.sprintf "%s: legs[%d]" path i in
          match entry with
          | Json.Obj _ ->
            check_field epath entry "label" is_string "a string";
            check_field epath entry "trace_sample" is_number_or_null
              "a number or null";
            check_field epath entry "sink" is_bool "a boolean";
            check_field epath entry "qps" is_number_or_null
              "a number or null";
            List.iter
              (fun name -> check_field epath entry name is_int "an integer")
              [ "completed"; "p50_ns"; "p90_ns"; "p99_ns"; "trace_lines" ];
            let int_of name =
              match Json.member name entry with
              | Some (Json.Num f) when Float.is_integer f ->
                Some (int_of_float f)
              | _ -> None
            in
            (match int_of "completed" with
            | Some 0 -> problem "%s: leg completed no queries" epath
            | _ -> ());
            (match (Json.member "label" entry, int_of "trace_lines") with
            | Some (Json.Str ("baseline" | "sink-0pct")), Some n when n > 0
              ->
              problem
                "%s: %d trace lines emitted at 0%% sampling — sampling \
                 does not gate emission"
                epath n
            | Some (Json.Str "sink-100pct"), Some 0 ->
              problem
                "%s: no trace lines at 100%% sampling — tracing is dead"
                epath
            | _ -> ())
          | _ -> problem "%s is not an object" epath)
        legs
    | Some _ -> problem "%s: \"legs\" is not an array" path
    | None -> problem "%s: missing field \"legs\"" path);
    let bound = Option.value ~default:0.15 max_overhead in
    match Json.member "overhead" json with
    | Some (Json.Num o) when o > bound ->
      problem
        "%s: 0%%-sampling serve-path overhead %.1f%% exceeds the %.1f%% \
         bound"
        path (100.0 *. o) (100.0 *. bound)
    | Some (Json.Num _) -> ()
    | _ -> problem "%s: \"overhead\" is not a number on a multicore run" path
  end

let validate ?max_overhead ?min_speedup path json =
  match Json.member "experiment" json with
  | Some (Json.Str e)
    when String.length e >= 3 && String.sub e 0 3 = "P14" ->
    validate_p14 ?max_overhead path json
  | Some (Json.Str e)
    when String.length e >= 3 && String.sub e 0 3 = "P13" ->
    validate_p13 path json
  | Some (Json.Str e)
    when String.length e >= 3 && String.sub e 0 3 = "P11" ->
    validate_p11 ?min_speedup path json
  | Some (Json.Str e)
    when String.length e >= 3 && String.sub e 0 3 = "P10" ->
    validate_p10 ?min_speedup path json
  | Some (Json.Str e)
    when String.length e >= 2 && String.sub e 0 2 = "P9" ->
    validate_p9 ?max_overhead path json
  | _ -> validate_p6 path json

let validate_prom path contents =
  List.iter
    (fun msg -> problem "%s: %s" path msg)
    (Aqua_obs.Expose.lint contents)

let usage () =
  prerr_endline
    "usage: validate [--prom] [--max-overhead R] [--min-speedup S] \
     BENCH_XX.json|FILE.prom ...";
  exit 2

let () =
  let prom = ref false and max_overhead = ref None and min_speedup = ref None in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--prom" :: rest ->
      prom := true;
      parse_args acc rest
    | "--max-overhead" :: v :: rest -> (
      match float_of_string_opt v with
      | Some r ->
        max_overhead := Some r;
        parse_args acc rest
      | None -> usage ())
    | "--max-overhead" :: [] -> usage ()
    | "--min-speedup" :: v :: rest -> (
      match float_of_string_opt v with
      | Some r ->
        min_speedup := Some r;
        parse_args acc rest
      | None -> usage ())
    | "--min-speedup" :: [] -> usage ()
    | path :: rest -> parse_args (path :: acc) rest
  in
  let paths = parse_args [] (List.tl (Array.to_list Sys.argv)) in
  if paths = [] then usage ();
  List.iter
    (fun path ->
      match In_channel.with_open_text path In_channel.input_all with
      | exception Sys_error m -> problem "%s: %s" path m
      | contents ->
        if !prom then validate_prom path contents
        else (
          match Json.parse contents with
          | exception Json.Parse_error m -> problem "%s: %s" path m
          | json ->
            validate ?max_overhead:!max_overhead ?min_speedup:!min_speedup
              path json))
    paths;
  match List.rev !problems with
  | [] ->
    Printf.printf "validate: %s ok\n" (String.concat ", " paths)
  | ps ->
    List.iter prerr_endline ps;
    exit 1
