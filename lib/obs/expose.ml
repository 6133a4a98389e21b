(* Prometheus / JSON renderers over the obs registries, plus a
   text-format linter.  The renderer and the linter live side by side
   on purpose: CI lints the renderer's own output, so the two cannot
   drift apart silently. *)

module Telemetry = Aqua_core.Telemetry
module Mcore = Aqua_multicore.Mcore

(* ------------------------------------------------------------------ *)
(* Gauges                                                             *)

(* Live values owned by someone else — connection-queue depth, pool
   in-use, in-flight queries — exposed through registered read
   callbacks rather than stored samples, so a scrape always sees the
   instant truth and the owner carries no exposition dependency beyond
   registration.  Keyed by name; re-registering replaces (a restarted
   server takes over its names). *)
type gauge = { g_help : string; g_read : unit -> int }

let gauge_lock = Mcore.Mutex.create ()
let gauge_table : (string, gauge) Hashtbl.t = Hashtbl.create 8
let gauge_order : string list ref = ref []  (* reverse registration order *)

let register_gauge ~help name read =
  Mcore.Mutex.protect gauge_lock @@ fun () ->
  if not (Hashtbl.mem gauge_table name) then
    gauge_order := name :: !gauge_order;
  Hashtbl.replace gauge_table name { g_help = help; g_read = read }

let unregister_gauge name =
  Mcore.Mutex.protect gauge_lock @@ fun () ->
  Hashtbl.remove gauge_table name;
  gauge_order := List.filter (fun n -> n <> name) !gauge_order

(* Snapshot the registry under the lock, then run the callbacks
   outside it: a reader is free to take its owner's locks (queue lock,
   pool lock) without ordering against ours.  A raising reader is
   skipped — one broken gauge must not poison the whole scrape. *)
let gauge_samples () =
  let snap =
    Mcore.Mutex.protect gauge_lock (fun () ->
        List.rev_map
          (fun name -> (name, Hashtbl.find gauge_table name))
          !gauge_order)
  in
  List.filter_map
    (fun (name, g) ->
      match g.g_read () with
      | v -> Some (name, g.g_help, v)
      | exception _ -> None)
    snap

let gauge_values () =
  List.map (fun (name, _, v) -> (name, v)) (gauge_samples ())

(* ------------------------------------------------------------------ *)
(* Rendering helpers                                                  *)

let sanitize name =
  String.map
    (fun c ->
      if
        (c >= 'a' && c <= 'z')
        || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_'
      then c
      else '_')
    name

(* Label values escape backslash, double quote and newline (the
   text-format rules). *)
let escape_label v =
  let buf = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let label_str = function
  | [] -> ""
  | labels ->
    "{"
    ^ String.concat ","
        (List.map
           (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v))
           labels)
    ^ "}"

let prometheus () =
  let buf = Buffer.create 4096 in
  let family name ty help =
    Buffer.add_string buf
      (Printf.sprintf "# HELP %s %s\n# TYPE %s %s\n" name help name ty)
  in
  let sample ?(labels = []) name v =
    Buffer.add_string buf
      (Printf.sprintf "%s%s %s\n" name (label_str labels) v)
  in
  let int_sample ?labels name v = sample ?labels name (string_of_int v) in
  let i64_sample ?labels name v = sample ?labels name (Int64.to_string v) in
  (* counters *)
  List.iter
    (fun (name, value) ->
      let m = "aqua_" ^ sanitize name ^ "_total" in
      family m "counter" ("telemetry counter " ^ name);
      int_sample m value)
    (Telemetry.counters ());
  (* gauges: live read-callback values (no _total suffix) *)
  List.iter
    (fun (name, help, v) ->
      let m = "aqua_" ^ sanitize name in
      family m "gauge" help;
      int_sample m v)
    (gauge_samples ());
  (* span aggregates *)
  let spans = Telemetry.span_stats () in
  if spans <> [] then begin
    family "aqua_span_count_total" "counter" "span closes per span name";
    List.iter
      (fun (name, n, _) ->
        int_sample ~labels:[ ("span", name) ] "aqua_span_count_total" n)
      spans;
    family "aqua_span_duration_ns_total" "counter"
      "total nanoseconds per span name";
    List.iter
      (fun (name, _, total) ->
        i64_sample ~labels:[ ("span", name) ] "aqua_span_duration_ns_total"
          total)
      spans
  end;
  (* named latency histograms *)
  let hists =
    List.filter (fun (_, h) -> not (Histogram.is_empty h)) (Stats.histograms ())
  in
  if hists <> [] then begin
    family "aqua_latency_ns" "histogram"
      "latency distribution per operation (log-linear buckets)";
    List.iter
      (fun (op, h) ->
        let labels le = [ ("op", op); ("le", le) ] in
        let cum = ref 0 in
        List.iter
          (fun (bound, count) ->
            cum := !cum + count;
            int_sample
              ~labels:(labels (Int64.to_string bound))
              "aqua_latency_ns_bucket" !cum)
          (Histogram.nonzero_buckets h);
        int_sample ~labels:(labels "+Inf") "aqua_latency_ns_bucket"
          (Histogram.count h);
        i64_sample ~labels:[ ("op", op) ] "aqua_latency_ns_sum"
          (Histogram.total h);
        int_sample ~labels:[ ("op", op) ] "aqua_latency_ns_count"
          (Histogram.count h))
      hists
  end;
  (* per-fingerprint registry *)
  let entries = Stats.entries () in
  if entries <> [] then begin
    family "aqua_query_calls_total" "counter" "statements per fingerprint";
    List.iter
      (fun (e : Stats.entry) ->
        int_sample
          ~labels:[ ("fp", e.Stats.fingerprint) ]
          "aqua_query_calls_total" e.Stats.calls)
      entries;
    family "aqua_query_rows_total" "counter" "result rows per fingerprint";
    List.iter
      (fun (e : Stats.entry) ->
        int_sample
          ~labels:[ ("fp", e.Stats.fingerprint) ]
          "aqua_query_rows_total" e.Stats.rows)
      entries;
    family "aqua_query_cache_hits_total" "counter"
      "translation cache hits per fingerprint";
    List.iter
      (fun (e : Stats.entry) ->
        int_sample
          ~labels:[ ("fp", e.Stats.fingerprint) ]
          "aqua_query_cache_hits_total" e.Stats.cache_hits)
      entries;
    if List.exists (fun (e : Stats.entry) -> e.Stats.errors > 0) entries
    then begin
      family "aqua_query_errors_total" "counter"
        "failed statements per fingerprint and SQLSTATE class";
      List.iter
        (fun (e : Stats.entry) ->
          List.iter
            (fun (cls, n) ->
              int_sample
                ~labels:[ ("fp", e.Stats.fingerprint); ("class", cls) ]
                "aqua_query_errors_total" n)
            (Stats.error_classes e))
        entries
    end;
    family "aqua_query_latency_ns" "summary"
      "per-fingerprint per-stage latency quantiles";
    List.iter
      (fun (e : Stats.entry) ->
        List.iter
          (fun (stage, h) ->
            if not (Histogram.is_empty h) then begin
              let base = [ ("fp", e.Stats.fingerprint); ("stage", stage) ] in
              List.iter
                (fun (q, v) ->
                  i64_sample
                    ~labels:(base @ [ ("quantile", q) ])
                    "aqua_query_latency_ns" v)
                [ ("0.5", Histogram.p50 h); ("0.9", Histogram.p90 h);
                  ("0.99", Histogram.p99 h) ];
              i64_sample ~labels:base "aqua_query_latency_ns_sum"
                (Histogram.total h);
              int_sample ~labels:base "aqua_query_latency_ns_count"
                (Histogram.count h)
            end)
          [ ("translate", e.Stats.translate); ("execute", e.Stats.execute);
            ("decode", e.Stats.decode); ("total", e.Stats.total) ])
      entries
  end;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)

let int_fields pairs =
  String.concat ","
    (List.map
       (fun (name, v) ->
         Printf.sprintf "\"%s\":%d" (Telemetry.json_escape name) v)
       pairs)

let span_array () =
  String.concat ","
    (List.map
       (fun (name, n, total) ->
         Printf.sprintf "{\"name\":\"%s\",\"count\":%d,\"total_ns\":%Ld}"
           (Telemetry.json_escape name) n total)
       (Telemetry.span_stats ()))

(* The trace's closing line carries the same [counters] and [spans]
   members as {!json}, so both name a counter the way the registry
   does. *)
let trace_snapshot () =
  Printf.sprintf "{\"ev\":\"snapshot\",\"counters\":{%s},\"spans\":[%s]}"
    (int_fields (Telemetry.counters ()))
    (span_array ())

let json () =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"counters\":{";
  Buffer.add_string buf (int_fields (Telemetry.counters ()));
  Buffer.add_string buf "},\"gauges\":{";
  Buffer.add_string buf (int_fields (gauge_values ()));
  Buffer.add_string buf "},\"spans\":[";
  Buffer.add_string buf (span_array ());
  Buffer.add_string buf "],\"histograms\":{";
  Buffer.add_string buf
    (String.concat ","
       (List.filter_map
          (fun (op, h) ->
            if Histogram.is_empty h then None
            else
              Some
                (Printf.sprintf "\"%s\":%s" (Telemetry.json_escape op)
                   (Histogram.quantiles_to_json h)))
          (Stats.histograms ())));
  Buffer.add_string buf "},\"fingerprints\":[";
  Buffer.add_string buf
    (String.concat ","
       (List.map
          (fun (e : Stats.entry) ->
            let stage name h =
              Printf.sprintf "\"%s\":%s" name (Histogram.quantiles_to_json h)
            in
            Printf.sprintf
              "{\"fp\":\"%s\",\"shape\":\"%s\",\"calls\":%d,\"rows\":%d,\"cache_hits\":%d,\"errors\":{%s},%s,%s,%s,%s}"
              (Telemetry.json_escape e.Stats.fingerprint)
              (Telemetry.json_escape e.Stats.shape)
              e.Stats.calls e.Stats.rows e.Stats.cache_hits
              (int_fields (Stats.error_classes e))
              (stage "translate" e.Stats.translate)
              (stage "execute" e.Stats.execute)
              (stage "decode" e.Stats.decode)
              (stage "total" e.Stats.total))
          (Stats.entries ())));
  Buffer.add_string buf "]}";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Prometheus text-format linter                                      *)

type lint_state = {
  mutable problems : string list;
  types : (string, string) Hashtbl.t;  (* family -> metric type *)
  (* (family, labels-minus-le) -> buckets in appearance order *)
  buckets : (string * string, (float * float) list ref) Hashtbl.t;
  counts : (string * string, float) Hashtbl.t;  (* _count samples *)
}

let metric_name_ok name =
  name <> ""
  && (let c = name.[0] in
      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':')
  && String.for_all
       (fun c ->
         (c >= 'a' && c <= 'z')
         || (c >= 'A' && c <= 'Z')
         || (c >= '0' && c <= '9')
         || c = '_' || c = ':')
       name

let label_name_ok name =
  metric_name_ok name && not (String.contains name ':')

let float_ok s =
  match s with
  | "+Inf" | "-Inf" | "NaN" -> true
  | _ -> float_of_string_opt s <> None

let value_of s =
  match s with
  | "+Inf" -> infinity
  | "-Inf" -> neg_infinity
  | "NaN" -> nan
  | _ -> float_of_string s

(* Parse one sample line: name[{labels}] value.  Returns
   (name, labels, value-string) or None on malformed syntax. *)
let parse_sample line =
  let n = String.length line in
  let i = ref 0 in
  while !i < n && line.[!i] <> '{' && line.[!i] <> ' ' do incr i done;
  let name = String.sub line 0 !i in
  if not (metric_name_ok name) then None
  else begin
    let labels = ref [] in
    let ok = ref true in
    if !i < n && line.[!i] = '{' then begin
      incr i;
      let fin = ref false in
      while !ok && not !fin && !i < n do
        if line.[!i] = '}' then begin
          incr i;
          fin := true
        end
        else begin
          (* label name *)
          let start = !i in
          while !i < n && line.[!i] <> '=' do incr i done;
          if !i >= n then ok := false
          else begin
            let lname = String.sub line start (!i - start) in
            incr i;
            if not (label_name_ok lname) || !i >= n || line.[!i] <> '"' then
              ok := false
            else begin
              incr i;
              let vbuf = Buffer.create 16 in
              let closed = ref false in
              while (not !closed) && !i < n do
                if line.[!i] = '\\' && !i + 1 < n then begin
                  (match line.[!i + 1] with
                  | 'n' -> Buffer.add_char vbuf '\n'
                  | c -> Buffer.add_char vbuf c);
                  i := !i + 2
                end
                else if line.[!i] = '"' then begin
                  incr i;
                  closed := true
                end
                else begin
                  Buffer.add_char vbuf line.[!i];
                  incr i
                end
              done;
              if not !closed then ok := false
              else begin
                labels := (lname, Buffer.contents vbuf) :: !labels;
                if !i < n && line.[!i] = ',' then incr i
                else if !i < n && line.[!i] = '}' then ()
                else if !i < n then ok := false
              end
            end
          end
        end
      done;
      if not !fin then ok := false
    end;
    if not !ok then None
    else begin
      (* single space, then the value *)
      if !i >= n || line.[!i] <> ' ' then None
      else begin
        let value = String.sub line (!i + 1) (n - !i - 1) in
        if String.trim value = "" then None
        else Some (name, List.rev !labels, String.trim value)
      end
    end
  end

let strip_suffix name suffix =
  let nl = String.length name and sl = String.length suffix in
  if nl > sl && String.sub name (nl - sl) sl = suffix then
    Some (String.sub name 0 (nl - sl))
  else None

let lint text =
  let st =
    {
      problems = [];
      types = Hashtbl.create 16;
      buckets = Hashtbl.create 16;
      counts = Hashtbl.create 16;
    }
  in
  let problem lineno fmt =
    Printf.ksprintf
      (fun m -> st.problems <- Printf.sprintf "line %d: %s" lineno m :: st.problems)
      fmt
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      if String.trim line = "" then ()
      else if String.length line >= 1 && line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | "#" :: "TYPE" :: name :: ty :: [] ->
          if not (metric_name_ok name) then
            problem lineno "bad metric name in TYPE: %s" name;
          if
            not
              (List.mem ty
                 [ "counter"; "gauge"; "histogram"; "summary"; "untyped" ])
          then problem lineno "unknown metric type %S" ty;
          if Hashtbl.mem st.types name then
            problem lineno "duplicate TYPE for %s" name
          else Hashtbl.add st.types name ty
        | "#" :: "TYPE" :: _ -> problem lineno "malformed TYPE line"
        | "#" :: "HELP" :: name :: _ ->
          if not (metric_name_ok name) then
            problem lineno "bad metric name in HELP: %s" name
        | _ -> ()  (* free-form comment *)
      end
      else begin
        match parse_sample line with
        | None -> problem lineno "malformed sample: %s" line
        | Some (name, labels, value) ->
          if not (float_ok value) then
            problem lineno "bad sample value %S" value;
          (* resolve the declaring family *)
          let family_of () =
            if Hashtbl.mem st.types name then Some (name, Hashtbl.find st.types name)
            else
              let try_suffix suffix kinds =
                match strip_suffix name suffix with
                | Some base
                  when Hashtbl.mem st.types base
                       && List.mem (Hashtbl.find st.types base) kinds ->
                  Some (base, Hashtbl.find st.types base)
                | _ -> None
              in
              match try_suffix "_bucket" [ "histogram" ] with
              | Some f -> Some f
              | None -> (
                match try_suffix "_sum" [ "histogram"; "summary" ] with
                | Some f -> Some f
                | None -> try_suffix "_count" [ "histogram"; "summary" ])
          in
          (match family_of () with
          | None -> problem lineno "sample %s has no preceding TYPE" name
          | Some (base, ty) ->
            let labels_no_le =
              List.filter (fun (k, _) -> k <> "le") labels
            in
            let group =
              ( base,
                String.concat ","
                  (List.map (fun (k, v) -> k ^ "=" ^ v)
                     (List.sort compare labels_no_le)) )
            in
            if ty = "histogram" && strip_suffix name "_bucket" <> None
            then begin
              match List.assoc_opt "le" labels with
              | None -> problem lineno "histogram bucket without le label"
              | Some le ->
                if not (float_ok le) then
                  problem lineno "bad le value %S" le
                else begin
                  let cell =
                    match Hashtbl.find_opt st.buckets group with
                    | Some c -> c
                    | None ->
                      let c = ref [] in
                      Hashtbl.add st.buckets group c;
                      c
                  in
                  cell := (value_of le, value_of value) :: !cell
                end
            end;
            if
              (ty = "histogram" || ty = "summary")
              && strip_suffix name "_count" <> None
            then Hashtbl.replace st.counts group (value_of value);
            if ty = "summary" && name = base then begin
              match List.assoc_opt "quantile" labels with
              | None -> problem lineno "summary sample without quantile label"
              | Some q ->
                if not (float_ok q) then problem lineno "bad quantile %S" q
            end)
      end)
    lines;
  (* histogram group checks *)
  Hashtbl.iter
    (fun (base, labels) cell ->
      let buckets = List.rev !cell in
      let where =
        Printf.sprintf "%s{%s}" base (if labels = "" then "" else labels)
      in
      let rec check_order = function
        | (le1, v1) :: ((le2, v2) :: _ as rest) ->
          if not (le1 < le2 || (le1 = le2 && classify_float le1 = FP_infinite))
          then
            st.problems <-
              Printf.sprintf "%s: bucket le out of order (%g then %g)" where
                le1 le2
              :: st.problems;
          if v1 > v2 then
            st.problems <-
              Printf.sprintf "%s: buckets not cumulative (%g then %g)" where v1
                v2
              :: st.problems;
          check_order rest
        | _ -> ()
      in
      check_order buckets;
      match List.rev buckets with
      | (le, inf_v) :: _ when classify_float le = FP_infinite && le > 0.0 -> (
        match Hashtbl.find_opt st.counts (base, labels) with
        | Some c when c <> inf_v ->
          st.problems <-
            Printf.sprintf "%s: _count %g disagrees with +Inf bucket %g" where
              c inf_v
            :: st.problems
        | Some _ -> ()
        | None ->
          st.problems <-
            Printf.sprintf "%s: histogram without _count" where :: st.problems)
      | _ ->
        st.problems <-
          Printf.sprintf "%s: histogram without le=\"+Inf\" bucket" where
          :: st.problems)
    st.buckets;
  List.rev st.problems
