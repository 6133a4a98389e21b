(* The wire-protocol front end: codec hardening (every byte stream —
   valid, truncated, or garbage — decodes to a value, never an
   exception), and live-server behavior on the multicore build:
   admission shedding, typed per-statement errors that keep the
   session, protocol errors that cost exactly one session, breaker
   fast-rejection, and the SIGTERM-style graceful drain. *)

module Mcore = Aqua_multicore.Mcore
module Failpoint = Aqua_resilience.Failpoint
module Budget = Aqua_resilience.Budget
module Wire = Aqua_net.Wire
module Client = Aqua_net.Client
module Netserver = Aqua_net.Netserver
module Connection = Aqua_driver.Connection
module Telemetry = Aqua_core.Telemetry
module Json = Aqua_core.Json
module Stats = Aqua_obs.Stats
module Expose = Aqua_obs.Expose

(* ------------------------------------------------------------------ *)
(* Codec *)

let frontend_roundtrip () =
  let buf = Buffer.create 64 in
  Wire.startup_message buf [ ("user", "u"); ("database", "d") ];
  Wire.query_message buf "SELECT 1 FROM T";
  Wire.terminate_message buf;
  let r = Wire.Reader.of_string (Buffer.contents buf) in
  (match Wire.Reader.read_startup r with
  | Ok (Wire.Startup params) ->
    Alcotest.(check (list (pair string string)))
      "startup params"
      [ ("user", "u"); ("database", "d") ]
      params
  | other ->
    Alcotest.failf "startup decoded to %s"
      (match other with Ok _ -> "other frame" | Error e -> Wire.error_to_string e));
  (match Wire.Reader.read_message r with
  | Ok (Wire.Query sql) -> Alcotest.(check string) "query" "SELECT 1 FROM T" sql
  | _ -> Alcotest.fail "expected Query");
  (match Wire.Reader.read_message r with
  | Ok Wire.Terminate -> ()
  | _ -> Alcotest.fail "expected Terminate");
  match Wire.Reader.read_message r with
  | Error Wire.Eof -> ()
  | _ -> Alcotest.fail "expected Eof at stream end"

let backend_roundtrip () =
  let buf = Buffer.create 64 in
  Wire.authentication_ok buf;
  Wire.ready_for_query buf;
  Wire.error_response buf ~severity:"FATAL" ~sqlstate:"53300" "queue full";
  let r = Wire.Reader.of_string (Buffer.contents buf) in
  (match Wire.read_backend r with
  | Ok Wire.B_auth_ok -> ()
  | _ -> Alcotest.fail "expected AuthenticationOk");
  (match Wire.read_backend r with
  | Ok (Wire.B_ready 'I') -> ()
  | _ -> Alcotest.fail "expected ReadyForQuery(idle)");
  match Wire.read_backend r with
  | Ok (Wire.B_error fields) ->
    Alcotest.(check (option string))
      "sqlstate field" (Some "53300")
      (List.assoc_opt 'C' fields);
    Alcotest.(check (option string))
      "message field" (Some "queue full")
      (List.assoc_opt 'M' fields)
  | _ -> Alcotest.fail "expected ErrorResponse"

(* Every strict prefix of a valid frame is a typed error — truncation
   can never crash the decoder or be mistaken for a parse. *)
let truncation_is_typed () =
  let buf = Buffer.create 64 in
  Wire.query_message buf "SELECT CUSTOMERID FROM CUSTOMERS";
  let full = Buffer.contents buf in
  for len = 0 to String.length full - 1 do
    let r = Wire.Reader.of_string (String.sub full 0 len) in
    match Wire.Reader.read_message r with
    | Ok _ -> Alcotest.failf "prefix of %d bytes parsed as a frame" len
    | Error (Wire.Eof | Wire.Malformed _ | Wire.Oversized _ | Wire.Timeout)
      ->
      ()
  done;
  let r = Wire.Reader.of_string full in
  match Wire.Reader.read_message r with
  | Ok (Wire.Query _) -> ()
  | _ -> Alcotest.fail "full frame no longer parses"

let oversized_frame_rejected () =
  (* 'Q' + length 0x7fffffff: a garbage length prefix must be refused
     before any allocation, as Oversized *)
  let r =
    Wire.Reader.of_string ~max_frame:1024 "Q\x7f\xff\xff\xff the rest"
  in
  match Wire.Reader.read_message r with
  | Error (Wire.Oversized { max = 1024; _ }) -> ()
  | Ok _ -> Alcotest.fail "oversized frame parsed"
  | Error e -> Alcotest.failf "expected Oversized, got %s" (Wire.error_to_string e)

(* Random byte streams: the decoder's only possible outcomes are a
   parsed message or a typed error, for as many frames as the bytes
   contain.  QCheck reports any escaping exception as a failure. *)
let garbage_never_crashes =
  QCheck.Test.make ~name:"decoder survives arbitrary byte streams"
    ~count:500 QCheck.string (fun bytes ->
      let startup_reader = Wire.Reader.of_string ~max_frame:4096 bytes in
      (match Wire.Reader.read_startup startup_reader with
      | Ok _ | Error _ -> ());
      let r = Wire.Reader.of_string ~max_frame:4096 bytes in
      let rec walk n =
        if n = 0 then true
        else
          match Wire.Reader.read_message r with
          | Ok _ -> walk (n - 1)
          | Error _ -> true
      in
      walk 64)

(* ------------------------------------------------------------------ *)
(* Live server (multicore only: Netserver.start needs domains) *)

let with_server ?(config = Netserver.default_config) ?(scan_cache = true)
    ?(app = Helpers.demo_app ()) f =
  let conn = Connection.connect ~scan_cache app in
  let t = Netserver.start ~config:{ config with port = 0 } conn in
  Fun.protect ~finally:(fun () -> Netserver.drain t) (fun () -> f t)

let connect_ok t =
  match Client.connect ~host:"127.0.0.1" ~port:(Netserver.port t) () with
  | Ok c -> c
  | Error (code, msg) -> Alcotest.failf "connect refused: %s %s" code msg

let expect_rows c sql n =
  match Client.query c sql with
  | Ok reply ->
    Alcotest.(check int) ("rows of " ^ sql) n (List.length reply.Client.rows);
    Alcotest.(check string)
      ("tag of " ^ sql)
      (Printf.sprintf "SELECT %d" n)
      reply.Client.tag
  | Error (code, msg) -> Alcotest.failf "%s failed: %s %s" sql code msg

let serve_basic () =
  if not Mcore.multicore then ()
  else
    with_server @@ fun t ->
    let c = connect_ok t in
    expect_rows c "SELECT CUSTOMERID FROM CUSTOMERS" 6;
    (* a typed statement error costs the statement, not the session *)
    (match Client.query c "SELECT X FROM NO_SUCH_TABLE" with
    | Error ("42P01", _) -> ()
    | Error (code, msg) -> Alcotest.failf "expected 42P01, got %s %s" code msg
    | Ok _ -> Alcotest.fail "expected undefined-table error");
    expect_rows c "SELECT CUSTOMERID FROM CUSTOMERS" 6;
    (* empty query: the protocol's dedicated response, session intact *)
    (match Client.query c "   " with
    | Ok reply -> Alcotest.(check string) "empty tag" "" reply.Client.tag
    | Error (code, msg) -> Alcotest.failf "empty query failed: %s %s" code msg);
    expect_rows c "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = 2" 1;
    Client.close c;
    let s = Netserver.summary t in
    Alcotest.(check bool) "queries served" true (s.Netserver.queries >= 3)

(* DataRows carry the result set's rows as decoded from the text
   transport: NULL as length -1, every other value as its string, the
   delimiters, '&' and control bytes unescaped. *)
let serve_nulls_and_escapes () =
  if not Mcore.multicore then ()
  else begin
    let module Table = Aqua_relational.Table in
    let module Schema = Aqua_relational.Schema in
    let module Sql_type = Aqua_relational.Sql_type in
    let module Value = Aqua_relational.Value in
    let app = Aqua_dsp.Artifact.application "NetNasty" in
    let t =
      Table.create "NASTY"
        [ Schema.column "ID" Sql_type.Integer;
          Schema.column "S" (Sql_type.Varchar None);
          Schema.column "X" Sql_type.Double ]
    in
    List.iter (Table.insert t)
      [ [ Value.Int 1; Value.Str "a<b>&c"; Value.Null ];
        [ Value.Null; Value.Str "\x01tab\there\r\n"; Value.Num 2.5 ];
        [ Value.Int 3; Value.Null; Value.Num (-1.) ];
        [ Value.Int 4; Value.Str ""; Value.Num 0.1 ] ];
    ignore (Aqua_dsp.Artifact.import_physical_table app ~project:"P" t);
    let sql = "SELECT ID, S, X FROM NASTY" in
    let expected =
      [ [ Some "1"; Some "a<b>&c"; None ];
        [ None; Some "\x01tab\there\r\n"; Some "2.5" ];
        [ Some "3"; None; Some "-1" ];
        [ Some "4"; Some ""; Some "0.1" ] ]
    in
    with_server ~app @@ fun srv ->
    let c = connect_ok srv in
    (match Client.query c sql with
    | Ok reply ->
      Alcotest.(check (list (list (option string)))) "rows" expected
        reply.Client.rows;
      Alcotest.(check string) "tag" "SELECT 4" reply.Client.tag
    | Error (code, msg) -> Alcotest.failf "%s failed: %s %s" sql code msg);
    Client.close c
  end

(* A garbage frame is session-scoped: FATAL 08P01 on that socket, any
   other session keeps working. *)
let protocol_error_scoped () =
  if not Mcore.multicore then ()
  else
    with_server @@ fun t ->
    let healthy = connect_ok t in
    expect_rows healthy "SELECT CUSTOMERID FROM CUSTOMERS" 6;
    (* hand-rolled socket so we can write raw garbage post-handshake *)
    let fd = Unix.socket PF_INET SOCK_STREAM 0 in
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    Unix.connect fd
      (Unix.ADDR_INET (Unix.inet_addr_loopback, Netserver.port t));
    let buf = Buffer.create 64 in
    Wire.startup_message buf [ ("user", "garbage") ];
    ignore
      (Unix.write_substring fd (Buffer.contents buf) 0 (Buffer.length buf));
    let reader = Wire.Reader.of_fd fd in
    let rec to_ready () =
      match Wire.read_backend reader with
      | Ok (Wire.B_ready _) -> ()
      | Ok _ -> to_ready ()
      | Error e -> Alcotest.failf "greeting failed: %s" (Wire.error_to_string e)
    in
    to_ready ();
    (* type byte 0x01 is not a letter: Malformed, FATAL 08P01, close *)
    ignore (Unix.write_substring fd "\x01\x00\x00\x00\x04" 0 5);
    let rec find_error () =
      match Wire.read_backend reader with
      | Ok (Wire.B_error fields) ->
        Alcotest.(check (option string))
          "protocol violation" (Some "08P01")
          (List.assoc_opt 'C' fields)
      | Ok _ -> find_error ()
      | Error e ->
        Alcotest.failf "expected 08P01, got %s" (Wire.error_to_string e)
    in
    find_error ();
    (match Wire.read_backend reader with
    | Error Wire.Eof -> ()
    | Ok _ | Error _ -> Alcotest.fail "expected close after FATAL 08P01");
    Unix.close fd;
    (* the healthy session never noticed *)
    expect_rows healthy "SELECT CUSTOMERID FROM CUSTOMERS" 6;
    Client.close healthy;
    let s = Netserver.summary t in
    Alcotest.(check bool) "protocol error counted" true
      (s.Netserver.protocol_errors >= 1)

(* Queue-depth admission: one worker pinned by a live session, one
   queue slot taken — the next connection is refused 53300 before any
   work, and the queued one is served once the worker frees up. *)
let queue_admission_shed () =
  if not Mcore.multicore then ()
  else
    let config =
      { Netserver.default_config with
        pool_size = 1;
        workers = 1;
        queue_depth = 1;
      }
    in
    with_server ~config @@ fun t ->
    let a = connect_ok t in
    expect_rows a "SELECT CUSTOMERID FROM CUSTOMERS" 6;
    (* b waits in the queue: its connect blocks until a worker greets *)
    let b =
      Mcore.Domains.spawn (fun () ->
          Client.connect ~host:"127.0.0.1" ~port:(Netserver.port t) ())
    in
    Unix.sleepf 0.1;
    (* the queue is now full: c must be shed with 53300 in one round trip *)
    (match Client.connect ~host:"127.0.0.1" ~port:(Netserver.port t) () with
    | Error ("53300", _) -> ()
    | Error (code, msg) -> Alcotest.failf "expected 53300, got %s %s" code msg
    | Ok c ->
      Client.close c;
      Alcotest.fail "expected queue-full shed");
    (* a finishes; the worker picks b out of the queue and serves it *)
    Client.close a;
    (match Mcore.Domains.join b with
    | Ok c ->
      expect_rows c "SELECT CUSTOMERID FROM CUSTOMERS" 6;
      Client.close c
    | Error (code, msg) -> Alcotest.failf "queued connect failed: %s %s" code msg);
    let s = Netserver.summary t in
    Alcotest.(check bool) "shed counted" true (s.Netserver.shed_queue >= 1)

(* Graceful drain: a live session's next query is refused 57P01, a
   queued connection is refused 57P03, and everything that was
   admitted before the drain already has its full response. *)
let drain_semantics () =
  if not Mcore.multicore then ()
  else begin
    let config =
      { Netserver.default_config with
        pool_size = 1;
        workers = 1;
        queue_depth = 4;
      }
    in
    let app = Helpers.demo_app () in
    let conn = Connection.connect app in
    let t = Netserver.start ~config:{ config with port = 0 } conn in
    let a = connect_ok t in
    expect_rows a "SELECT CUSTOMERID FROM CUSTOMERS" 6;
    (* b sits in the queue behind a's session *)
    let b =
      Mcore.Domains.spawn (fun () ->
          Client.connect ~host:"127.0.0.1" ~port:(Netserver.port t) ())
    in
    Unix.sleepf 0.1;
    Netserver.request_drain t;
    Alcotest.(check bool) "draining" true (Netserver.draining t);
    (* the live session is told to go away, with the admin code *)
    (match Client.query a "SELECT CUSTOMERID FROM CUSTOMERS" with
    | Error ("57P01", _) -> ()
    | Error (code, msg) -> Alcotest.failf "expected 57P01, got %s %s" code msg
    | Ok _ -> Alcotest.fail "expected drain refusal on live session");
    Client.close a;
    (* the queued connection never gets a session: 57P03 *)
    (match Mcore.Domains.join b with
    | Error ("57P03", _) -> ()
    | Error (code, msg) -> Alcotest.failf "expected 57P03, got %s %s" code msg
    | Ok c ->
      Client.close c;
      Alcotest.fail "expected drain refusal on queued connection");
    Netserver.drain t;
    let s = Netserver.summary t in
    Alcotest.(check bool) "drain sheds counted" true
      (s.Netserver.shed_drain >= 2);
    Alcotest.(check int) "every admitted query answered" 1
      s.Netserver.queries
  end

(* An open breaker fast-rejects at admission (08006 in microseconds,
   no pool session burned) but must NOT starve the half-open trial:
   after the cooldown a query flows through and closes the breaker. *)
let breaker_fast_reject () =
  if not Mcore.multicore then ()
  else
    (* scan cache off: a cached scan would serve rows without invoking
       the data service, so the armed failpoint would never fire *)
    with_server ~scan_cache:false @@ fun t ->
    let c = connect_ok t in
    expect_rows c "SELECT CUSTOMERID FROM CUSTOMERS" 6;
    Failpoint.arm "dsp.invoke=fail";
    Fun.protect ~finally:Failpoint.disarm (fun () ->
        (* hammer until the breaker opens and the admission gate sheds *)
        let shed = ref false in
        let attempts = ref 0 in
        while (not !shed) && !attempts < 50 do
          incr attempts;
          match Client.query c "SELECT CUSTOMERID FROM CUSTOMERS" with
          | Ok _ -> Alcotest.fail "armed failpoint produced rows"
          | Error ("08006", msg) ->
            if Helpers.contains ~needle:"circuit open" msg then shed := true
          | Error ("08004", _) -> ()
          | Error (code, msg) ->
            Alcotest.failf "unexpected code under faults: %s %s" code msg
        done;
        Alcotest.(check bool) "admission gate shed on open breaker" true
          !shed);
    (* past the cooldown the half-open trial must be admitted *)
    Unix.sleepf 0.15;
    expect_rows c "SELECT CUSTOMERID FROM CUSTOMERS" 6;
    Client.close c;
    let s = Netserver.summary t in
    Alcotest.(check bool) "breaker sheds counted" true
      (s.Netserver.shed_breaker >= 1)

(* ------------------------------------------------------------------ *)
(* Trace context over the wire *)

(* Collect NDJSON trace lines emitted by worker domains; the sink runs
   under the telemetry lock, so only our own list needs one. *)
let with_trace_capture f =
  let lines = ref [] in
  let lk = Mcore.Mutex.create () in
  Telemetry.set_enabled true;
  Telemetry.set_trace_sink
    (Some (fun l -> Mcore.Mutex.protect lk (fun () -> lines := l :: !lines)));
  Fun.protect
    ~finally:(fun () ->
      Telemetry.set_trace_sink None;
      Telemetry.set_enabled false)
    (fun () ->
      f (fun () -> Mcore.Mutex.protect lk (fun () -> lines := [])) (fun () ->
          Mcore.Mutex.protect lk (fun () -> List.rev !lines)))

let span_traces lines =
  List.filter_map
    (fun line ->
      let j = Json.parse line in
      match (Json.member "ev" j, Json.member "trace" j) with
      | Some (Json.Str "span"), Some (Json.Str id) ->
        Some
          ( (match Json.member "name" j with
            | Some (Json.Str n) -> n
            | _ -> ""),
            id )
      | _ -> None)
    lines

(* The response flushes from inside the net.query span, so the client
   can see its reply a beat before the span line lands in the sink:
   poll until the predicate holds (or a bound expires, and the caller's
   assertion reports what was actually captured). *)
let rec spans_until collect pred tries =
  let spans = span_traces (collect ()) in
  if pred spans || tries = 0 then spans
  else begin
    Unix.sleepf 0.02;
    spans_until collect pred (tries - 1)
  end

let trace_over_wire () =
  if not Mcore.multicore then ()
  else
    with_trace_capture @@ fun clear collect ->
    let config = { Netserver.default_config with trace_sample = 1.0 } in
    with_server ~config @@ fun t ->
    let c = connect_ok t in
    (* a client-supplied traceparent comment tags every span of the
       query with that id, comment stripped before translation *)
    expect_rows c
      "/*traceparent:wire-trace-1*/ SELECT CUSTOMERID FROM CUSTOMERS" 6;
    let spans =
      spans_until collect
        (List.mem ("net.query", "wire-trace-1"))
        50
    in
    Alcotest.(check bool) "net.query span carries the client id" true
      (List.mem ("net.query", "wire-trace-1") spans);
    Alcotest.(check bool) "translator spans inherit the id" true
      (List.mem ("translate.parse", "wire-trace-1") spans);
    List.iter
      (fun (name, id) ->
        Alcotest.(check string) ("one trace id on " ^ name) "wire-trace-1" id)
      spans;
    (* without the comment a 16-hex id is minted, one per query *)
    clear ();
    expect_rows c "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = 2" 1;
    let spans =
      spans_until collect
        (List.exists (fun (name, _) -> name = "net.query"))
        50
    in
    let ids = List.sort_uniq compare (List.map snd spans) in
    (match ids with
    | [ id ] ->
      Alcotest.(check int) "minted id is 16 hex chars" 16 (String.length id);
      String.iter
        (fun ch ->
          if not ((ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'f')) then
            Alcotest.failf "non-hex minted id %s" id)
        id
    | ids -> Alcotest.failf "expected one trace id, got %d" (List.length ids));
    Client.close c

let trace_sampling_zero_is_silent () =
  if not Mcore.multicore then ()
  else
    with_trace_capture @@ fun clear collect ->
    (* default config: trace_sample = 0.0 *)
    with_server @@ fun t ->
    let c = connect_ok t in
    clear ();
    expect_rows c "SELECT CUSTOMERID FROM CUSTOMERS" 6;
    (* give a straggling span line the chance to prove us wrong *)
    Unix.sleepf 0.1;
    Alcotest.(check (list (pair string string)))
      "0%% sampling emits no span lines" [] (span_traces (collect ()));
    Client.close c

(* ------------------------------------------------------------------ *)
(* aqua_stat_* virtual tables *)

let stat_tables_over_wire () =
  if not Mcore.multicore then ()
  else begin
    Stats.reset ();
    Stats.set_enabled true;
    Telemetry.set_enabled true;
    Fun.protect
      ~finally:(fun () ->
        Telemetry.set_enabled false;
        Stats.set_enabled false;
        Stats.reset ())
    @@ fun () ->
    with_server @@ fun t ->
    let c = connect_ok t in
    expect_rows c "SELECT CUSTOMERID FROM CUSTOMERS" 6;
    expect_rows c "SELECT CUSTOMERID FROM CUSTOMERS" 6;
    (match Client.query c "SELECT * FROM aqua_stat_statements" with
    | Ok r ->
      Alcotest.(check (list string))
        "statements columns"
        [ "fingerprint"; "query"; "calls"; "rows"; "cache_hits"; "errors";
          "mean_ms"; "p50_ms"; "p99_ms"; "total_ms" ]
        r.Client.columns;
      let row =
        List.find_opt
          (fun row ->
            List.nth row 1 = Some "SELECT CUSTOMERID FROM CUSTOMERS")
          r.Client.rows
      in
      (match row with
      | Some row ->
        Alcotest.(check (option string)) "calls counted" (Some "2")
          (List.nth row 2);
        Alcotest.(check (option string)) "rows counted" (Some "12")
          (List.nth row 3)
      | None -> Alcotest.fail "replayed fingerprint missing from statements")
    | Error (code, msg) ->
      Alcotest.failf "aqua_stat_statements failed: %s %s" code msg);
    (* case-insensitive, trailing semicolon, nothing else in flight *)
    (match Client.query c "  select * from AQUA_STAT_ACTIVITY ; " with
    | Ok r ->
      Alcotest.(check (list string))
        "activity columns"
        [ "pid"; "state"; "query"; "fingerprint"; "elapsed_ms"; "trace_id" ]
        r.Client.columns;
      Alcotest.(check int) "no queries in flight" 0 (List.length r.Client.rows)
    | Error (code, msg) ->
      Alcotest.failf "aqua_stat_activity failed: %s %s" code msg);
    (match Client.query c "SELECT * FROM aqua_stat_breakers" with
    | Ok r ->
      Alcotest.(check (list string))
        "breakers columns"
        [ "function"; "state"; "rejecting"; "trips"; "recoveries";
          "rejections" ]
        r.Client.columns;
      (match r.Client.rows with
      | row :: _ ->
        Alcotest.(check (option string)) "breaker closed" (Some "closed")
          (List.nth row 1);
        Alcotest.(check (option string)) "not rejecting" (Some "false")
          (List.nth row 2)
      | [] -> Alcotest.fail "no breakers listed after a served query")
    | Error (code, msg) ->
      Alcotest.failf "aqua_stat_breakers failed: %s %s" code msg);
    (* a near-miss stays SQL: unknown table, not a silent empty set *)
    (match Client.query c "SELECT pid FROM aqua_stat_activity" with
    | Error ("42P01", _) -> ()
    | Error (code, msg) -> Alcotest.failf "expected 42P01, got %s %s" code msg
    | Ok _ -> Alcotest.fail "projected stat query must not match the table");
    Client.close c
  end

(* ------------------------------------------------------------------ *)
(* HTTP admin plane *)

let http_get port path =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
  Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
  @@ fun () ->
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  let req = Printf.sprintf "GET %s HTTP/1.0\r\n\r\n" path in
  ignore (Unix.write_substring fd req 0 (String.length req));
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec drain () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      drain ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain ()
  in
  drain ();
  let raw = Buffer.contents b in
  let status =
    try Scanf.sscanf raw "HTTP/1.0 %d" (fun d -> d)
    with Scanf.Scan_failure _ | End_of_file -> -1
  in
  let body =
    let rec find i =
      if i + 4 > String.length raw then ""
      else if String.sub raw i 4 = "\r\n\r\n" then
        String.sub raw (i + 4) (String.length raw - i - 4)
      else find (i + 1)
    in
    find 0
  in
  (status, body)

let admin_plane () =
  if not Mcore.multicore then ()
  else
    let config = { Netserver.default_config with admin_port = Some 0 } in
    with_server ~config @@ fun t ->
    let ap =
      match Netserver.admin_port t with
      | Some p -> p
      | None -> Alcotest.fail "admin plane not started"
    in
    let c = connect_ok t in
    expect_rows c "SELECT CUSTOMERID FROM CUSTOMERS" 6;
    let status, metrics = http_get ap "/metrics" in
    Alcotest.(check int) "metrics 200" 200 status;
    Alcotest.(check (list string)) "scrape lints clean" []
      (Expose.lint metrics);
    Alcotest.(check bool) "queue-depth gauge scraped" true
      (Helpers.contains ~needle:"# TYPE aqua_net_queue_depth gauge" metrics);
    Alcotest.(check bool) "pool gauge scraped" true
      (Helpers.contains ~needle:"aqua_session_pool_in_use" metrics);
    let status, health = http_get ap "/healthz" in
    Alcotest.(check int) "healthz 200" 200 status;
    (match Json.member "status" (Json.parse health) with
    | Some (Json.Str "ok") -> ()
    | _ -> Alcotest.failf "unexpected healthz body: %s" health);
    let status, statusz = http_get ap "/statusz" in
    Alcotest.(check int) "statusz 200" 200 status;
    let j = Json.parse statusz in
    (match Json.member "draining" j with
    | Some (Json.Bool false) -> ()
    | _ -> Alcotest.fail "statusz lacks draining:false");
    (match Json.member "pool" j with
    | Some (Json.Obj fields) ->
      Alcotest.(check bool) "pool capacity reported" true
        (List.mem_assoc "capacity" fields)
    | _ -> Alcotest.fail "statusz lacks the pool object");
    (match Json.member "breakers" j with
    | Some (Json.Arr (_ :: _)) -> ()
    | _ -> Alcotest.fail "statusz lacks breakers");
    let status, _ = http_get ap "/nope" in
    Alcotest.(check int) "unknown path is 404" 404 status;
    Client.close c;
    (* the admin plane reports the drain, and keeps answering *)
    Netserver.request_drain t;
    let status, health = http_get ap "/healthz" in
    Alcotest.(check int) "draining healthz 503" 503 status;
    match Json.member "status" (Json.parse health) with
    | Some (Json.Str "draining") -> ()
    | _ -> Alcotest.failf "unexpected draining body: %s" health

let suite =
  ( "net",
    [ Helpers.case "frontend frames round-trip" frontend_roundtrip;
      Helpers.case "backend frames round-trip" backend_roundtrip;
      Helpers.case "truncated frames are typed errors" truncation_is_typed;
      Helpers.case "oversized frames are refused" oversized_frame_rejected;
      Helpers.qcheck garbage_never_crashes;
      Helpers.case "serves queries over the wire" serve_basic;
      Helpers.case "DataRows carry NULLs and escaped characters"
        serve_nulls_and_escapes;
      Helpers.case "protocol errors are session-scoped" protocol_error_scoped;
      Helpers.case "full queue sheds with 53300" queue_admission_shed;
      Helpers.case "graceful drain: 57P01/57P03, no lost queries"
        drain_semantics;
      Helpers.case "open breaker fast-rejects, half-open admitted"
        breaker_fast_reject;
      Helpers.case "trace ids propagate over the wire" trace_over_wire;
      Helpers.case "zero sampling emits no trace lines"
        trace_sampling_zero_is_silent;
      Helpers.case "aqua_stat_* virtual tables answer over the wire"
        stat_tables_over_wire;
      Helpers.case "admin plane: /metrics, /healthz, /statusz" admin_plane ] )
