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
module Stat_tables = Aqua_net.Stat_tables
module Result_set = Aqua_driver.Result_set
module Value = Aqua_relational.Value
module Sql_type = Aqua_relational.Sql_type
module Outcol = Aqua_translator.Outcol

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

(* Every encoder's length prefix covers exactly the bytes it wrote. *)
let encoder_lengths () =
  let frame name encode =
    let buf = Buffer.create 64 in
    encode buf;
    let s = Buffer.contents buf in
    let declared = Bytes.get_int32_be (Bytes.of_string s) 1 in
    Alcotest.(check int) name (String.length s - 1) (Int32.to_int declared)
  in
  frame "Q" (fun b -> Wire.query_message b "SELECT 1 FROM T");
  frame "X" Wire.terminate_message;
  frame "R" Wire.authentication_ok;
  frame "S" (fun b -> Wire.parameter_status b "server_version" "15.0");
  frame "K" (fun b -> Wire.backend_key_data b ~pid:7 ~secret:9);
  frame "Z" Wire.ready_for_query;
  frame "T" (fun b ->
      Wire.row_description b
        [ Outcol.make ~label:"ID" ~element:"ID" ~ty:Sql_type.Integer
            ~nullable:false;
          Outcol.make ~label:"NAME" ~element:"NAME"
            ~ty:(Sql_type.Varchar None) ~nullable:true ]);
  frame "D" (fun b ->
      Wire.data_row b [| Value.Int 42; Value.Null; Value.Str "x\000y" |]);
  frame "C" (fun b -> Wire.command_complete b "SELECT 6");
  frame "I" Wire.empty_query_response;
  frame "E" (fun b ->
      Wire.error_response b ~severity:"FATAL" ~sqlstate:"08P01" "bad frame");
  let buf = Buffer.create 64 in
  Wire.startup_message buf [ ("user", "u"); ("database", "d") ];
  let s = Buffer.contents buf in
  Alcotest.(check int) "startup" (String.length s)
    (Int32.to_int (Bytes.get_int32_be (Bytes.of_string s) 0))

(* ------------------------------------------------------------------ *)
(* Buffered reading *)

(* A byte source over [s] with the [Unix.read] contract that returns
   the [sizes] in turn, as a socket's short reads would (never more
   than asked for, or than is left); [calls] counts its reads. *)
let short_reads ?(calls = ref 0) s sizes =
  let sizes = Array.of_list sizes in
  let off = ref 0 in
  fun b pos len ->
    let want = sizes.(!calls mod Array.length sizes) in
    incr calls;
    let n = min (min want len) (String.length s - !off) in
    Bytes.blit_string s !off b pos n;
    off := !off + n;
    n

(* every frame a reader yields, up to and including the first error *)
let decode_all read_frame r =
  let rec go acc =
    match read_frame r with
    | Ok _ as f -> go (f :: acc)
    | Error _ as e -> List.rev (e :: acc)
  in
  go []

let frontend_trace r =
  match Wire.Reader.read_startup r with
  | Error _ as e -> [ e ]
  | Ok _ as f -> f :: decode_all Wire.Reader.read_message r

let encoded encode =
  let buf = Buffer.create 64 in
  encode buf;
  Buffer.contents buf

(* Streams of valid frames of both directions, payloads larger than
   the chunk among them, with garbage, oversized frames and a
   truncated tail mixed in. *)
let stream_gen =
  let open QCheck.Gen in
  let text = string_size ~gen:printable (0 -- 300) in
  let piece =
    frequency
      [ (8, map (fun s -> encoded (fun b -> Wire.query_message b s)) text);
        ( 1,
          map
            (fun n ->
              encoded (fun b -> Wire.query_message b (String.make n 'q')))
            (Wire.Reader.chunk_size -- (2 * Wire.Reader.chunk_size)) );
        (2, return (encoded Wire.terminate_message));
        (1, return (encoded Wire.ready_for_query));
        ( 3,
          map
            (fun cells ->
              encoded (fun b ->
                  Wire.data_row b
                    (Array.of_list
                       (List.map
                          (function None -> Value.Null | Some s -> Value.Str s)
                          cells))))
            (list_size (0 -- 6) (opt text)) );
        (2, map (fun s -> encoded (fun b -> Wire.command_complete b s)) text);
        ( 1,
          map2
            (fun state m ->
              encoded (fun b -> Wire.error_response b ~sqlstate:state m))
            (string_size ~gen:numeral (return 5))
            text );
        (1, string_size (1 -- 8) (* garbage *));
        (1, return "Q\x7f\xff\xff\xff" (* oversized *)) ]
  in
  let stream =
    map3
      (fun startup pieces cut ->
        let s =
          (if startup then
             encoded (fun b -> Wire.startup_message b [ ("user", "u") ])
           else "")
          ^ String.concat "" pieces
        in
        (* a third of the streams lose their tail mid-frame *)
        match cut with
        | Some keep -> String.sub s 0 (String.length s * keep / 1000)
        | None -> s)
      bool
      (list_size (0 -- 12) piece)
      (frequency [ (2, return None); (1, map Option.some (0 -- 999)) ])
  in
  let sizes =
    oneofl [ 1; 2; 3; 5; 8; 64; 700; 4096; Wire.Reader.chunk_size + 3 ]
    >>= fun k -> list_size (1 -- 8) (1 -- k)
  in
  pair stream sizes

let short_reads_agree =
  QCheck.Test.make ~name:"short reads decode like the whole stream"
    ~count:300
    (QCheck.make stream_gen ~print:(fun (s, sizes) ->
         Printf.sprintf "%d bytes %S..., reads of %s" (String.length s)
           (String.sub s 0 (min 40 (String.length s)))
           (String.concat "," (List.map string_of_int sizes))))
    (fun (s, sizes) ->
      let whole = Wire.Reader.of_string s in
      let short () = Wire.Reader.of_read (short_reads s sizes) in
      frontend_trace whole = frontend_trace (short ())
      && decode_all Wire.read_backend (Wire.Reader.of_string s)
         = decode_all Wire.read_backend (short ()))

(* One read per chunk, not three per frame: a 200-row reply of about
   100 KB comes through a source that returns all it is asked for in
   at most 1 + ceil(bytes / chunk) reads. *)
let reads_per_chunk () =
  let buf = Buffer.create 4096 in
  Wire.row_description buf
    [ Outcol.make ~label:"ID" ~element:"ID" ~ty:Sql_type.Integer
        ~nullable:false;
      Outcol.make ~label:"NOTE" ~element:"NOTE" ~ty:(Sql_type.Varchar None)
        ~nullable:false ];
  for i = 1 to 200 do
    Wire.data_row buf [| Value.Int i; Value.Str (String.make 500 'n') |]
  done;
  Wire.command_complete buf "SELECT 200";
  Wire.ready_for_query buf;
  let reply = Buffer.contents buf in
  let calls = ref 0 in
  let r = Wire.Reader.of_read (short_reads ~calls reply [ max_int ]) in
  let rec rows n =
    match Wire.read_backend r with
    | Ok (Wire.B_ready _) -> n
    | Ok (Wire.B_data_row _) -> rows (n + 1)
    | Ok _ -> rows n
    | Error e -> Alcotest.failf "reply cut short: %s" (Wire.error_to_string e)
  in
  Alcotest.(check int) "rows" 200 (rows 0);
  let chunk = Wire.Reader.chunk_size in
  let bound = 1 + ((String.length reply + chunk - 1) / chunk) in
  if !calls > bound then
    Alcotest.failf "%d reads for a %d-byte reply, at most %d allowed" !calls
      (String.length reply) bound

(* The wire fast path for aqua_stat_* reads the text in place; it must
   match exactly what the whitespace-split reading of the statement
   matched. *)
let recognize_by_tokens sql =
  let s = String.trim sql in
  let s =
    let n = String.length s in
    if n > 0 && s.[n - 1] = ';' then String.trim (String.sub s 0 (n - 1))
    else s
  in
  String.split_on_char ' '
    (String.map
       (fun c -> if c = '\t' || c = '\n' || c = '\r' then ' ' else c)
       s)
  |> List.filter (fun t -> t <> "")
  |> List.map String.lowercase_ascii
  |> function
  | [ "select"; "*"; "from"; "aqua_stat_statements" ] ->
    Some Stat_tables.Statements
  | [ "select"; "*"; "from"; "aqua_stat_activity" ] ->
    Some Stat_tables.Activity
  | [ "select"; "*"; "from"; "aqua_stat_breakers" ] ->
    Some Stat_tables.Breakers
  | _ -> None

let recognize_matches_tokens =
  let gen =
    let open QCheck.Gen in
    let word =
      oneofl
        [ "select"; "SELECT"; "Select"; "*"; "from"; "FROM";
          "aqua_stat_statements"; "AQUA_STAT_ACTIVITY"; "aqua_stat_Breakers";
          "aqua_stat_"; "pid"; ";"; "CUSTOMERS"; "selects" ]
    in
    let blank = oneofl [ ""; " "; "  "; "\t"; "\n"; "\r\n"; "\012"; ";" ] in
    (* the matching shape, in any case, then maybe a word too many *)
    let canonical =
      map3
        (fun (select, from) (name, tail) seps ->
          match seps with
          | [ a; b; c; d; e ] ->
            a ^ select ^ b ^ "*" ^ c ^ from ^ d ^ name ^ e ^ tail
          | _ -> name)
        (pair
           (oneofl [ "select"; "SELECT"; "sElEcT" ])
           (oneofl [ "from"; "FROM" ]))
        (pair
           (oneofl (Stat_tables.table_names @ [ "AQUA_STAT_STATEMENTS" ]))
           (oneofl [ ""; ""; ""; " pid"; ";"; " ;"; "x"; "\t*" ]))
        (list_repeat 5 blank)
    in
    let random =
      map
        (fun parts ->
          String.concat "" (List.concat_map (fun (b, w) -> [ b; w ]) parts))
        (list_size (0 -- 7) (pair blank word))
    in
    frequency [ (1, canonical); (2, random) ]
  in
  QCheck.Test.make ~name:"aqua_stat_* matching agrees with the token reading"
    ~count:1000 (QCheck.make gen ~print:(Printf.sprintf "%S"))
    (fun sql -> Stat_tables.recognize sql = recognize_by_tokens sql)

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
(* A hand-rolled session, past its greeting, for writing raw bytes. *)
let raw_session t =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Netserver.port t));
  let hello = encoded (fun b -> Wire.startup_message b [ ("user", "raw") ]) in
  ignore (Unix.write_substring fd hello 0 (String.length hello));
  let reader = Wire.Reader.of_fd fd in
  let rec to_ready () =
    match Wire.read_backend reader with
    | Ok (Wire.B_ready _) -> ()
    | Ok _ -> to_ready ()
    | Error e -> Alcotest.failf "greeting failed: %s" (Wire.error_to_string e)
  in
  to_ready ();
  (fd, reader)

let protocol_error_scoped () =
  if not Mcore.multicore then ()
  else
    with_server @@ fun t ->
    let healthy = connect_ok t in
    expect_rows healthy "SELECT CUSTOMERID FROM CUSTOMERS" 6;
    (* hand-rolled socket so we can write raw garbage post-handshake *)
    let fd, reader = raw_session t in
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

(* A reply several chunks long (7 776 rows, about 250 KB) arrives
   whole and equal to the in-process result. *)
let reply_spans_chunks () =
  if not Mcore.multicore then ()
  else
    let sql =
      "SELECT A.CUSTOMERID, B.CUSTOMERID, C.CUSTOMERID, D.CUSTOMERID, \
       E.CUSTOMERID FROM CUSTOMERS A, CUSTOMERS B, CUSTOMERS C, CUSTOMERS D, \
       CUSTOMERS E"
    in
    let app = Helpers.demo_app () in
    let expected =
      let rows = ref [] in
      Result_set.iter_rows
        (Connection.execute_query (Connection.connect app) sql)
        (fun row ->
          rows :=
            Array.to_list
              (Array.map
                 (function Value.Null -> None | v -> Some (Value.to_string v))
                 row)
            :: !rows);
      List.rev !rows
    in
    with_server ~app @@ fun t ->
    let c = connect_ok t in
    (match Client.query c sql with
    | Ok reply ->
      Alcotest.(check string) "tag" "SELECT 7776" reply.Client.tag;
      Alcotest.(check int) "rows" 7776 (List.length reply.Client.rows);
      Alcotest.(check bool) "rows equal the in-process result" true
        (reply.Client.rows = expected)
    | Error (code, msg) -> Alcotest.failf "cross join failed: %s %s" code msg);
    Client.close c

(* Two Query frames in one write: the server's reader keeps the bytes
   it read past the first and answers both, in order. *)
let pipelined_queries () =
  if not Mcore.multicore then ()
  else
    with_server @@ fun t ->
    let fd, reader = raw_session t in
    let both =
      encoded (fun b ->
          Wire.query_message b "SELECT CUSTOMERID FROM CUSTOMERS";
          Wire.query_message b
            "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = 2")
    in
    ignore (Unix.write_substring fd both 0 (String.length both));
    let rec reply rows =
      match Wire.read_backend reader with
      | Ok (Wire.B_data_row _) -> reply (rows + 1)
      | Ok (Wire.B_command_complete tag) ->
        (match Wire.read_backend reader with
        | Ok (Wire.B_ready _) -> (rows, tag)
        | _ -> Alcotest.fail "expected ReadyForQuery after the tag")
      | Ok (Wire.B_error fields) ->
        Alcotest.failf "query failed: %s"
          (Option.value ~default:"" (List.assoc_opt 'M' fields))
      | Ok _ -> reply rows
      | Error e -> Alcotest.failf "reply cut short: %s" (Wire.error_to_string e)
    in
    Alcotest.(check (pair int string)) "first reply" (6, "SELECT 6") (reply 0);
    Alcotest.(check (pair int string)) "second reply" (1, "SELECT 1") (reply 0);
    Unix.close fd

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
       query with that id; the lexer skips the comment *)
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

(* The statement runs as the client sent it, comment and all, so a
   syntax error's position is the client's: the '@' sits at column 40
   bare and at column 60 behind a 20-byte traceparent prefix. *)
let traceparent_keeps_positions () =
  if not Mcore.multicore then ()
  else
    with_server @@ fun t ->
    let c = connect_ok t in
    let stmt = "SELECT CUSTOMERID FROM CUSTOMERS WHERE @" in
    List.iter
      (fun (prefix, column) ->
        let sql = prefix ^ stmt in
        match Client.query c sql with
        | Error ("42601", msg) ->
          let at = Printf.sprintf "at line 1, column %d" column in
          if not (Helpers.contains ~needle:at msg) then
            Alcotest.failf "%s: expected %S in %S" sql at msg
        | Error (code, msg) -> Alcotest.failf "%s: expected 42601, got %s %s" sql code msg
        | Ok _ -> Alcotest.failf "%s: accepted" sql)
      [ ("", 40); ("/* hello */ ", 52); ("/*traceparent:abc*/ ", 60) ];
    expect_rows c "/*traceparent:abc*/ SELECT CUSTOMERID FROM CUSTOMERS" 6;
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

(* Unsampled tracing allocates nothing: at trace_sample = 0.0 a query
   served with a trace sink installed allocates the same words as with
   no sink, within a small constant.  The words are counted in the
   worker domain that runs the query: the telemetry clock reads that
   domain's minor-word count, so the net.query span's total is the
   words its queries allocated. *)
let unsampled_trace_costs_no_words () =
  if not Mcore.multicore then ()
  else begin
    let sql = "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY" in
    Telemetry.set_enabled true;
    Stats.set_enabled true;
    Stats.install_span_histograms ();
    Telemetry.set_clock (fun () -> Int64.of_float (Gc.minor_words ()));
    Fun.protect
      ~finally:(fun () ->
        Telemetry.set_clock (fun () -> Int64.of_float (Unix.gettimeofday () *. 1e9));
        Telemetry.set_trace_sink None;
        Stats.uninstall_span_histograms ();
        Stats.set_enabled false;
        Stats.reset ();
        Telemetry.set_enabled false;
        Telemetry.reset ())
    @@ fun () ->
    let words_per_query sink =
      Telemetry.set_trace_sink sink;
      with_server @@ fun t ->
      let c = connect_ok t in
      for _ = 1 to 3 do expect_rows c sql 4 done;
      Telemetry.reset ();
      for _ = 1 to 20 do expect_rows c sql 4 done;
      Client.close c;
      match List.find_opt (fun (n, _, _) -> n = "net.query") (Telemetry.span_stats ()) with
      | Some (_, 20, words) -> Int64.to_float words /. 20.
      | _ -> Alcotest.fail "expected 20 net.query spans"
    in
    let without = words_per_query None in
    let lines = ref 0 in
    let with_sink = words_per_query (Some (fun _ -> incr lines)) in
    Alcotest.(check int) "no trace lines" 0 !lines;
    if Float.abs (with_sink -. without) > 16. then
      Alcotest.failf "a query allocates %.0f words with an unsampled sink, %.0f without"
        with_sink without
  end

(* Overload is accounted for: a burst of connection-per-query arrivals
   from eight clients against four workers and a queue of four ends
   every offered query completed or shed with a SQLSTATE (each shed is
   kept as its code, so the sheds by code sum to the sheds), and
   completes some; also with the net layer's session and read
   failpoints armed. *)
let burst_ledger () =
  if not Mcore.multicore then ()
  else
    let app =
      Aqua_workload.Datagen.application ~seed:42
        { customers = 200; orders = 300; lines_per_order = 2; payments = 150 }
    in
    let stmts =
      [| "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = 17";
         "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE TIER > 1";
         "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY";
         "SELECT CUSTOMERNAME FROM CUSTOMERS ORDER BY CUSTOMERNAME" |]
    in
    let config =
      { Netserver.default_config with
        pool_size = 4; workers = 4; queue_depth = 4; borrow_wait_ms = 200 }
    in
    with_server ~config ~app @@ fun t ->
    let offered = 80 in
    let leg label =
      let next = Atomic.make 0 in
      let client () =
        let completed = ref 0 and shed = ref [] in
        let rec go () =
          let i = Atomic.fetch_and_add next 1 in
          if i < offered then begin
            (match Client.connect ~timeout_ms:5_000 ~host:"127.0.0.1" ~port:(Netserver.port t) () with
            | Error (code, _) -> shed := code :: !shed
            | Ok c ->
              (match Client.query c stmts.(i mod Array.length stmts) with
              | Ok _ -> incr completed
              | Error (code, _) -> shed := code :: !shed);
              Client.close c);
            go ()
          end
        in
        go ();
        (!completed, !shed)
      in
      let outcomes = Mcore.Domains.parallel (List.init 8 (fun _ -> client)) in
      let completed, codes =
        List.fold_left
          (fun (n, cs) -> function
            | Ok (m, c) -> (n + m, c @ cs)
            | Error e -> Alcotest.failf "%s: a client died: %s" label (Printexc.to_string e))
          (0, []) outcomes
      in
      List.iter
        (fun c ->
          if String.length c <> 5 then Alcotest.failf "%s: shed without a SQLSTATE: %S" label c)
        codes;
      Alcotest.(check int) (label ^ ": offered = completed + shed") offered
        (completed + List.length codes);
      if completed = 0 then Alcotest.failf "%s: nothing completed" label
    in
    leg "burst";
    Helpers.with_failpoints "net.session=flaky(0.1);net.read=flaky(0.05)" (fun () ->
        leg "burst with net faults")

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
      Helpers.case "length prefixes cover their frames" encoder_lengths;
      Helpers.qcheck short_reads_agree;
      Helpers.case "one read per chunk, not per frame" reads_per_chunk;
      Helpers.qcheck recognize_matches_tokens;
      Helpers.case "serves queries over the wire" serve_basic;
      Helpers.case "DataRows carry NULLs and escaped characters"
        serve_nulls_and_escapes;
      Helpers.case "protocol errors are session-scoped" protocol_error_scoped;
      Helpers.case "a reply longer than the chunk arrives whole"
        reply_spans_chunks;
      Helpers.case "pipelined queries are answered in order"
        pipelined_queries;
      Helpers.case "full queue sheds with 53300" queue_admission_shed;
      Helpers.case "graceful drain: 57P01/57P03, no lost queries"
        drain_semantics;
      Helpers.case "open breaker fast-rejects, half-open admitted"
        breaker_fast_reject;
      Helpers.case "trace ids propagate over the wire" trace_over_wire;
      Helpers.case "a traceparent comment keeps error positions"
        traceparent_keeps_positions;
      Helpers.case "zero sampling emits no trace lines"
        trace_sampling_zero_is_silent;
      Helpers.case "zero sampling allocates no words for its sink"
        unsampled_trace_costs_no_words;
      Helpers.case "a burst ends every query completed or shed"
        burst_ledger;
      Helpers.case "aqua_stat_* virtual tables answer over the wire"
        stat_tables_over_wire;
      Helpers.case "admin plane: /metrics, /healthz, /statusz" admin_plane ] )
