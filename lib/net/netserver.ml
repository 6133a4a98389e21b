(* The wire-protocol front end: accept loop, bounded connection queue,
   worker domains, graceful drain.

   The failure philosophy mirrors the rest of the stack: every
   overload or fault becomes a *typed, bounded* outcome — a SQLSTATE
   on the wire, a counter in telemetry — and the blast radius of any
   single connection is that connection.  A worker can never die from
   a session (catch-all at the session boundary), the accept loop can
   never block on a client (sheds are written under the same socket
   deadlines as everything else), and memory per session is bounded by
   the frame cap plus one buffered response. *)

module Budget = Aqua_resilience.Budget
module Sqlstate = Aqua_resilience.Sqlstate
module Breaker = Aqua_resilience.Breaker
module Failpoint = Aqua_resilience.Failpoint
module Mcore = Aqua_multicore.Mcore
module T = Aqua_core.Telemetry
module Connection = Aqua_driver.Connection
module Session_pool = Aqua_driver.Session_pool
module Result_set = Aqua_driver.Result_set
module Server = Aqua_dsp.Server
module Stats = Aqua_obs.Stats
module Recorder = Aqua_obs.Recorder
module Expose = Aqua_obs.Expose
module Histogram = Aqua_obs.Histogram
module Fingerprint = Aqua_obs.Fingerprint

type config = {
  host : string;
  port : int;
  pool_size : int;
  workers : int;
  queue_depth : int;
  borrow_wait_ms : int;
  io_timeout_ms : int;
  drain_timeout_ms : int;
  max_frame : int;
  limits : Budget.limits;
  trace_sample : float;
  admin_port : int option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 5433;
    pool_size = 8;
    workers = 0;
    queue_depth = 16;
    borrow_wait_ms = 1_000;
    io_timeout_ms = 5_000;
    drain_timeout_ms = 2_000;
    max_frame = 1 lsl 20;
    limits = Budget.no_limits;
    trace_sample = 0.0;
    admin_port = None;
  }

type summary = {
  connections : int;
  queries : int;
  shed_queue : int;
  shed_drain : int;
  shed_breaker : int;
  protocol_errors : int;
  io_timeouts : int;
}

type server = {
  conn : Connection.t;
  cfg : config;
  nworkers : int;
  inline : bool;  (* shim mode: serve on the accept loop, no queue *)
  pool : Session_pool.t;
  listener : Unix.file_descr;
  bound_port : int;
  queue : Unix.file_descr Queue.t;
  qlock : Mcore.Mutex.t;
  qcond : Mcore.Condition.t;
  drain_flag : bool Atomic.t;
  in_flight : int Atomic.t;  (* queries between admission and response *)
  live : (Unix.file_descr, unit) Hashtbl.t;  (* sessions being served *)
  llock : Mcore.Mutex.t;
  hist_lock : Mcore.Mutex.t;  (* per-session histogram merges *)
  conn_seq : int Atomic.t;
  (* in-flight query registry for aqua_stat_activity / statusz: one
     entry per session pid while its query runs *)
  active : (int, string * string * int64 * string) Hashtbl.t;
      (* pid -> (fp digest, shape, start_ns, trace id) *)
  alock : Mcore.Mutex.t;
  trace_seq : int Atomic.t;
  trace_seed : int64;  (* start-time salt so restarts mint fresh ids *)
  dump_request : bool Atomic.t;  (* SIGUSR1 -> recorder dump, out of band *)
  admin : Admin.t option ref;
  s_connections : int Atomic.t;
  s_queries : int Atomic.t;
  s_shed_queue : int Atomic.t;
  s_shed_drain : int Atomic.t;
  s_shed_breaker : int Atomic.t;
  s_protocol_errors : int Atomic.t;
  s_io_timeouts : int Atomic.t;
  snapshot_sink : (string -> unit) option;
}

type t = {
  srv : server;
  mutable domains : unit Mcore.Domains.handle list;
  mutable drained : bool;
  dlock : Mcore.Mutex.t;
}

(* the summary atomics count even with telemetry disabled; the
   telemetry counters feed exposition when it is enabled *)
let bump a c =
  Atomic.incr a;
  T.incr c

let read_summary srv =
  {
    connections = Atomic.get srv.s_connections;
    queries = Atomic.get srv.s_queries;
    shed_queue = Atomic.get srv.s_shed_queue;
    shed_drain = Atomic.get srv.s_shed_drain;
    shed_breaker = Atomic.get srv.s_shed_breaker;
    protocol_errors = Atomic.get srv.s_protocol_errors;
    io_timeouts = Atomic.get srv.s_io_timeouts;
  }

(* ------------------------------------------------------------------ *)
(* Socket plumbing *)

exception Session_end
(* internal control flow: this wire session is over (for whatever
   reason); never escapes a session boundary *)

let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> ()

let set_deadlines fd ms =
  let s = float_of_int (max 1 ms) /. 1000.0 in
  (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO s
   with Unix.Unix_error _ -> ());
  try Unix.setsockopt_float fd Unix.SO_SNDTIMEO s
  with Unix.Unix_error _ -> ()

(* One buffered response batch, one write.  Every failure ends the
   session: a send-deadline expiry is counted, a vanished peer and an
   injected net.write fault are not worth distinguishing. *)
let flush srv fd buf =
  let s = Buffer.contents buf in
  Buffer.clear buf;
  let write_loop () =
    Failpoint.hit "net.write";
    let n = String.length s in
    let rec go off =
      if off < n then
        match Unix.write_substring fd s off (n - off) with
        | w -> go (off + w)
        | exception Unix.Unix_error (EINTR, _, _) -> go off
    in
    go 0
  in
  match write_loop () with
  | () -> ()
  | exception Unix.Unix_error ((EAGAIN | EWOULDBLOCK), _, _) ->
    bump srv.s_io_timeouts T.c_net_io_timeouts;
    raise Session_end
  | exception Unix.Unix_error _ -> raise Session_end
  | exception Failpoint.Injected _ -> raise Session_end

let send_error srv fd buf ?severity ~sqlstate msg =
  Wire.error_response buf ?severity ~sqlstate msg;
  flush srv fd buf

(* Refuse a connection that never got a session: best-effort read of
   the startup frame (answering an SSL/GSS probe so a real client
   library reaches its error-reading state), then one FATAL error.
   Bounded by the socket deadlines like everything else. *)
let refuse srv fd ~sqlstate msg =
  let buf = Buffer.create 128 in
  (try
     let reader = Wire.Reader.of_fd ~max_frame:srv.cfg.max_frame fd in
     (match Wire.Reader.read_startup reader with
     | Ok (Wire.Ssl_request | Wire.Gss_request) ->
       Wire.ssl_refused buf;
       flush srv fd buf;
       ignore (Wire.Reader.read_startup reader)
     | _ -> ());
     send_error srv fd buf ~severity:"FATAL" ~sqlstate msg
   with Session_end | Unix.Unix_error _ -> ());
  close_quiet fd

(* ------------------------------------------------------------------ *)
(* Trace context *)

(* splitmix64 finalizer: a cheap, well-mixed 64-bit id from a counter
   xor a start-time seed — no dependency on Random's global state. *)
let splitmix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let mint_trace srv =
  Printf.sprintf "%016Lx"
    (splitmix64
       (Int64.logxor srv.trace_seed
          (Int64.of_int (1 + Atomic.fetch_and_add srv.trace_seq 1))))

let trace_id_char_ok c =
  (c >= 'a' && c <= 'z')
  || (c >= 'A' && c <= 'Z')
  || (c >= '0' && c <= '9')
  || c = '-' || c = '_'

(* A leading [/*traceparent:<id>*/] comment carries the client's trace
   id.  It is stripped from the SQL either way — the translator's
   parser has no comment syntax, and the translation LRU must key on
   the bare statement so a thousand distinct trace ids share one cache
   entry.  (The fingerprint normalizer already drops comments
   lexically, so shapes were never at risk.)  An id that is empty,
   over 64 chars, or outside [A-Za-z0-9_-] is ignored and the server
   mints its own. *)
let extract_traceparent sql =
  let n = String.length sql in
  let i = ref 0 in
  while
    !i < n
    && (sql.[!i] = ' ' || sql.[!i] = '\t' || sql.[!i] = '\n'
       || sql.[!i] = '\r')
  do
    incr i
  done;
  let prefix = "/*traceparent:" in
  let plen = String.length prefix in
  if !i + plen <= n && String.sub sql !i plen = prefix then begin
    let rec find_close j =
      if j + 1 >= n then None
      else if sql.[j] = '*' && sql.[j + 1] = '/' then Some j
      else find_close (j + 1)
    in
    match find_close (!i + plen) with
    | None -> (None, sql)
    | Some j ->
      let id = String.trim (String.sub sql (!i + plen) (j - !i - plen)) in
      let rest = String.sub sql (j + 2) (n - j - 2) in
      let ok =
        id <> "" && String.length id <= 64
        && String.for_all trace_id_char_ok id
      in
      ((if ok then Some id else None), rest)
  end
  else (None, sql)

(* Head-based probabilistic sampling, deterministic in the trace id
   (FNV-1a 64 of the id against the rate): retries of the same trace
   land on the same side of the coin, and a client-supplied id decides
   its fate identically on every server. *)
let sample_decision rate id =
  if rate >= 1.0 then true
  else if rate <= 0.0 then false
  else begin
    let h = ref 0xcbf29ce484222325L in
    String.iter
      (fun c ->
        h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c)))
               0x100000001b3L)
      id;
    let bits = Int64.to_int (Int64.logand !h 0x3fffffffL) in
    float_of_int bits /. 1073741824.0 < rate
  end

(* ------------------------------------------------------------------ *)
(* The wire session *)

let breaker_rejecting srv =
  List.exists Breaker.rejecting (Server.breakers (Connection.server srv.conn))

let greet srv fd buf ~sid =
  Wire.authentication_ok buf;
  Wire.parameter_status buf "server_version" "15.0";
  Wire.parameter_status buf "server_encoding" "UTF8";
  Wire.parameter_status buf "client_encoding" "UTF8";
  Wire.backend_key_data buf ~pid:(sid land 0x3fffffff)
    ~secret:(sid * 0x9e3779b1 land 0x3fffffff);
  Wire.ready_for_query buf;
  flush srv fd buf

(* Answer an aqua_stat_* virtual table from the live registries: no
   translation, no pool session, no budget — a saturated or broken
   data plane is exactly when the operator needs these to answer. *)
let answer_stat srv fd buf table =
  bump srv.s_queries T.c_net_queries;
  T.incr T.c_net_stat_queries;
  let cols, rows =
    match (table : Stat_tables.table) with
    | Stat_tables.Statements -> Stat_tables.statements ()
    | Stat_tables.Activity ->
      let now = T.now_ns () in
      let entries =
        Mcore.Mutex.protect srv.alock (fun () ->
            Hashtbl.fold
              (fun pid (fp, shape, start_ns, trace) acc ->
                {
                  Stat_tables.pid;
                  query = shape;
                  fingerprint = fp;
                  elapsed_ms =
                    Int64.to_float (Int64.sub now start_ns) /. 1e6;
                  trace_id = trace;
                }
                :: acc)
              srv.active [])
      in
      Stat_tables.activity entries
    | Stat_tables.Breakers ->
      Stat_tables.breakers (Server.breakers (Connection.server srv.conn))
  in
  Wire.row_description buf cols;
  List.iter (fun r -> Wire.data_row buf r) rows;
  Wire.command_complete buf (Printf.sprintf "SELECT %d" (List.length rows));
  Wire.ready_for_query buf;
  flush srv fd buf

let handle_query srv fd buf hist ~sid sql =
  Failpoint.hit "net.session";
  if String.trim sql = "" then begin
    Wire.empty_query_response buf;
    Wire.ready_for_query buf;
    flush srv fd buf
  end
  else
    match Stat_tables.recognize sql with
    | Some table -> answer_stat srv fd buf table
    | None ->
  if breaker_rejecting srv then begin
    (* fast backpressure: the backend is known-bad and inside its
       cooldown, so fail in microseconds instead of burning a pool
       session; once the cooldown elapses [Breaker.rejecting] goes
       false and the half-open trial flows through normally *)
    bump srv.s_shed_breaker T.c_net_shed_breaker;
    send_error srv fd buf ~sqlstate:Sqlstate.connection_failure
      "backend circuit open; retry after cooldown";
    Wire.ready_for_query buf;
    flush srv fd buf
  end
  else begin
    (* in_flight covers execution AND the response write, so the drain
       sequence (which waits for in_flight = 0 before shutting down
       idle sockets) can never cut off an admitted query's response *)
    Atomic.incr srv.in_flight;
    Fun.protect ~finally:(fun () -> Atomic.decr srv.in_flight)
    @@ fun () ->
    (* trace context: a client-supplied /*traceparent:…*/ id (stripped
       from the SQL) or a freshly minted one, with the head-based
       sampling decision; the DLS context travels through the session
       pool, the driver and every span below without threading *)
    let client_id, sql = extract_traceparent sql in
    let trace_id =
      match client_id with Some id -> id | None -> mint_trace srv
    in
    let sampled = sample_decision srv.cfg.trace_sample trace_id in
    if sampled then T.incr T.c_net_traces_sampled;
    T.with_trace ~id:trace_id ~sampled
    @@ fun () ->
    (* one key pass: the activity row's fingerprint, then the driver's
       plan key and fingerprint *)
    let key = Fingerprint.key sql in
    let t0 = T.now_ns () in
    Mcore.Mutex.protect srv.alock (fun () ->
        Hashtbl.replace srv.active sid
          (key.Fingerprint.digest, key.Fingerprint.shape, t0, trace_id));
    Fun.protect
      ~finally:(fun () ->
        Mcore.Mutex.protect srv.alock (fun () ->
            Hashtbl.remove srv.active sid))
    @@ fun () ->
    T.with_span "net.query"
    @@ fun () ->
    match
      Session_pool.execute ~key ~wait_ms:srv.cfg.borrow_wait_ms srv.pool sql
    with
    | rs ->
      bump srv.s_queries T.c_net_queries;
      Histogram.record hist (Int64.sub (T.now_ns ()) t0);
      Wire.row_description buf (Result_set.columns rs);
      let count = ref 0 in
      Result_set.iter_rows rs (fun row ->
          incr count;
          Wire.data_row buf row);
      Wire.command_complete buf (Printf.sprintf "SELECT %d" !count);
      Wire.ready_for_query buf;
      flush srv fd buf
    | exception Sqlstate.Error e ->
      (* a typed failure (translation error, budget trip, pool
         exhaustion 53300, breaker 08004, …) costs one statement, not
         the session *)
      send_error srv fd buf ~sqlstate:e.Sqlstate.sqlstate
        e.Sqlstate.message;
      Wire.ready_for_query buf;
      flush srv fd buf
    | exception e ->
      (* the driver maps every failure of a statement to a SQLSTATE;
         this guards the session pool's own code around it *)
      send_error srv fd buf ~sqlstate:Sqlstate.internal_error
        (Printexc.to_string e);
      Wire.ready_for_query buf;
      flush srv fd buf
  end

let drain_error srv fd buf ~sqlstate msg =
  bump srv.s_shed_drain T.c_net_shed_drain;
  (try send_error srv fd buf ~severity:"FATAL" ~sqlstate msg
   with Session_end -> ());
  raise Session_end

let serve_session srv fd =
  let reader = Wire.Reader.of_fd ~max_frame:srv.cfg.max_frame fd in
  let buf = Buffer.create 1024 in
  let hist = Histogram.create () in
  let merge () =
    if not (Histogram.is_empty hist) then
      Mcore.Mutex.protect srv.hist_lock (fun () ->
          Histogram.merge_into ~into:(Stats.histogram "net.query") hist)
  in
  Fun.protect ~finally:merge @@ fun () ->
  (* startup: answer the SSL/GSS probes, then expect Startup *)
  let rec startup attempts =
    if attempts > 4 then raise Session_end;
    match Wire.Reader.read_startup reader with
    | Ok (Wire.Ssl_request | Wire.Gss_request) ->
      Wire.ssl_refused buf;
      flush srv fd buf;
      startup (attempts + 1)
    | Ok Wire.Cancel_request -> raise Session_end
    | Ok (Wire.Startup _params) -> ()
    | Ok (Wire.Query _ | Wire.Terminate | Wire.Other _) ->
      (* Reader.read_startup never produces these *)
      raise Session_end
    | Error ((Wire.Oversized _ | Wire.Malformed _) as e) ->
      bump srv.s_protocol_errors T.c_net_protocol_errors;
      (try
         send_error srv fd buf ~severity:"FATAL"
           ~sqlstate:Sqlstate.protocol_violation (Wire.error_to_string e)
       with Session_end -> ());
      raise Session_end
    | Error Wire.Timeout ->
      bump srv.s_io_timeouts T.c_net_io_timeouts;
      raise Session_end
    | Error Wire.Eof -> raise Session_end
  in
  startup 0;
  if Atomic.get srv.drain_flag then
    drain_error srv fd buf ~sqlstate:Sqlstate.cannot_connect_now
      "the database system is shutting down";
  let sid = 1 + Atomic.fetch_and_add srv.conn_seq 1 in
  greet srv fd buf ~sid;
  let rec loop () =
    if Atomic.get srv.drain_flag then
      drain_error srv fd buf ~sqlstate:Sqlstate.admin_shutdown
        "terminating connection: server is draining";
    Failpoint.hit "net.read";
    match Wire.Reader.read_message reader with
    | Ok (Wire.Query sql) ->
      (* a live session that raced the drain flag past the loop head
         still refuses: nothing new is admitted once draining *)
      if Atomic.get srv.drain_flag then
        drain_error srv fd buf ~sqlstate:Sqlstate.admin_shutdown
          "terminating connection: server is draining"
      else begin
        handle_query srv fd buf hist ~sid sql;
        loop ()
      end
    | Ok Wire.Terminate -> ()
    | Ok (Wire.Other (c, _)) ->
      (* a well-framed message we do not implement is recoverable:
         complain and keep the session *)
      bump srv.s_protocol_errors T.c_net_protocol_errors;
      send_error srv fd buf ~sqlstate:Sqlstate.protocol_violation
        (Printf.sprintf "unimplemented frontend message %C" c);
      Wire.ready_for_query buf;
      flush srv fd buf;
      loop ()
    | Ok (Wire.Startup _ | Wire.Ssl_request | Wire.Gss_request
         | Wire.Cancel_request) ->
      (* Reader.read_message never produces these *)
      raise Session_end
    | Error Wire.Eof ->
      (* closed peer, or the drain sequence shut this socket down *)
      ()
    | Error Wire.Timeout ->
      if Atomic.get srv.drain_flag then
        drain_error srv fd buf ~sqlstate:Sqlstate.admin_shutdown
          "terminating connection: server is draining"
      else begin
        bump srv.s_io_timeouts T.c_net_io_timeouts;
        raise Session_end
      end
    | Error ((Wire.Oversized _ | Wire.Malformed _) as e) ->
      (* a broken or hostile byte stream is session-scoped: one FATAL
         08P01 and this socket dies; the server and every other
         session are untouched *)
      bump srv.s_protocol_errors T.c_net_protocol_errors;
      (try
         send_error srv fd buf ~severity:"FATAL"
           ~sqlstate:Sqlstate.protocol_violation (Wire.error_to_string e)
       with Session_end -> ());
      raise Session_end
  in
  loop ()

let serve_connection srv fd =
  Mcore.Mutex.protect srv.llock (fun () -> Hashtbl.replace srv.live fd ());
  (try
     Failpoint.hit "net.accept";
     serve_session srv fd
   with
  | Session_end | Failpoint.Injected _ | Unix.Unix_error _ -> ()
  | _ ->
    (* nothing a session does may kill its worker *)
    ());
  Mcore.Mutex.protect srv.llock (fun () -> Hashtbl.remove srv.live fd);
  close_quiet fd

(* ------------------------------------------------------------------ *)
(* Admission and the accept loop *)

let enqueue srv fd =
  let admitted =
    Mcore.Mutex.protect srv.qlock (fun () ->
        if Queue.length srv.queue >= srv.cfg.queue_depth then false
        else begin
          Queue.push fd srv.queue;
          Mcore.Condition.signal srv.qcond;
          true
        end)
  in
  if not admitted then begin
    (* admission control: refuse before doing any work — the client
       gets a typed 53300 in one round trip instead of a timeout *)
    bump srv.s_shed_queue T.c_net_shed_queue;
    refuse srv fd ~sqlstate:Sqlstate.too_many_connections
      (Printf.sprintf "connection queue full (%d waiting)"
         srv.cfg.queue_depth)
  end

let admit srv fd =
  bump srv.s_connections T.c_net_connections;
  set_deadlines fd srv.cfg.io_timeout_ms;
  if Atomic.get srv.drain_flag then begin
    bump srv.s_shed_drain T.c_net_shed_drain;
    refuse srv fd ~sqlstate:Sqlstate.cannot_connect_now
      "the database system is shutting down"
  end
  else if srv.inline then serve_connection srv fd
  else enqueue srv fd

let accept_loop srv =
  let rec go () =
    if not (Atomic.get srv.drain_flag) then begin
      (* SIGUSR1 handlers only set a flag: the dump itself runs here,
         on the accept domain, where no recorder or registry lock can
         already be held (a handler interrupting its own domain
         mid-dump would deadlock on the non-reentrant ring mutex) *)
      if Atomic.exchange srv.dump_request false then
        ignore (Recorder.dump_to_sink ~reason:"signal" ());
      (match Unix.select [ srv.listener ] [] [] 0.1 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept srv.listener with
        | fd, _addr -> admit srv fd
        | exception
            Unix.Unix_error
              ((EINTR | EAGAIN | EWOULDBLOCK | ECONNABORTED | EBADF), _, _)
          ->
          ())
      | exception Unix.Unix_error ((EINTR | EBADF), _, _) -> ());
      go ()
    end
  in
  go ()

(* Workers block on the queue condition; a release or the drain
   broadcast wakes them.  Once draining, anything still queued is
   refused (57P03) and the worker exits when the queue is dry. *)
let pop srv =
  Mcore.Mutex.lock srv.qlock;
  let rec go () =
    if not (Queue.is_empty srv.queue) then begin
      let fd = Queue.pop srv.queue in
      Mcore.Mutex.unlock srv.qlock;
      Some fd
    end
    else if Atomic.get srv.drain_flag then begin
      Mcore.Mutex.unlock srv.qlock;
      None
    end
    else begin
      Mcore.Condition.wait srv.qcond srv.qlock;
      go ()
    end
  in
  go ()

let worker srv =
  let rec go () =
    match pop srv with
    | None -> ()
    | Some fd ->
      (if Atomic.get srv.drain_flag then begin
         bump srv.s_shed_drain T.c_net_shed_drain;
         refuse srv fd ~sqlstate:Sqlstate.cannot_connect_now
           "the database system is shutting down"
       end
       else serve_connection srv fd);
      go ()
  in
  go ()

(* ------------------------------------------------------------------ *)
(* The admin plane: /metrics, /healthz, /statusz *)

let queue_length srv =
  Mcore.Mutex.protect srv.qlock (fun () -> Queue.length srv.queue)

let json_str = T.json_escape

(* Health is about admission: draining or a full connection queue
   means new work will be refused, so a load balancer should stop
   sending it (503); anything else is 200 with the load numbers. *)
let healthz srv =
  let pool = Session_pool.stats srv.pool in
  let q = queue_length srv in
  let body status =
    Printf.sprintf
      "{\"status\":\"%s\",\"draining\":%b,\"queue\":%d,\"queue_depth\":%d,\"pool_in_use\":%d,\"pool_capacity\":%d,\"in_flight\":%d}"
      status
      (Atomic.get srv.drain_flag)
      q srv.cfg.queue_depth pool.Session_pool.in_use
      pool.Session_pool.capacity (Atomic.get srv.in_flight)
  in
  if Atomic.get srv.drain_flag then Admin.json 503 (body "draining")
  else if q >= srv.cfg.queue_depth then Admin.json 503 (body "saturated")
  else Admin.json 200 (body "ok")

let statusz srv =
  let now = T.now_ns () in
  let sessions = Mcore.Mutex.protect srv.llock (fun () -> Hashtbl.length srv.live) in
  let inflight =
    Mcore.Mutex.protect srv.alock (fun () ->
        Hashtbl.fold
          (fun pid (fp, shape, start_ns, trace) acc ->
            (pid, fp, shape, Int64.sub now start_ns, trace) :: acc)
          srv.active [])
  in
  let inflight = List.sort compare inflight in
  let pool = Session_pool.stats srv.pool in
  let breakers = Server.breakers (Connection.server srv.conn) in
  let s = read_summary srv in
  Printf.sprintf
    "{\"draining\":%b,\"active_sessions\":%d,\"queue\":%d,\"in_flight\":[%s],\"pool\":{\"capacity\":%d,\"in_use\":%d,\"borrows\":%d,\"rejections\":%d,\"waits\":%d,\"peak_in_use\":%d},\"breakers\":[%s],\"summary\":{\"connections\":%d,\"queries\":%d,\"shed_queue\":%d,\"shed_drain\":%d,\"shed_breaker\":%d,\"protocol_errors\":%d,\"io_timeouts\":%d}}"
    (Atomic.get srv.drain_flag) sessions (queue_length srv)
    (String.concat ","
       (List.map
          (fun (pid, fp, shape, elapsed_ns, trace) ->
            Printf.sprintf
              "{\"pid\":%d,\"fingerprint\":\"%s\",\"query\":\"%s\",\"elapsed_ms\":%.3f,\"trace\":\"%s\"}"
              pid (json_str fp) (json_str shape)
              (Int64.to_float elapsed_ns /. 1e6)
              (json_str trace))
          inflight))
    pool.Session_pool.capacity pool.Session_pool.in_use
    pool.Session_pool.borrows pool.Session_pool.rejections
    pool.Session_pool.waits pool.Session_pool.peak_in_use
    (String.concat ","
       (List.map
          (fun b ->
            Printf.sprintf
              "{\"function\":\"%s\",\"state\":\"%s\",\"rejecting\":%b}"
              (json_str (Breaker.name b))
              (Breaker.state_to_string (Breaker.state b))
              (Breaker.rejecting b))
          breakers))
    s.connections s.queries s.shed_queue s.shed_drain s.shed_breaker
    s.protocol_errors s.io_timeouts

let admin_handler srv path =
  match path with
  | "/metrics" ->
    {
      Admin.status = 200;
      content_type = "text/plain; version=0.0.4; charset=utf-8";
      body = Expose.prometheus ();
    }
  | "/healthz" -> healthz srv
  | "/statusz" -> Admin.json 200 (statusz srv)
  | "/" -> Admin.text 200 "aqua admin: /metrics /healthz /statusz\n"
  | _ -> Admin.text 404 "not found\n"

(* gauge names registered by this server (Expose keys by name; a
   restarted server re-registers over its predecessor) *)
let gauge_names =
  [ "net.queue_depth"; "net.in_flight"; "session_pool.in_use" ]

let register_gauges srv =
  Expose.register_gauge
    ~help:"accepted connections waiting for a worker"
    "net.queue_depth"
    (fun () -> queue_length srv);
  Expose.register_gauge
    ~help:"queries between admission and response"
    "net.in_flight"
    (fun () -> Atomic.get srv.in_flight);
  Expose.register_gauge
    ~help:"sessions currently borrowed from the session pool"
    "session_pool.in_use"
    (fun () -> (Session_pool.stats srv.pool).Session_pool.in_use)

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let make ~inline ?(config = default_config) ?snapshot_sink conn =
  let listener = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.setsockopt listener SO_REUSEADDR true;
  let addr =
    let ip =
      try Unix.inet_addr_of_string config.host
      with Failure _ -> Unix.inet_addr_loopback
    in
    Unix.ADDR_INET (ip, config.port)
  in
  (try
     Unix.bind listener addr;
     Unix.listen listener (max 8 (2 * config.queue_depth))
   with e ->
     close_quiet listener;
     raise e);
  let bound_port =
    match Unix.getsockname listener with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> config.port
  in
  (* a client closing mid-write must be an EPIPE, not a process kill *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let srv = {
    conn;
    cfg = config;
    nworkers =
      (if config.workers > 0 then config.workers else max 1 config.pool_size);
    inline;
    pool =
      Session_pool.create ~capacity:config.pool_size ~limits:config.limits
        conn;
    listener;
    bound_port;
    queue = Queue.create ();
    qlock = Mcore.Mutex.create ();
    qcond = Mcore.Condition.create ();
    drain_flag = Atomic.make false;
    in_flight = Atomic.make 0;
    live = Hashtbl.create 16;
    llock = Mcore.Mutex.create ();
    hist_lock = Mcore.Mutex.create ();
    conn_seq = Atomic.make 0;
    active = Hashtbl.create 16;
    alock = Mcore.Mutex.create ();
    trace_seq = Atomic.make 0;
    trace_seed = T.now_ns ();
    dump_request = Atomic.make false;
    admin = ref None;
    s_connections = Atomic.make 0;
    s_queries = Atomic.make 0;
    s_shed_queue = Atomic.make 0;
    s_shed_drain = Atomic.make 0;
    s_shed_breaker = Atomic.make 0;
    s_protocol_errors = Atomic.make 0;
    s_io_timeouts = Atomic.make 0;
    snapshot_sink;
  }
  in
  register_gauges srv;
  srv

(* The admin listener is a background domain, so it exists only on the
   multicore build; it outlives the drain (health flips to 503 the
   moment the flag is set) and stops in the epilogue. *)
let start_admin ?on_admin_listening srv =
  match srv.cfg.admin_port with
  | Some p when Mcore.multicore ->
    let a = Admin.start ~host:srv.cfg.host ~port:p (admin_handler srv) in
    srv.admin := Some a;
    (match on_admin_listening with Some f -> f (Admin.port a) | None -> ())
  | _ -> ()

let stop_admin srv =
  match !(srv.admin) with
  | Some a ->
    Admin.stop a;
    srv.admin := None
  | None -> ()

(* The drain tail, once the accept loop has stopped enqueueing:
   broadcast the queue so parked workers wake and refuse the leftovers,
   wait out in-flight queries (bounded), then shut down idle session
   sockets so workers blocked in a read return.  The caller joins the
   worker domains after this. *)
let drain_tail srv =
  close_quiet srv.listener;
  Mcore.Mutex.protect srv.qlock (fun () ->
      Mcore.Condition.broadcast srv.qcond);
  let deadline =
    Int64.add (T.now_ns ())
      (Int64.of_int (srv.cfg.drain_timeout_ms * 1_000_000))
  in
  while
    Atomic.get srv.in_flight > 0
    && Int64.compare (T.now_ns ()) deadline < 0
  do
    Unix.sleepf 0.002
  done;
  let idle =
    Mcore.Mutex.protect srv.llock (fun () ->
        Hashtbl.fold (fun fd () acc -> fd :: acc) srv.live [])
  in
  List.iter
    (fun fd ->
      try Unix.shutdown fd Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    idle

let drain_epilogue srv =
  (* any fd that slipped into the queue after the workers exited *)
  let leftovers =
    Mcore.Mutex.protect srv.qlock (fun () ->
        let fds = Queue.fold (fun acc fd -> fd :: acc) [] srv.queue in
        Queue.clear srv.queue;
        fds)
  in
  List.iter
    (fun fd ->
      bump srv.s_shed_drain T.c_net_shed_drain;
      refuse srv fd ~sqlstate:Sqlstate.cannot_connect_now
        "the database system is shutting down")
    leftovers;
  (* the flight recorder dump fires on graceful shutdown, not only
     when an error escapes: the operator sees what the server did
     last, every time it stops *)
  ignore (Recorder.dump_to_sink ~reason:"drain" ());
  T.incr T.c_net_drains;
  (match srv.snapshot_sink with
  | Some sink -> sink (Expose.prometheus ())
  | None -> ());
  (* the final exposition above still carries this server's gauges;
     after it they would read a dead server, so they go *)
  List.iter Expose.unregister_gauge gauge_names;
  stop_admin srv

let port t = t.srv.bound_port
let admin_port t = Option.map Admin.port !(t.srv.admin)
let summary t = read_summary t.srv
let draining t = Atomic.get t.srv.drain_flag
let request_drain t = Atomic.set t.srv.drain_flag true
let request_dump t = Atomic.set t.srv.dump_request true

let start ?config ?snapshot_sink ?on_admin_listening conn =
  if not Mcore.multicore then
    failwith "Netserver.start needs the multicore build (OCaml >= 5.0)";
  let srv = make ~inline:false ?config ?snapshot_sink conn in
  let workers =
    List.init srv.nworkers (fun _ -> Mcore.Domains.spawn (fun () -> worker srv))
  in
  let acceptor = Mcore.Domains.spawn (fun () -> accept_loop srv) in
  start_admin ?on_admin_listening srv;
  { srv; domains = acceptor :: workers; drained = false; dlock = Mcore.Mutex.create () }

let drain t =
  let first =
    Mcore.Mutex.protect t.dlock (fun () ->
        if t.drained then false
        else begin
          t.drained <- true;
          true
        end)
  in
  if first then begin
    Atomic.set t.srv.drain_flag true;
    (* the acceptor is the head domain: join it first so nothing new
       enters the queue behind the broadcast *)
    (match t.domains with
    | acceptor :: _ -> Mcore.Domains.join acceptor
    | [] -> ());
    drain_tail t.srv;
    List.iteri
      (fun i d -> if i > 0 then Mcore.Domains.join d)
      t.domains;
    t.domains <- [];
    drain_epilogue t.srv
  end

let run ?config ?snapshot_sink ?on_listening ?on_admin_listening conn =
  let srv = make ~inline:(not Mcore.multicore) ?config ?snapshot_sink conn in
  (match on_listening with Some f -> f srv.bound_port | None -> ());
  let on_signal _ = Atomic.set srv.drain_flag true in
  let old_term = Sys.signal Sys.sigterm (Sys.Signal_handle on_signal) in
  let old_int = Sys.signal Sys.sigint (Sys.Signal_handle on_signal) in
  (* SIGUSR1: flag only — the accept loop performs the dump at its
     next turn, outside any lock the interrupted code might hold *)
  let on_usr1 _ = Atomic.set srv.dump_request true in
  let old_usr1 =
    try Some (Sys.signal Sys.sigusr1 (Sys.Signal_handle on_usr1))
    with Invalid_argument _ | Sys_error _ -> None
  in
  let workers =
    if srv.inline then []
    else
      List.init srv.nworkers (fun _ ->
          Mcore.Domains.spawn (fun () -> worker srv))
  in
  start_admin ?on_admin_listening srv;
  accept_loop srv;
  drain_tail srv;
  List.iter Mcore.Domains.join workers;
  drain_epilogue srv;
  Sys.set_signal Sys.sigterm old_term;
  Sys.set_signal Sys.sigint old_int;
  (match old_usr1 with
  | Some b -> ( try Sys.set_signal Sys.sigusr1 b with Invalid_argument _ | Sys_error _ -> ())
  | None -> ());
  read_summary srv
