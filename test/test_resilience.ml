(* The resilience layer: deterministic backoff, circuit-breaker state
   machine, per-query budgets at the driver boundary, failpoint
   schedules, and the fault-injection differential suite — with any
   single site armed, every workload query must terminate with either
   the oracle result or a stable SQLSTATE-coded error. *)

module Budget = Aqua_resilience.Budget
module Breaker = Aqua_resilience.Breaker
module Failpoint = Aqua_resilience.Failpoint
module Retry = Aqua_resilience.Retry
module Sqlstate = Aqua_resilience.Sqlstate
module Telemetry = Aqua_core.Telemetry
module Connection = Aqua_driver.Connection
module Result_set = Aqua_driver.Result_set
module Sql_error = Aqua_driver.Sql_error
module Server = Aqua_dsp.Server
module Artifact = Aqua_dsp.Artifact
module Engine = Aqua_sqlengine.Engine
module Rowset = Aqua_relational.Rowset
module X = Aqua_xquery.Ast
module Recorder = Aqua_obs.Recorder

let wall_clock () = Int64.of_float (Unix.gettimeofday () *. 1e9)

(* Install a hand-cranked clock for the extent of [f]; breakers and
   budget deadlines read time through Telemetry. *)
let with_fake_clock f =
  let now = ref 0L in
  Telemetry.set_clock (fun () -> !now);
  Fun.protect ~finally:(fun () -> Telemetry.set_clock wall_clock) (fun () ->
      f now)

let with_failpoints = Helpers.with_failpoints

(* ------------------------------------------------------------------ *)
(* Retry                                                              *)

let backoff_deterministic () =
  let p = Retry.default_policy in
  Alcotest.(check (list int64))
    "same policy, same schedule" (Retry.backoff_schedule p)
    (Retry.backoff_schedule p);
  List.iteri
    (fun i d ->
      let attempt = i + 2 in
      let nominal =
        Int64.to_float p.Retry.base_delay_ns
        *. (p.Retry.multiplier ** float_of_int (attempt - 2))
      in
      let nominal = min nominal (Int64.to_float p.Retry.max_delay_ns) in
      let lo = nominal *. (1. -. p.Retry.jitter) -. 1. in
      let hi = nominal *. (1. +. p.Retry.jitter) +. 1. in
      let d = Int64.to_float d in
      if d < lo || d > hi then
        Alcotest.failf "delay %d out of jitter band: %.0f not in [%.0f, %.0f]"
          attempt d lo hi)
    (Retry.backoff_schedule p);
  let reseeded = { p with Retry.seed = p.Retry.seed + 1 } in
  if Retry.backoff_schedule p = Retry.backoff_schedule reseeded then
    Alcotest.fail "different seeds produced identical jitter"

let retry_heals_transient () =
  let slept = ref [] in
  let sleep d = slept := d :: !slept in
  let attempts = ref 0 in
  let result =
    Retry.with_retry ~sleep (fun () ->
        incr attempts;
        if !attempts < 3 then
          raise (Failpoint.Injected { site = "t"; hit = !attempts })
        else "ok")
  in
  Alcotest.(check string) "healed" "ok" result;
  Alcotest.(check int) "attempts" 3 !attempts;
  Alcotest.(check int) "slept twice" 2 (List.length !slept)

let retry_gives_up_and_skips_fatal () =
  let attempts = ref 0 in
  (try
     Retry.with_retry
       ~sleep:(fun _ -> ())
       (fun () ->
         incr attempts;
         raise (Failpoint.Injected { site = "t"; hit = !attempts }))
   with Failpoint.Injected _ -> ());
  Alcotest.(check int) "transient: all attempts used"
    Retry.default_policy.Retry.max_attempts !attempts;
  attempts := 0;
  (try
     Retry.with_retry
       ~sleep:(fun _ -> ())
       (fun () ->
         incr attempts;
         failwith "deterministic bug")
   with Failure _ -> ());
  Alcotest.(check int) "fatal: single attempt" 1 !attempts

(* ------------------------------------------------------------------ *)
(* Circuit breaker                                                    *)

let breaker_state_machine () =
  with_fake_clock @@ fun now ->
  let config = { Breaker.failure_threshold = 2; cooldown_ns = 1_000L } in
  let b = Breaker.create ~config "svc:fn" in
  let boom () = Breaker.call b (fun () -> failwith "backend down") in
  let ok () = Breaker.call b (fun () -> 42) in
  Alcotest.(check bool) "starts closed" true (Breaker.state b = Breaker.Closed);
  (try ignore (boom ()) with Failure _ -> ());
  Alcotest.(check bool) "below threshold: still closed" true
    (Breaker.state b = Breaker.Closed);
  (try ignore (boom ()) with Failure _ -> ());
  Alcotest.(check bool) "tripped open" true (Breaker.state b = Breaker.Open);
  Alcotest.(check int) "one trip" 1 (Breaker.trips b);
  (match ok () with
   | exception Breaker.Open_circuit { name } ->
     Alcotest.(check string) "rejection names the function" "svc:fn" name
   | _ -> Alcotest.fail "open breaker admitted a call");
  Alcotest.(check int) "rejection counted" 1 (Breaker.rejections b);
  now := 2_000L;
  (* past cooldown: one trial call; failure re-opens *)
  (try ignore (boom ()) with Failure _ -> ());
  Alcotest.(check bool) "trial failure re-opened" true
    (Breaker.state b = Breaker.Open);
  Alcotest.(check int) "second trip" 2 (Breaker.trips b);
  now := 4_000L;
  Alcotest.(check int) "trial success passes through" 42 (ok ());
  Alcotest.(check bool) "recovered to closed" true
    (Breaker.state b = Breaker.Closed);
  Alcotest.(check int) "recovery counted" 1 (Breaker.recoveries b)

let breaker_ignores_budget_cancellations () =
  with_fake_clock @@ fun _now ->
  let config = { Breaker.failure_threshold = 1; cooldown_ns = 1_000L } in
  let b = Breaker.create ~config "svc:fn" in
  let count_failure = function Budget.Exceeded _ -> false | _ -> true in
  (try
     Breaker.call ~count_failure b (fun () ->
         raise (Budget.Exceeded { resource = Budget.Deadline; limit = 1L }))
   with Budget.Exceeded _ -> ());
  Alcotest.(check bool) "cancellation did not trip" true
    (Breaker.state b = Breaker.Closed)

(* A server-level view: persistent faults trip the per-function
   breaker, whose rejections surface as SQLSTATE 08004. *)
let breaker_trips_at_server () =
  with_fake_clock @@ fun _now ->
  let app = Helpers.demo_app () in
  let srv =
    Server.create ~retry:Retry.no_retry
      ~breaker:{ Breaker.failure_threshold = 2; cooldown_ns = Int64.max_int }
      app
  in
  let env = Aqua_translator.Semantic.env_of_application app in
  let t =
    Aqua_translator.Translator.translate env "SELECT CUSTOMERNAME FROM CUSTOMERS"
  in
  with_failpoints "dsp.invoke=fail" @@ fun () ->
  let attempt () =
    match Server.execute srv t.Aqua_translator.Translator.xquery with
    | exception e -> e
    | _ -> Alcotest.fail "armed failpoint did not fire"
  in
  (match attempt () with
   | Failpoint.Injected _ -> ()
   | e -> Alcotest.failf "expected injected fault, got %s" (Printexc.to_string e));
  ignore (attempt ());
  (match attempt () with
   | Breaker.Open_circuit _ as e ->
     Alcotest.(check string) "breaker rejection code" "08004"
       (Sql_error.classify e).Sqlstate.sqlstate
   | e -> Alcotest.failf "expected open circuit, got %s" (Printexc.to_string e));
  match Server.breakers srv with
  | [ b ] ->
    Alcotest.(check int) "tripped once" 1 (Breaker.trips b);
    Alcotest.(check bool) "rejections counted" true (Breaker.rejections b >= 1)
  | bs -> Alcotest.failf "expected one breaker, got %d" (List.length bs)

(* ------------------------------------------------------------------ *)
(* Budgets at the driver boundary                                     *)

let sqlstate_of_query conn sql =
  match Connection.execute_query conn sql with
  | exception Sqlstate.Error e -> e.Sqlstate.sqlstate
  | _ -> Alcotest.fail "expected the governor to trip"

let row_governor () =
  let conn =
    Connection.connect
      ~limits:(Budget.limits ~max_rows:2 ())
      (Helpers.demo_app ())
  in
  Alcotest.(check string) "row limit code" "53400"
    (sqlstate_of_query conn "SELECT * FROM CUSTOMERS");
  Connection.set_limits conn Budget.no_limits;
  let rs = Connection.execute_query conn "SELECT * FROM CUSTOMERS" in
  Alcotest.(check bool) "no limits: runs" true
    (List.length (Result_set.to_rowset rs).Rowset.rows > 2)

let fuel_governor () =
  let conn =
    Connection.connect
      ~limits:(Budget.limits ~max_fuel:10 ())
      (Helpers.demo_app ())
  in
  Alcotest.(check string) "fuel limit code" "53000"
    (sqlstate_of_query conn "SELECT * FROM CUSTOMERS")

let deadline_governor () =
  let conn =
    Connection.connect
      ~limits:(Budget.limits ~timeout_ms:0 ())
      (Helpers.demo_app ())
  in
  Alcotest.(check string) "deadline code" "57014"
    (sqlstate_of_query conn "SELECT * FROM CUSTOMERS")

let position_reaches_driver_message () =
  let conn = Connection.connect (Helpers.demo_app ()) in
  match Connection.execute_query conn "SELECT\n  BOGUS FROM CUSTOMERS" with
  | exception Sqlstate.Error e ->
    Alcotest.(check string) "unknown column code" "42703" e.Sqlstate.sqlstate;
    if not (Helpers.contains ~needle:"line 2" e.Sqlstate.message) then
      Alcotest.failf "position missing from message: %s" e.Sqlstate.message
  | _ -> Alcotest.fail "bad SQL accepted"

(* ------------------------------------------------------------------ *)
(* Failpoint schedules                                                *)

let failpoint_schedules () =
  let fired name =
    match Failpoint.hit name with
    | exception Failpoint.Injected _ -> true
    | () -> false
  in
  with_failpoints "a=fail(2);b=at(3);c=delay(1ms)" (fun () ->
      Alcotest.(check (list bool))
        "fail(2): first two hits fail" [ true; true; false; false ]
        (List.init 4 (fun _ -> fired "a"));
      Alcotest.(check (list bool))
        "at(3): exactly the third hit fails" [ false; false; true; false ]
        (List.init 4 (fun _ -> fired "b"));
      Alcotest.(check bool) "delay passes" false (fired "c");
      Alcotest.(check bool) "unarmed site passes" false (fired "dsp.invoke"));
  Failpoint.arm "a=fail";
  Failpoint.disarm ();
  Alcotest.(check bool) "disarmed site passes" false (fired "a");
  (match Failpoint.arm "a=bogus()" with
   | exception Failpoint.Spec_error _ -> Failpoint.disarm ()
   | () ->
     Failpoint.disarm ();
     Alcotest.fail "malformed spec accepted");
  (* flaky(p) is deterministic for a fixed seed *)
  let sample seed =
    with_failpoints ~seed "a=flaky(0.5)" (fun () ->
        List.init 20 (fun _ -> fired "a"))
  in
  Alcotest.(check (list bool)) "flaky: seeded determinism" (sample 7) (sample 7);
  if sample 7 = sample 8 then Alcotest.fail "flaky ignored the seed"

(* ------------------------------------------------------------------ *)
(* Fault-injection differential suite                                 *)

let workload =
  [ "SELECT CUSTOMERNAME, CITY FROM CUSTOMERS WHERE TIER = 1";
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C INNER JOIN PAYMENTS P \
     ON C.CUSTOMERID = P.CUSTID";
    "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY ORDER BY CITY" ]

(* Every catalogued site, under a heal-after-one schedule and a
   permanent-failure schedule: each query must finish fast and either
   match the oracle or raise a coded error.  No hangs, no uncoded
   exceptions. *)
let fault_differential () =
  let app = Helpers.demo_app () in
  let oracle =
    List.map
      (fun sql -> Engine.execute_sql (Engine.env_of_application app) sql)
      workload
  in
  let known_codes = [ "08006"; "08004"; "08P01"; "XX000" ] in
  List.iter
    (fun site ->
      List.iter
        (fun schedule ->
          let conn =
            Connection.connect
              ~limits:(Budget.limits ~timeout_ms:10_000 ())
              app
          in
          with_failpoints (site ^ "=" ^ schedule) @@ fun () ->
          List.iter2
            (fun sql expected ->
              match Connection.execute_query conn sql with
              | rs -> (
                match
                  Rowset.diff_summary expected (Result_set.to_rowset rs)
                with
                | None -> ()
                | Some msg ->
                  Alcotest.failf "%s=%s: wrong rows on %s: %s" site schedule
                    sql msg)
              | exception Sqlstate.Error e ->
                if not (List.mem e.Sqlstate.sqlstate known_codes) then
                  Alcotest.failf "%s=%s: unstable code %s on %s" site schedule
                    e.Sqlstate.sqlstate sql
              | exception e ->
                Alcotest.failf "%s=%s: uncoded exception %s on %s" site
                  schedule (Printexc.to_string e) sql)
            workload oracle)
        [ "fail(1)"; "fail" ])
    Failpoint.catalog;
  (* the engine-side site is exercised through the oracle path *)
  with_failpoints "engine.scan=fail" @@ fun () ->
  match Engine.execute_sql (Engine.env_of_application app) (List.hd workload) with
  | exception Failpoint.Injected { site; _ } ->
    Alcotest.(check string) "engine site" "engine.scan" site
  | _ -> Alcotest.fail "engine.scan did not fire"

(* Retry heals a single transient backend fault invisibly: same rows
   as the oracle, one fault and one retry in the counters. *)
let retry_heals_end_to_end () =
  let app = Helpers.demo_app () in
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) @@ fun () ->
  with_failpoints "dsp.invoke=fail(1)" @@ fun () ->
  Helpers.assert_differential app (List.hd workload);
  Alcotest.(check int) "one fault" 1 (Telemetry.value Telemetry.c_faults_injected);
  Alcotest.(check bool) "at least one retry" true
    (Telemetry.value Telemetry.c_retry_attempts >= 1)

(* Graceful degradation: a fault inside the optimized evaluator
   (xqeval.hashjoin only exists in optimized plans) falls back to the
   naive pipeline and still produces the oracle rows. *)
let fallback_to_unoptimized () =
  let app = Helpers.demo_app () in
  let sql =
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C INNER JOIN PAYMENTS P \
     ON C.CUSTOMERID = P.CUSTID"
  in
  let oracle = Engine.execute_sql (Engine.env_of_application app) sql in
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) @@ fun () ->
  with_failpoints "xqeval.hashjoin=fail" @@ fun () ->
  let conn = Connection.connect ~optimize:true app in
  let rs = Connection.execute_query conn sql in
  (match Rowset.diff_summary oracle (Result_set.to_rowset rs) with
   | None -> ()
   | Some msg -> Alcotest.failf "fallback produced wrong rows: %s" msg);
  Alcotest.(check bool) "fallback counted" true
    (Telemetry.value Telemetry.c_fallbacks_unoptimized >= 1)

(* A query error is the query's answer, not an engine fault: it runs
   once, on the compiled engine, and surfaces as 38000. *)
let query_errors_run_once () =
  let app = Helpers.demo_app () in
  let conn = Connection.connect app in
  Recorder.clear ();
  Fun.protect ~finally:Recorder.clear @@ fun () ->
  List.iter
    (fun sql ->
      let code, fallbacks =
        Helpers.counting_fallbacks (fun () ->
            match Connection.execute_query conn sql with
            | _ -> Alcotest.failf "expected a query error: %s" sql
            | exception Sqlstate.Error e -> e.Sqlstate.sqlstate)
      in
      Alcotest.(check string) (sql ^ ": SQLSTATE") "38000" code;
      Alcotest.(check int) (sql ^ ": no interpreter rerun") 0 fallbacks;
      match Recorder.last_error () with
      | Some ev ->
        Alcotest.(check string) (sql ^ ": recorded plan") "optimized"
          ev.Recorder.plan
      | None -> Alcotest.failf "%s: failure not recorded" sql)
    [ "SELECT CUSTOMERID / 0 FROM CUSTOMERS";
      "SELECT CAST(CUSTOMERNAME AS INTEGER) FROM CUSTOMERS";
      "SELECT (SELECT PAYMENT FROM PAYMENTS) FROM CUSTOMERS";
      (* a cast error raised by code both engines share *)
      "SELECT EXTRACT(YEAR FROM CUSTOMERNAME) FROM CUSTOMERS" ];
  (* the same holds below the driver: comparing values that cannot be
     compared fails once, on the compiled engine *)
  let srv = Server.create app in
  List.iter
    (fun src ->
      let raised, fallbacks =
        Helpers.counting_fallbacks (fun () ->
            match Server.execute_text srv src with
            | _ -> Alcotest.failf "expected a query error: %s" src
            | exception e -> e)
      in
      Alcotest.(check bool) (src ^ ": a query error") false
        (Server.engine_fault raised);
      Alcotest.(check int) (src ^ ": no interpreter rerun") 0 fallbacks)
    [ "for $d in (xs:date(\"2020-01-01\"), 1) order by $d return $d";
      "xs:date(\"2020-01-01\") lt 1" ]

(* A prepared statement degrades like an ad-hoc one: a compiled-engine
   fault at every batch reruns it on the interpreter. *)
let prepared_statement_degrades () =
  let app = Helpers.demo_app () in
  let oracle =
    Engine.execute_sql (Engine.env_of_application app)
      "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = 2"
  in
  let conn = Connection.connect app in
  let stmt =
    Connection.Prepared.prepare conn
      "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = ?"
  in
  Connection.Prepared.set_int stmt 1 2;
  let rs, fallbacks =
    with_failpoints "xqeval.batch=fail" @@ fun () ->
    Helpers.counting_fallbacks (fun () ->
        Connection.Prepared.execute_query stmt)
  in
  (match Rowset.diff_summary oracle (Result_set.to_rowset rs) with
   | None -> ()
   | Some msg -> Alcotest.failf "prepared fallback wrong rows: %s" msg);
  Alcotest.(check int) "one interpreter rerun" 1 fallbacks

(* The one degradation decision, and the total driver taxonomy: an
   exception outside it still ends in a typed SQLSTATE. *)
let engine_fault_classification () =
  List.iter
    (fun (what, e, fault) ->
      Alcotest.(check bool) what fault (Server.engine_fault e))
    [ ("dynamic error", Aqua_xqeval.Error.Dynamic_error "division by zero",
       false);
      ("cast error", Aqua_xml.Atomic.Cast_error "not a date", false);
      ("type error", Aqua_relational.Value.Type_error "bad cell", false);
      ("typed SQLSTATE",
       Sqlstate.Error
         (Sqlstate.make ~sqlstate:Sqlstate.statement_too_complex
            ~condition:"call depth exceeded" "cycle"),
       false);
      ("budget trip",
       Budget.Exceeded { Budget.resource = Budget.Rows; limit = 1L }, false);
      ("open circuit", Breaker.Open_circuit { name = "P/T:T" }, false);
      ("out of memory", Out_of_memory, false);
      ("backend fault", Failpoint.Injected { site = "dsp.invoke"; hit = 1 },
       false);
      ("decode fault", Failpoint.Injected { site = "driver.decode"; hit = 1 },
       false);
      ("engine batch fault",
       Failpoint.Injected { site = "xqeval.batch"; hit = 1 }, true);
      ("engine hash-join fault",
       Failpoint.Injected { site = "xqeval.hashjoin"; hit = 1 }, true);
      ("index out of bounds", Invalid_argument "index out of bounds", true);
      ("not found", Not_found, true);
      ("stack overflow", Stack_overflow, true);
      ("failure", Failure "unreachable", true) ];
  Alcotest.(check bool) "the driver's name for it" true
    (Sql_error.degradable Not_found
    && not (Sql_error.degradable (Aqua_xqeval.Error.Dynamic_error "x")));
  (match Sql_error.wrap (fun () -> raise Not_found) with
   | () -> Alcotest.fail "wrap returned"
   | exception Sqlstate.Error e ->
     Alcotest.(check string) "code" "XX000" e.Sqlstate.sqlstate;
     Alcotest.(check string) "condition" "engine fault" e.Sqlstate.condition;
     Alcotest.(check string) "message" "Not_found" e.Sqlstate.message);
  List.iter
    (fun e ->
      let s = Sql_error.classify e in
      Alcotest.(check string) (Printexc.to_string e) "38000"
        s.Sqlstate.sqlstate;
      Alcotest.(check string) "condition" "dynamic evaluation error"
        s.Sqlstate.condition)
    [ Aqua_xml.Atomic.Cast_error "not a date";
      Aqua_relational.Value.Type_error "bad cell" ]

(* An engine fault at the root of a data-service call is not retried
   on the engine that raised it: a logical view whose compiled body
   faults at its first batch reruns once on the interpreter, and the
   retry counter does not move. *)
let engine_faults_are_not_retried () =
  let app = Helpers.demo_app () in
  let customers =
    { X.prefix = "c";
      namespace = "ld:TestDataServices/CUSTOMERS";
      location = "ld:TestDataServices/schemas/CUSTOMERS.xsd" }
  in
  ignore
    (Artifact.add_logical_service app ~project:"Views" ~name:"ALL_CUSTOMERS"
       [ { Artifact.fn_name = "ALL_CUSTOMERS";
           params = [];
           element_name = "CUSTOMERS";
           columns = [];
           body =
             Artifact.Logical
               { imports = [ customers ];
                 body =
                   X.Flwor
                     { clauses = [ X.For { var = "r"; source = X.call "c:CUSTOMERS" [] } ];
                       return = X.var "r" } } } ]);
  (* a fresh server each time: a warm scan cache would serve the view *)
  let call () =
    Server.call_function (Server.create app) ~path:"Views"
      ~name:"ALL_CUSTOMERS" ~fn:"ALL_CUSTOMERS" []
  in
  let want = List.length (call ()) in
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) @@ fun () ->
  let rows, fallbacks =
    with_failpoints "xqeval.batch=at(1)" @@ fun () ->
    Helpers.counting_fallbacks (fun () -> List.length (call ()))
  in
  Alcotest.(check int) "all rows" want rows;
  Alcotest.(check int) "the engine faulted" 1
    (Telemetry.value Telemetry.c_faults_injected);
  Alcotest.(check int) "one interpreter rerun" 1 fallbacks;
  Alcotest.(check int) "no retry" 0
    (Telemetry.value Telemetry.c_retry_attempts)

(* ------------------------------------------------------------------ *)
(* Two-service cycle (satellite of the call-depth fix)                *)

let two_service_cycle () =
  let app = Artifact.application "CycleApp" in
  let import name =
    [ { X.prefix = "s";
        namespace = "ld:P/" ^ name;
        location = "ld:P/schemas/" ^ name ^ ".xsd" } ]
  in
  let service name calls =
    ignore
      (Artifact.add_logical_service app ~project:"P" ~name
         [ { Artifact.fn_name = name;
             params = [];
             element_name = name;
             columns = [];
             body = Artifact.Logical { imports = import calls; body = X.call ("s:" ^ calls) [] };
           } ])
  in
  service "PING" "PONG";
  service "PONG" "PING";
  let srv = Server.create app in
  let q =
    { X.prolog = { X.imports = import "PING" }; body = X.call "s:PING" [] }
  in
  match Server.execute srv q with
  | exception Sqlstate.Error e ->
    Alcotest.(check string) "cycle code" "54001" e.Sqlstate.sqlstate;
    if
      not
        (Helpers.contains ~needle:"P/PING:PING -> P/PONG:PONG"
           e.Sqlstate.message)
    then Alcotest.failf "chain missing both services: %s" e.Sqlstate.message
  | _ -> Alcotest.fail "two-service cycle not caught"

(* ------------------------------------------------------------------ *)
(* LRU hardening and cache invalidation                               *)

let lru_stamp_wraparound () =
  let lru = Connection.Lru.create ~stamp_limit:6 ~enabled:true 3 in
  Connection.Lru.add lru "a" 1;
  Connection.Lru.add lru "b" 2;
  Connection.Lru.add lru "c" 3;
  (* many touches would overflow a 6-stamp clock without renumbering *)
  for _ = 1 to 50 do
    ignore (Connection.Lru.find lru "b");
    ignore (Connection.Lru.find lru "c")
  done;
  Alcotest.(check bool) "clock stays bounded" true
    (Connection.Lru.clock lru <= 7);
  (* "a" is least recent; adding a fourth key must evict it *)
  Connection.Lru.add lru "d" 4;
  Alcotest.(check (option int)) "lru evicted after renumbering" None
    (Connection.Lru.find lru "a");
  Alcotest.(check (option int)) "recent key survives" (Some 3)
    (Connection.Lru.find lru "c")

let cache_invalidation_on_metadata_change () =
  let app = Helpers.demo_app () in
  let conn = Connection.connect app in
  let sql = "SELECT CUSTOMERNAME FROM CUSTOMERS" in
  ignore (Connection.translate conn sql);
  Alcotest.(check int) "cached" 1 (Connection.translation_cache_size conn);
  Telemetry.set_enabled true;
  Telemetry.reset ();
  Fun.protect ~finally:(fun () -> Telemetry.set_enabled false) @@ fun () ->
  ignore (Connection.translate conn sql);
  Alcotest.(check int) "second translate is a hit" 1
    (Telemetry.value Telemetry.c_cache_hits);
  (* a metadata change bumps the application revision; the next use
     must flush and re-translate *)
  let table =
    Aqua_relational.Table.create "FRESH"
      [ { Aqua_relational.Schema.name = "ID";
          ty = Aqua_relational.Sql_type.Integer;
          nullable = false } ]
  in
  ignore (Artifact.import_physical_table app ~project:"Demo" table);
  ignore (Connection.translate conn sql);
  Alcotest.(check int) "stale cache flushed: translate missed" 1
    (Telemetry.value Telemetry.c_cache_misses);
  Alcotest.(check int) "re-cached" 1 (Connection.translation_cache_size conn);
  (* the new table is immediately visible through the same connection *)
  ignore (Connection.translate conn "SELECT ID FROM FRESH");
  Connection.invalidate conn;
  Alcotest.(check int) "explicit invalidate empties the cache" 0
    (Connection.translation_cache_size conn)

(* ------------------------------------------------------------------ *)
(* SQLSTATE taxonomy: the full code table, pinned.  Every boundary in
   the repo (driver, wire server, governors) reports through these
   constants, so a silent renumber would skew clients keying on the
   class prefix — this test makes any drift a loud diff. *)

let sqlstate_taxonomy () =
  let table =
    [ (Sqlstate.connection_failure, "08006");
      (Sqlstate.connection_rejected, "08004");
      (Sqlstate.protocol_violation, "08P01");
      (Sqlstate.cardinality_violation, "21000");
      (Sqlstate.data_exception, "22000");
      (Sqlstate.external_routine_exception, "38000");
      (Sqlstate.syntax_error, "42601");
      (Sqlstate.undefined_table, "42P01");
      (Sqlstate.undefined_column, "42703");
      (Sqlstate.ambiguous_column, "42702");
      (Sqlstate.grouping_error, "42803");
      (Sqlstate.datatype_mismatch, "42804");
      (Sqlstate.feature_not_supported, "0A000");
      (Sqlstate.insufficient_resources, "53000");
      (Sqlstate.too_many_connections, "53300");
      (Sqlstate.configured_limit_exceeded, "53400");
      (Sqlstate.statement_too_complex, "54001");
      (Sqlstate.query_canceled, "57014");
      (Sqlstate.admin_shutdown, "57P01");
      (Sqlstate.cannot_connect_now, "57P03");
      (Sqlstate.internal_error, "XX000") ]
  in
  List.iter
    (fun (actual, expected) ->
      Alcotest.(check string) ("code " ^ expected) expected actual)
    table;
  (* all codes are distinct: two conditions must never alias *)
  let codes = List.map fst table in
  Alcotest.(check int) "codes are unique" (List.length codes)
    (List.length (List.sort_uniq compare codes));
  (* every code is a well-formed 5-char SQLSTATE over [0-9A-Z] *)
  List.iter
    (fun c ->
      Alcotest.(check int) ("length of " ^ c) 5 (String.length c);
      String.iter
        (fun ch ->
          Alcotest.(check bool)
            (Printf.sprintf "char %c of %s" ch c)
            true
            ((ch >= '0' && ch <= '9') || (ch >= 'A' && ch <= 'Z')))
        c)
    codes;
  (* the operator-intervention class used by graceful drain: 57P01 for
     live sessions, 57P03 for queued-but-unserved connections *)
  Alcotest.(check string) "drain classes agree" "57"
    (String.sub Sqlstate.admin_shutdown 0 2);
  Alcotest.(check string) "drain classes agree" "57"
    (String.sub Sqlstate.cannot_connect_now 0 2);
  let e =
    Sqlstate.make ~sqlstate:Sqlstate.admin_shutdown
      ~condition:"admin shutdown" "server is draining"
  in
  Alcotest.(check string) "to_string format"
    "[57P01] admin shutdown: server is draining" (Sqlstate.to_string e)

(* ------------------------------------------------------------------ *)
(* CI fault-smoke entry: when AQUA_FAILPOINTS is set in the
   environment, run the differential workload under that schedule. *)

let env_armed_smoke () =
  match Sys.getenv_opt "AQUA_FAILPOINTS" with
  | None | Some "" -> ()
  | Some _ ->
    let armed = Failpoint.arm_from_env () in
    Fun.protect ~finally:Failpoint.disarm @@ fun () ->
    Alcotest.(check bool) "armed from environment" true armed;
    let app = Helpers.demo_app () in
    let conn =
      Connection.connect ~limits:(Budget.limits ~timeout_ms:10_000 ()) app
    in
    List.iter
      (fun sql ->
        match Connection.execute_query conn sql with
        | _ -> ()
        | exception Sqlstate.Error _ -> ())
      workload

let suite =
  ( "resilience",
    [ Helpers.case "backoff schedule is deterministic" backoff_deterministic;
      Helpers.case "retry heals transient faults" retry_heals_transient;
      Helpers.case "retry gives up / skips fatal" retry_gives_up_and_skips_fatal;
      Helpers.case "breaker state machine" breaker_state_machine;
      Helpers.case "breaker ignores budget cancellations"
        breaker_ignores_budget_cancellations;
      Helpers.case "breaker trips at the server" breaker_trips_at_server;
      Helpers.case "row governor (53400)" row_governor;
      Helpers.case "fuel governor (53000)" fuel_governor;
      Helpers.case "deadline governor (57014)" deadline_governor;
      Helpers.case "error position reaches the driver" position_reaches_driver_message;
      Helpers.case "failpoint schedules" failpoint_schedules;
      Helpers.case "fault-injection differential" fault_differential;
      Helpers.case "retry heals end to end" retry_heals_end_to_end;
      Helpers.case "fallback to unoptimized plan" fallback_to_unoptimized;
      Helpers.case "query errors run once" query_errors_run_once;
      Helpers.case "prepared statement degrades" prepared_statement_degrades;
      Helpers.case "engine-fault classification" engine_fault_classification;
      Helpers.case "engine faults are not retried" engine_faults_are_not_retried;
      Helpers.case "two-service cycle chain" two_service_cycle;
      Helpers.case "lru stamp wraparound" lru_stamp_wraparound;
      Helpers.case "sqlstate taxonomy is pinned" sqlstate_taxonomy;
      Helpers.case "cache invalidation on metadata change"
        cache_invalidation_on_metadata_change;
      Helpers.case "env-armed fault smoke" env_armed_smoke ] )
