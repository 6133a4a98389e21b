(* Named fault-injection sites.  Each instrumented layer calls
   [hit "site.name"] at its failure-prone boundary; a schedule armed
   from a spec string (or the AQUA_FAILPOINTS environment variable)
   decides, deterministically, whether that hit raises an injected
   fault, injects latency, or passes through.  Disarmed, [hit] is a
   single ref read — the sites stay in the hot paths permanently. *)

module Telemetry = Aqua_core.Telemetry
module Mcore = Aqua_multicore.Mcore

(* The documented site catalog.  [hit] accepts any name (so libraries
   can add sites without touching this list), but the differential
   fault suite iterates this catalog and DESIGN.md §9 documents it. *)
let catalog =
  [
    "driver.translate";  (* SQL -> XQuery translation, driver side *)
    "dsp.invoke";  (* a data-service function invocation *)
    "xqeval.clause";  (* applying one FLWOR pipeline clause *)
    "xqeval.hashjoin";  (* the optimizer-introduced hash-join clause *)
    "xqeval.batch";  (* one batch emitted by the vectorized pipeline *)
    "engine.scan";  (* baseline SQL engine base-table scan *)
    "driver.decode";  (* result-set wire decoding, driver side *)
    "net.accept";  (* a freshly accepted network connection *)
    "net.read";  (* reading one wire frame from a session socket *)
    "net.write";  (* flushing a wire response to a session socket *)
    "net.session";  (* admitting one Query message on a session *)
  ]

type action =
  | Fail of int option  (** fail the first [n] hits; [None] = every hit *)
  | Fail_at of int  (** fail exactly on the [n]-th hit (1-based) *)
  | Delay of int64  (** inject this much latency (ns), then pass *)
  | Flaky of float  (** fail each hit with this seeded probability *)

type site = { action : action; mutable hits : int }

exception Injected of { site : string; hit : int }

exception Spec_error of string

let armed = ref false
let global_seed = ref 0
let sites : (string, site) Hashtbl.t = Hashtbl.create 8

(* Guards [sites] and each site's hit count.  The armed flag itself
   stays a plain ref: arming/disarming happens while the system is
   quiescent (test setup), and the fast path must remain one read. *)
let lock = Mcore.Mutex.create ()

let disarm () =
  Mcore.Mutex.protect lock @@ fun () ->
  armed := false;
  Hashtbl.reset sites

(* Deterministic per-hit randomness for [Flaky]: splitmix64-style
   mixing of (seed, site name, hit index) to a float in [0, 1). *)
let mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let hit_unit name n =
  let h =
    mix64
      (Int64.add
         (Int64.of_int ((!global_seed * 1_000_003) + n))
         (Int64.of_int (Hashtbl.hash name)))
  in
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.0

let busy_wait ns =
  (* real latency so deadlines observe it; sleepf releases the CPU *)
  Unix.sleepf (Int64.to_float ns /. 1e9)

let fire name n =
  Telemetry.incr Telemetry.c_faults_injected;
  Telemetry.trace_event "fault"
    [ ("site", name); ("hit", string_of_int n) ];
  raise (Injected { site = name; hit = n })

(* What one hit should do, decided under the lock; the side effect
   (raise / sleep) happens outside it so an injected delay never holds
   the lock against other domains' sites. *)
type decision = Pass | Fire of int | Sleep of int64

let slow_hit name =
  let d =
    Mcore.Mutex.protect lock @@ fun () ->
    match Hashtbl.find_opt sites name with
    | None -> Pass
    | Some s -> (
      s.hits <- s.hits + 1;
      let n = s.hits in
      match s.action with
      | Fail None -> Fire n
      | Fail (Some k) -> if n <= k then Fire n else Pass
      | Fail_at k -> if n = k then Fire n else Pass
      | Delay ns -> Sleep ns
      | Flaky p -> if hit_unit name n < p then Fire n else Pass)
  in
  match d with
  | Pass -> ()
  | Fire n -> fire name n
  | Sleep ns -> busy_wait ns

let hit name = if !armed then slow_hit name

(* Spec parsing: "site=action;site=action;...".  Actions:
     fail          fail every hit
     fail(N)       fail the first N hits
     at(N)         fail exactly on the N-th hit
     delay(50ms)   inject latency (ns/us/ms/s suffixes)
     flaky(0.3)    seeded per-hit failure probability *)

let spec_error fmt = Format.kasprintf (fun m -> raise (Spec_error m)) fmt

let parse_duration_ns s =
  let num, unit_ =
    let i = ref 0 in
    let n = String.length s in
    while
      !i < n && (match s.[!i] with '0' .. '9' | '.' -> true | _ -> false)
    do
      incr i
    done;
    (String.sub s 0 !i, String.sub s !i (n - !i))
  in
  match (float_of_string_opt num, unit_) with
  | Some f, "ns" -> Int64.of_float f
  | Some f, "us" -> Int64.of_float (f *. 1e3)
  | Some f, "ms" -> Int64.of_float (f *. 1e6)
  | Some f, "s" -> Int64.of_float (f *. 1e9)
  | _ -> spec_error "bad duration %S (want e.g. 50ms, 2s, 100us)" s

let parse_action s =
  let call_arg name =
    let prefix = name ^ "(" in
    let pn = String.length prefix in
    if
      String.length s > pn + 1
      && String.sub s 0 pn = prefix
      && s.[String.length s - 1] = ')'
    then Some (String.sub s pn (String.length s - pn - 1))
    else None
  in
  if s = "fail" then Fail None
  else
    match call_arg "fail" with
    | Some arg -> (
      match int_of_string_opt arg with
      | Some n when n > 0 -> Fail (Some n)
      | _ -> spec_error "bad count in fail(%s)" arg)
    | None -> (
      match call_arg "at" with
      | Some arg -> (
        match int_of_string_opt arg with
        | Some n when n > 0 -> Fail_at n
        | _ -> spec_error "bad index in at(%s)" arg)
      | None -> (
        match call_arg "delay" with
        | Some arg -> Delay (parse_duration_ns arg)
        | None -> (
          match call_arg "flaky" with
          | Some arg -> (
            match float_of_string_opt arg with
            | Some p when p >= 0.0 && p <= 1.0 -> Flaky p
            | _ -> spec_error "bad probability in flaky(%s)" arg)
          | None -> spec_error "unknown failpoint action %S" s)))

let arm ?(seed = 0) spec =
  disarm ();
  Mcore.Mutex.protect lock @@ fun () ->
  global_seed := seed;
  String.split_on_char ';' spec
  |> List.iter (fun entry ->
         let entry = String.trim entry in
         if entry <> "" then
           match String.index_opt entry '=' with
           | None -> spec_error "failpoint entry %S is not site=action" entry
           | Some i ->
             let name = String.trim (String.sub entry 0 i) in
             let action =
               parse_action
                 (String.trim
                    (String.sub entry (i + 1) (String.length entry - i - 1)))
             in
             if name = "" then spec_error "empty site name in %S" entry;
             Hashtbl.replace sites name { action; hits = 0 });
  armed := Hashtbl.length sites > 0

let arm_from_env () =
  match Sys.getenv_opt "AQUA_FAILPOINTS" with
  | None | Some "" -> false
  | Some spec ->
    let seed =
      match Sys.getenv_opt "AQUA_FAILPOINTS_SEED" with
      | Some s -> ( match int_of_string_opt s with Some n -> n | None -> 0)
      | None -> 0
    in
    arm ~seed spec;
    !armed

let () =
  Printexc.register_printer (function
    | Injected { site; hit } ->
      Some (Printf.sprintf "Failpoint.Injected(%s, hit %d)" site hit)
    | Spec_error m -> Some ("Failpoint.Spec_error: " ^ m)
    | _ -> None)
