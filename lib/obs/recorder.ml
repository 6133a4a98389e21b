(* Bounded ring of recent query events.  A preallocated [event option
   array] plus a write cursor: append overwrites the oldest slot, so
   the last [capacity] statements are always available for a
   post-mortem dump, at O(1) per statement and fixed memory. *)

module Mcore = Aqua_multicore.Mcore
module Telemetry = Aqua_core.Telemetry

type resilience = {
  retries : int;
  fallbacks : int;
  faults : int;
  breaker_rejections : int;
}

let no_resilience =
  { retries = 0; fallbacks = 0; faults = 0; breaker_rejections = 0 }

type outcome = Done | Failed of string

type event = {
  seq : int;
  fingerprint : string;
  shape : string;
  start_ns : int64;
  dur_ns : int64;
  rows : int;
  cache_hit : bool;
  plan : string;
  trace_id : string;  (* "" when the statement ran outside a trace *)
  outcome : outcome;
  resilience : resilience;
}

let enabled_flag = ref true
let set_enabled b = enabled_flag := b
let enabled () = !enabled_flag

let default_capacity = 64
let ring : event option array ref = ref (Array.make default_capacity None)
let cursor = ref 0  (* next slot to write *)
let seq = ref 0

(* guards ring, cursor and seq: concurrent appends from N domains each
   get a distinct seq and slot *)
let lock = Mcore.Mutex.create ()

let capacity () = Mcore.Mutex.protect lock (fun () -> Array.length !ring)

let set_capacity n =
  if n < 1 then invalid_arg "Recorder.set_capacity: capacity must be >= 1";
  Mcore.Mutex.protect lock @@ fun () ->
  ring := Array.make n None;
  cursor := 0

let clear () =
  Mcore.Mutex.protect lock @@ fun () ->
  Array.fill !ring 0 (Array.length !ring) None;
  cursor := 0

let record ~fingerprint ~shape ~start_ns ~dur_ns ?(rows = 0)
    ?(cache_hit = false) ?(plan = "optimized") ?trace_id
    ?(resilience = no_resilience) outcome =
  if !enabled_flag then begin
    (* the ambient trace context (installed by the wire frontend) is
       the default stamp, so tail capture of errored queries works
       even when head sampling said no: the ring always has the id a
       client can quote back *)
    let trace_id =
      match trace_id with
      | Some t -> t
      | None -> Option.value ~default:"" (Telemetry.current_trace_id ())
    in
    Mcore.Mutex.protect lock @@ fun () ->
    incr seq;
    let ev =
      {
        seq = !seq;
        fingerprint;
        shape;
        start_ns;
        dur_ns;
        rows;
        cache_hit;
        plan;
        trace_id;
        outcome;
        resilience;
      }
    in
    let r = !ring in
    r.(!cursor) <- Some ev;
    cursor := (!cursor + 1) mod Array.length r
  end

let events () =
  Mcore.Mutex.protect lock @@ fun () ->
  let r = !ring in
  let n = Array.length r in
  let acc = ref [] in
  (* walk backwards from the newest slot so the result is oldest
     first after the fold *)
  for i = 0 to n - 1 do
    match r.((!cursor + n - 1 - i) mod n) with
    | Some ev -> acc := ev :: !acc
    | None -> ()
  done;
  !acc

let last_error () =
  List.fold_left
    (fun acc ev -> match ev.outcome with Failed _ -> Some ev | Done -> acc)
    None (events ())

let event_to_ndjson ev =
  Printf.sprintf
    "{\"ev\":\"query\",\"seq\":%d,\"fp\":\"%s\",\"shape\":\"%s\",\"start_ns\":%Ld,\"dur_ns\":%Ld,\"rows\":%d,\"cache_hit\":%b,\"plan\":\"%s\"%s,\"outcome\":\"%s\",\"retries\":%d,\"fallbacks\":%d,\"faults\":%d,\"breaker_rejections\":%d}"
    ev.seq (Telemetry.json_escape ev.fingerprint)
    (Telemetry.json_escape ev.shape) ev.start_ns ev.dur_ns ev.rows
    ev.cache_hit (Telemetry.json_escape ev.plan)
    (if ev.trace_id = "" then ""
     else Printf.sprintf ",\"trace\":\"%s\"" (Telemetry.json_escape ev.trace_id))
    (match ev.outcome with Done -> "ok" | Failed s -> Telemetry.json_escape s)
    ev.resilience.retries ev.resilience.fallbacks ev.resilience.faults
    ev.resilience.breaker_rejections

let dump ?(reason = "on-demand") () =
  let evs = events () in
  Printf.sprintf "{\"ev\":\"recorder\",\"reason\":\"%s\",\"events\":%d}"
    (Telemetry.json_escape reason) (List.length evs)
  :: List.map event_to_ndjson evs

let dump_sink : (string -> unit) option ref = ref None
let set_dump_sink s = dump_sink := s

let dump_to_sink ?reason () =
  match !dump_sink with
  | None -> false
  | Some sink ->
    List.iter sink (dump ?reason ());
    true
