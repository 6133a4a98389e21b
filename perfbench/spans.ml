(* In-memory span recorder for the traced pass.

   Spans are recorded from the benchmark's own code, around the calls
   it makes into each layer's public functions.  A span's name is
   "<layer>.<what>"; the layer is the part before the first dot.  Each
   span keeps its start, end, parent and operation id, so a layer's
   self time is its duration minus the durations of its children.

   Some figures cannot be timed from outside a single call — the
   data-service share of a run comes from the library's own
   [dsp.call.*] span totals, the optimizer's share of [Server.prepare]
   from a separate call.  They are recorded as derived child spans: the
   parent's self time shrinks by exactly their duration. *)

type t = {
  mutable names : string array;
  mutable starts : int64 array;
  mutable stops : int64 array;
  mutable parents : int array;
  mutable ops : int array;
  mutable derived : bool array;
  mutable len : int;
  mutable stack : int list;  (* open spans, innermost first *)
}

let now = Monotonic_clock.now

let create () =
  let n = 1024 in
  {
    names = Array.make n "";
    starts = Array.make n 0L;
    stops = Array.make n 0L;
    parents = Array.make n (-1);
    ops = Array.make n 0;
    derived = Array.make n false;
    len = 0;
    stack = [];
  }

let grow t =
  let n = 2 * Array.length t.names in
  let ext a fill = Array.append a (Array.make (n - Array.length a) fill) in
  t.names <- ext t.names "";
  t.starts <- ext t.starts 0L;
  t.stops <- ext t.stops 0L;
  t.parents <- ext t.parents (-1);
  t.ops <- ext t.ops 0;
  t.derived <- ext t.derived false

let push t ~op ~parent ~derived name start stop =
  if t.len = Array.length t.names then grow t;
  let id = t.len in
  t.names.(id) <- name;
  t.starts.(id) <- start;
  t.stops.(id) <- stop;
  t.parents.(id) <- parent;
  t.ops.(id) <- op;
  t.derived.(id) <- derived;
  t.len <- id + 1;
  id

let parent t = match t.stack with p :: _ -> p | [] -> -1

(* [span_id t ~op name f] times [f ()] as a child of the innermost open
   span and returns its result with the span's id.  The span is closed
   even if [f] raises. *)
let span_id t ~op name f =
  let id = push t ~op ~parent:(parent t) ~derived:false name 0L 0L in
  t.stack <- id :: t.stack;
  let close () =
    t.stops.(id) <- now ();
    t.stack <- List.tl t.stack
  in
  t.starts.(id) <- now ();
  match f () with
  | v ->
    close ();
    (v, id)
  | exception e ->
    close ();
    raise e

(* Record a derived child of span [parent] lasting [ns]. *)
let derived t ~op ~parent name ns =
  let start = t.starts.(parent) in
  ignore
    (push t ~op ~parent ~derived:true name start
       (Int64.add start (Int64.of_float (Float.max 0. ns))))

let dur t i = Int64.to_float (Int64.sub t.stops.(i) t.starts.(i))

(* Self time of every span, in ns. *)
let self_times t =
  let self = Array.init t.len (dur t) in
  for i = 0 to t.len - 1 do
    let p = t.parents.(i) in
    if p >= 0 then self.(p) <- self.(p) -. dur t i
  done;
  self

(* Sum of self times per span name over the spans whose op satisfies
   [keep]. *)
let totals ~keep t =
  let self = self_times t in
  let tbl = Hashtbl.create 32 in
  for i = 0 to t.len - 1 do
    if keep t.ops.(i) then
      Hashtbl.replace tbl t.names.(i)
        (self.(i)
        +. Option.value ~default:0. (Hashtbl.find_opt tbl t.names.(i)))
  done;
  tbl

let write t path =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  for i = 0 to t.len - 1 do
    Printf.fprintf oc
      "{\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d,\
       \"op\":%d%s}\n"
      t.names.(i) t.starts.(i) t.stops.(i) t.parents.(i) t.ops.(i)
      (if t.derived.(i) then ",\"derived\":true" else "")
  done
