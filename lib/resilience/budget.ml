(* Per-query budgets: a wall-clock deadline (read through the pluggable
   Telemetry clock) plus resource governors over output rows,
   materialized items and evaluator steps ("fuel").  The budget is
   dynamically scoped — [with_budget] installs it for the extent of one
   query — and checked cooperatively by the evaluation loops; when no
   budget is installed every probe is a single ref read. *)

module Telemetry = Aqua_core.Telemetry
module Mcore = Aqua_multicore.Mcore

type limits = {
  timeout_ns : int64 option;
  max_rows : int option;
  max_items : int option;
  max_fuel : int option;
}

let no_limits =
  { timeout_ns = None; max_rows = None; max_items = None; max_fuel = None }

let limits ?timeout_ms ?max_rows ?max_items ?max_fuel () =
  {
    timeout_ns =
      Option.map (fun ms -> Int64.of_int (ms * 1_000_000)) timeout_ms;
    max_rows;
    max_items;
    max_fuel;
  }

type resource = Deadline | Rows | Items | Fuel

type violation = { resource : resource; limit : int64 }
(** [limit] is the configured bound: nanoseconds for [Deadline], a
    count for the others. *)

exception Exceeded of violation

type t = {
  deadline : int64 option;  (* absolute, in clock nanoseconds *)
  timeout_ns : int64 option;  (* the relative budget, for reporting *)
  max_rows : int option;
  max_items : int option;
  max_fuel : int option;
  mutable rows : int;
  mutable items : int;
  mutable fuel : int;
  mutable countdown : int;  (* steps until the next deadline clock read *)
}

(* Reading the clock on every evaluator step would dominate the step
   itself, so deadline checks are amortized: one clock read per this
   many fuel steps. *)
let deadline_check_period = 64

(* The installed budget is per-domain: each concurrent session runs its
   query under its own budget, and a governor trip in one domain must
   never cancel another domain's query. *)
let current : t option Mcore.Dls.key = Mcore.Dls.new_key (fun () -> None)

let active () = Mcore.Dls.get current <> None

let to_sqlstate { resource; limit } =
  match resource with
  | Deadline ->
    Sqlstate.make ~sqlstate:Sqlstate.query_canceled ~condition:"query canceled"
      (Printf.sprintf "deadline of %.3f ms exceeded"
         (Int64.to_float limit /. 1e6))
  | Rows ->
    Sqlstate.make ~sqlstate:Sqlstate.configured_limit_exceeded
      ~condition:"row limit exceeded"
      (Printf.sprintf "query produced more than %Ld output rows" limit)
  | Items ->
    Sqlstate.make ~sqlstate:Sqlstate.insufficient_resources
      ~condition:"materialization limit exceeded"
      (Printf.sprintf "query materialized more than %Ld items" limit)
  | Fuel ->
    Sqlstate.make ~sqlstate:Sqlstate.insufficient_resources
      ~condition:"evaluation budget exceeded"
      (Printf.sprintf "query exceeded %Ld evaluator steps" limit)

let exceeded resource limit =
  (match resource with
  | Deadline -> Telemetry.incr Telemetry.c_deadline_exceeded
  | Rows | Items | Fuel -> Telemetry.incr Telemetry.c_resource_exhausted);
  raise (Exceeded { resource; limit })

let deadline_hit b = exceeded Deadline (Option.value b.timeout_ns ~default:0L)

let make (l : limits) =
  let deadline =
    Option.map (fun t -> Int64.add (Telemetry.now_ns ()) t) l.timeout_ns
  in
  {
    deadline;
    timeout_ns = l.timeout_ns;
    max_rows = l.max_rows;
    max_items = l.max_items;
    max_fuel = l.max_fuel;
    rows = 0;
    items = 0;
    fuel = 0;
    countdown = deadline_check_period;
  }

let with_budget (l : limits) f =
  if l = no_limits then f ()
  else begin
    let prev = Mcore.Dls.get current in
    Mcore.Dls.set current (Some (make l));
    Fun.protect ~finally:(fun () -> Mcore.Dls.set current prev) f
  end

let check_of b =
  match b.deadline with
  | Some d when Telemetry.now_ns () > d -> deadline_hit b
  | _ -> ()

let check_now () =
  match Mcore.Dls.get current with None -> () | Some b -> check_of b

let step () =
  match Mcore.Dls.get current with
  | None -> ()
  | Some b ->
    b.fuel <- b.fuel + 1;
    (match b.max_fuel with
    | Some m when b.fuel > m -> exceeded Fuel (Int64.of_int m)
    | _ -> ());
    b.countdown <- b.countdown - 1;
    if b.countdown <= 0 then begin
      b.countdown <- deadline_check_period;
      check_of b
    end

let steps n =
  if n > 0 then
    match Mcore.Dls.get current with
    | None -> ()
    | Some b ->
      b.fuel <- b.fuel + n;
      (match b.max_fuel with
      | Some m when b.fuel > m -> exceeded Fuel (Int64.of_int m)
      | _ -> ());
      b.countdown <- b.countdown - n;
      if b.countdown <= 0 then begin
        b.countdown <- deadline_check_period;
        check_of b
      end

let tick_rows n =
  match Mcore.Dls.get current with
  | None -> ()
  | Some b ->
    b.rows <- b.rows + n;
    (match b.max_rows with
    | Some m when b.rows > m -> exceeded Rows (Int64.of_int m)
    | _ -> ());
    check_of b

let tick_items n =
  match Mcore.Dls.get current with
  | None -> ()
  | Some b ->
    b.items <- b.items + n;
    (match b.max_items with
    | Some m when b.items > m -> exceeded Items (Int64.of_int m)
    | _ -> ());
    check_of b

let () =
  Printexc.register_printer (function
    | Exceeded v -> Some ("Budget.Exceeded " ^ Sqlstate.to_string (to_sqlstate v))
    | _ -> None)
