(* Bounded session pool over one shared connection.

   The paper's serving topology is many JDBC clients multiplexed onto
   one DSP application; this module reproduces the admission layer: a
   fixed number of sessions, each carrying its own per-query budget, is
   handed out to callers (domains).  A borrow when every session is out
   either blocks on a condition variable until a release broadcasts (a
   waiter burns no CPU while parked) or fails fast with SQLSTATE 53300
   ("too many connections"), the same taxonomy the resource governors
   use, so legacy tools see a typed, bounded error instead of an
   unbounded queue.  The stdlib condition has no timed wait, so a
   waiter's deadline is checked at every wakeup: expiry is observed at
   the next release, which is always forthcoming because sessions are
   held only for the duration of one budget-bounded query.  On the
   pre-5.0 shim [Condition.wait] returns immediately, degrading the
   same loop to the previous bounded spin (which honors the deadline
   exactly).

   The pool serializes nothing but the borrow/release bookkeeping:
   query execution runs outside the lock, on the shared (domain-safe)
   [Connection.t]. *)

module Budget = Aqua_resilience.Budget
module Sqlstate = Aqua_resilience.Sqlstate
module Mcore = Aqua_multicore.Mcore
module T = Aqua_core.Telemetry

type session = {
  id : int;
  limits : Budget.limits;
}

type t = {
  conn : Connection.t;
  capacity : int;
  lock : Mcore.Mutex.t;  (* guards free/in_use and the stats below *)
  cond : Mcore.Condition.t;  (* broadcast on every release *)
  mutable free : session list;
  mutable in_use : int;
  mutable borrows : int;
  mutable rejections : int;
  mutable waits : int;
  mutable peak_in_use : int;
}

type stats = {
  capacity : int;
  in_use : int;
  borrows : int;
  rejections : int;
  waits : int;
  peak_in_use : int;
}

let create ?(capacity = 8) ?limits conn =
  let capacity = max 1 capacity in
  let limits =
    match limits with Some l -> l | None -> Connection.limits conn
  in
  {
    conn;
    capacity;
    lock = Mcore.Mutex.create ();
    cond = Mcore.Condition.create ();
    free = List.init capacity (fun id -> { id; limits });
    in_use = 0;
    borrows = 0;
    rejections = 0;
    waits = 0;
    peak_in_use = 0;
  }

let connection t = t.conn
let capacity (t : t) = t.capacity

let session_id s = s.id

(* one borrow attempt; the caller holds [t.lock] *)
let take_unlocked t =
  match t.free with
  | s :: rest ->
    t.free <- rest;
    t.in_use <- t.in_use + 1;
    t.borrows <- t.borrows + 1;
    if t.in_use > t.peak_in_use then t.peak_in_use <- t.in_use;
    Some s
  | [] -> None

(* records the rejection, drops [t.lock], raises 53300 *)
let exhausted_unlocked (t : t) =
  t.rejections <- t.rejections + 1;
  Mcore.Mutex.unlock t.lock;
  T.incr T.c_pool_rejections;
  Sqlstate.error ~sqlstate:Sqlstate.too_many_connections
    ~condition:"too many connections"
    "session pool exhausted (%d sessions all in use)" t.capacity

let borrow ?(wait_ms = 0) t =
  Mcore.Mutex.lock t.lock;
  match take_unlocked t with
  | Some s ->
    Mcore.Mutex.unlock t.lock;
    T.incr T.c_pool_borrows;
    s
  | None ->
    if wait_ms <= 0 then exhausted_unlocked t
    else begin
      t.waits <- t.waits + 1;
      T.incr T.c_pool_waits;
      let deadline =
        Int64.add (T.now_ns ()) (Int64.of_int (wait_ms * 1_000_000))
      in
      let rec wait_loop () =
        match take_unlocked t with
        | Some s ->
          Mcore.Mutex.unlock t.lock;
          T.incr T.c_pool_borrows;
          s
        | None ->
          if Int64.compare (T.now_ns ()) deadline >= 0 then
            exhausted_unlocked t
          else begin
            (* park until a release broadcasts; the deadline is
               re-checked on every wakeup (the stdlib condition has no
               timed wait, so expiry is observed at the next release —
               always forthcoming, sessions being held for one
               budget-bounded query at a time).  The shim's [wait]
               returns immediately, so [cpu_relax] keeps the degraded
               loop the old polite bounded spin. *)
            Mcore.Condition.wait t.cond t.lock;
            Mcore.cpu_relax ();
            wait_loop ()
          end
      in
      wait_loop ()
    end

let release t s =
  Mcore.Mutex.protect t.lock @@ fun () ->
  t.free <- s :: t.free;
  t.in_use <- t.in_use - 1;
  (* broadcast, not signal: waiters carry distinct deadlines, and a
     single signal could land on one that is about to time out *)
  Mcore.Condition.broadcast t.cond

let with_session ?wait_ms t f =
  let s = borrow ?wait_ms t in
  Fun.protect ~finally:(fun () -> release t s) (fun () -> f s)

let execute ?key ?wait_ms t sql =
  with_session ?wait_ms t @@ fun s ->
  Connection.execute_query ?key ~limits:s.limits t.conn sql

(* Pooled concurrent serving: [domains] domains each drain statements
   from a shared cursor, borrowing a session per statement (so the pool
   bound — not the domain count — is the admission limit).  Results in
   input order, per-statement outcomes captured independently. *)
let execute_concurrent ?domains ?wait_ms t sqls =
  let stmts = Array.of_list sqls in
  let n = Array.length stmts in
  let d =
    match domains with
    | Some d -> max 1 (min d (max 1 n))
    | None -> max 1 (min (Mcore.num_cores ()) n)
  in
  let out = Array.make n (Error Not_found) in
  let next = Atomic.make 0 in
  let worker () =
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        (out.(i) <-
           (match execute ?wait_ms t stmts.(i) with
           | rs -> Ok rs
           | exception e -> Error e));
        go ()
      end
    in
    go ()
  in
  let outcomes = Mcore.Domains.parallel (List.init d (fun _ -> worker)) in
  List.iter (function Ok () -> () | Error e -> raise e) outcomes;
  Array.to_list out

let stats t =
  Mcore.Mutex.protect t.lock @@ fun () ->
  {
    capacity = t.capacity;
    in_use = t.in_use;
    borrows = t.borrows;
    rejections = t.rejections;
    waits = t.waits;
    peak_in_use = t.peak_in_use;
  }
