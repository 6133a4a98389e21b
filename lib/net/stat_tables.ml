(* The aqua_stat_* virtual tables: pg_stat_statements-style live
   introspection answered by the wire server itself, before any
   translation.  Each table renders a registry snapshot into the same
   Outcol/Value shapes every real result uses, so the existing
   RowDescription/DataRow encoders serve them unchanged and any stock
   client sees ordinary rows. *)

module Outcol = Aqua_translator.Outcol
module Value = Aqua_relational.Value
module Sql_type = Aqua_relational.Sql_type
module Stats = Aqua_obs.Stats
module Histogram = Aqua_obs.Histogram
module Breaker = Aqua_resilience.Breaker

type table = Statements | Activity | Breakers

let tables =
  [ ("aqua_stat_statements", Statements); ("aqua_stat_activity", Activity);
    ("aqua_stat_breakers", Breakers) ]

let table_names = List.map fst tables

(* Recognize exactly [SELECT * FROM <name>] (any case, any whitespace,
   optional trailing semicolon).  Anything fancier — projections,
   predicates — falls through to the translator and fails there with
   its normal unknown-table error, which is the honest answer: these
   are not catalog tables.

   Every wire statement passes through here, so the match reads the
   text in place and gives up at the first word that cannot match: an
   ordinary statement is rejected at its first or second word, without
   copying, splitting or lowercasing the text. *)

(* [String.trim]'s blanks; inside the text only these separate words *)
let is_blank c = c = ' ' || c = '\t' || c = '\n' || c = '\r' || c = '\012'
let is_separator c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let recognize sql =
  let n = String.length sql in
  let rec trim_left lo =
    if lo < n && is_blank sql.[lo] then trim_left (lo + 1) else lo
  in
  let lo = trim_left 0 in
  let rec trim_right hi =
    if hi > lo && is_blank sql.[hi - 1] then trim_right (hi - 1) else hi
  in
  let hi = trim_right n in
  let hi = if hi > lo && sql.[hi - 1] = ';' then trim_right (hi - 1) else hi in
  (* the word starting at the first non-separator at or after [pos]:
     [Some (start, stop)], or [None] at the end of the text *)
  let rec word pos =
    if pos >= hi then None
    else if is_separator sql.[pos] then word (pos + 1)
    else
      let rec stop i =
        if i < hi && not (is_separator sql.[i]) then stop (i + 1) else i
      in
      Some (pos, stop pos)
  in
  (* [sql.[start, stop)] is [w], case aside ([w] is lowercase) *)
  let is (start, stop) w =
    stop - start = String.length w
    &&
    let rec eq i =
      i = String.length w
      || (Char.lowercase_ascii sql.[start + i] = w.[i] && eq (i + 1))
    in
    eq 0
  in
  let expect w pos k =
    match word pos with
    | Some ((_, stop) as x) when is x w -> k stop
    | _ -> None
  in
  expect "select" lo @@ fun pos ->
  expect "*" pos @@ fun pos ->
  expect "from" pos @@ fun pos ->
  match word pos with
  | Some ((_, stop) as name) when word stop = None ->
    List.find_map
      (fun (n, table) -> if is name n then Some table else None)
      tables
  | _ -> None

let col label ty =
  (* the element name never reaches XML on this path; the label is a
     valid XML name already *)
  Outcol.make ~label ~element:label ~ty ~nullable:false

let ms_of_ns ns = Int64.to_float ns /. 1e6

(* -- aqua_stat_statements: the per-fingerprint registry ------------- *)

let statements_cols =
  [ col "fingerprint" (Sql_type.Varchar None);
    col "query" (Sql_type.Varchar None);
    col "calls" Sql_type.Bigint;
    col "rows" Sql_type.Bigint;
    col "cache_hits" Sql_type.Bigint;
    col "errors" Sql_type.Bigint;
    col "mean_ms" Sql_type.Double;
    col "p50_ms" Sql_type.Double;
    col "p99_ms" Sql_type.Double;
    col "total_ms" Sql_type.Double ]

let statements () =
  let rows =
    List.map
      (fun (e : Stats.entry) ->
        let total_ns = Histogram.total e.Stats.total in
        let calls = e.Stats.calls in
        let mean_ms =
          if calls = 0 then 0.0 else ms_of_ns total_ns /. float_of_int calls
        in
        [| Value.Str e.Stats.fingerprint;
           Value.Str e.Stats.shape;
           Value.Int calls;
           Value.Int e.Stats.rows;
           Value.Int e.Stats.cache_hits;
           Value.Int e.Stats.errors;
           Value.Num mean_ms;
           Value.Num (ms_of_ns (Histogram.p50 e.Stats.total));
           Value.Num (ms_of_ns (Histogram.p99 e.Stats.total));
           Value.Num (ms_of_ns total_ns) |])
      (Stats.entries ())
  in
  (statements_cols, rows)

(* -- aqua_stat_activity: queries in flight right now ---------------- *)

type activity_row = {
  pid : int;  (* the backend id sent in BackendKeyData *)
  query : string;  (* normalized shape, not raw text *)
  fingerprint : string;
  elapsed_ms : float;
  trace_id : string;
}

let activity_cols =
  [ col "pid" Sql_type.Integer;
    col "state" (Sql_type.Varchar None);
    col "query" (Sql_type.Varchar None);
    col "fingerprint" (Sql_type.Varchar None);
    col "elapsed_ms" Sql_type.Double;
    col "trace_id" (Sql_type.Varchar None) ]

let activity rows =
  let rows =
    List.map
      (fun a ->
        [| Value.Int a.pid;
           Value.Str "active";
           Value.Str a.query;
           Value.Str a.fingerprint;
           Value.Num a.elapsed_ms;
           Value.Str a.trace_id |])
      (List.sort (fun a b -> compare a.pid b.pid) rows)
  in
  (activity_cols, rows)

(* -- aqua_stat_breakers: per-function circuit state ----------------- *)

let breakers_cols =
  [ col "function" (Sql_type.Varchar None);
    col "state" (Sql_type.Varchar None);
    col "rejecting" Sql_type.Boolean;
    col "trips" Sql_type.Bigint;
    col "recoveries" Sql_type.Bigint;
    col "rejections" Sql_type.Bigint ]

let breakers bs =
  let rows =
    List.map
      (fun b ->
        [| Value.Str (Breaker.name b);
           Value.Str (Breaker.state_to_string (Breaker.state b));
           Value.Bool (Breaker.rejecting b);
           Value.Int (Breaker.trips b);
           Value.Int (Breaker.recoveries b);
           Value.Int (Breaker.rejections b) |])
      bs
  in
  (breakers_cols, rows)
