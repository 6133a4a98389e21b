(* The three workloads: their data, their seeded operation sequences,
   and the digests that check every result against the reference SQL
   engine ([Aqua_sqlengine.Engine]) run on a separate copy of the
   data. *)

module Engine = Aqua_sqlengine.Engine
module Datagen = Aqua_workload.Datagen
module Querygen = Aqua_workload.Querygen
module Metadata = Aqua_dsp.Metadata
module Artifact = Aqua_dsp.Artifact
module Rowset = Aqua_relational.Rowset
module Schema = Aqua_relational.Schema
module Table = Aqua_relational.Table
module Value = Aqua_relational.Value
module Ast = Aqua_sql.Ast

type name = Report | Adhoc | Wire_churn

let name_of_string = function
  | "report" -> Some Report
  | "adhoc" -> Some Adhoc
  | "wire_churn" -> Some Wire_churn
  | _ -> None

let to_string = function
  | Report -> "report"
  | Adhoc -> "adhoc"
  | Wire_churn -> "wire_churn"

type op =
  | Query of { sql : string; label : string }
      (** [label] names the statement kind for per-statement rows *)
  | Insert of Value.t list  (** one ORDERS row, applied between statements *)

type t = {
  name : name;
  ops : op array;
      (** [report] and [adhoc] cycle through [ops] for the measured
          duration; [wire_churn] runs [ops] once, so every run inserts
          the same rows *)
}

(* ------------------------------------------------------------------ *)
(* report: five reporting statements over one mid-sized data set.     *)

(* payments stays at 300: the anti-join half of the outer join is a
   correlated nested loop, so larger PAYMENTS would make statement 4
   swamp the other four. *)
let report_sizes =
  { Datagen.customers = 300;
    orders = 5000;
    lines_per_order = 2;
    payments = 300 }

let report_statements =
  [ ( "agg-group",
      "SELECT O.CUSTOMERID, COUNT(*) N, SUM(O.PRIORITY) S, AVG(O.PRIORITY) A, \
       MIN(O.PRIORITY) MN, MAX(O.PRIORITY) MX FROM ORDERS O GROUP BY \
       O.CUSTOMERID" );
    ( "agg-join",
      "SELECT C.CUSTOMERID, COUNT(*) N, SUM(O.PRIORITY) S FROM CUSTOMERS C, \
       ORDERS O WHERE C.CUSTOMERID = O.CUSTOMERID GROUP BY C.CUSTOMERID" );
    ( "derived-group",
      "SELECT INFO.CID, COUNT(*) N, MAX(INFO.PRI) P FROM (SELECT CUSTOMERID \
       CID, PRIORITY PRI FROM ORDERS WHERE PRIORITY > 1) AS INFO GROUP BY \
       INFO.CID ORDER BY N DESC" );
    ( "outer-join",
      "SELECT C.CUSTOMERID, C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C LEFT \
       OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID" );
    (* JOIN ... ON, not a comma join: the reference engine evaluates a
       comma join as a full cross product, 50 million rows here *)
    ( "lines-group",
      "SELECT O.STATUS, COUNT(*) N, SUM(L.QTY) Q FROM ORDERS O INNER JOIN \
       ORDERLINES L ON O.ORDERID = L.ORDERID GROUP BY O.STATUS" ) ]

(* ------------------------------------------------------------------ *)
(* adhoc: random statements, each distinct, on tiny tables.           *)

let adhoc_sizes =
  { Datagen.customers = 20; orders = 60; lines_per_order = 2; payments = 20 }

(* Far more distinct texts than the driver's 128-entry translation LRU:
   cycling through them in order misses on every statement. *)
let adhoc_distinct = 4096

let adhoc_ops ~seed app =
  let rng = Random.State.make [| seed; 0xad |] in
  let tables = Metadata.list_tables app in
  let engine = Engine.env_of_application app in
  let seen = Hashtbl.create 1024 in
  let out = ref [] in
  while Hashtbl.length seen < adhoc_distinct do
    let sql =
      Querygen.generate_sql ~profile:Querygen.default_profile rng tables
    in
    (* keep only statements the reference engine evaluates: one it
       rejects (e.g. a runtime type error) has no expected result *)
    if not (Hashtbl.mem seen sql) then
      match Engine.execute_sql engine sql with
      | _ ->
        Hashtbl.add seen sql ();
        out := Query { sql; label = "adhoc" } :: !out
      | exception _ -> ()
  done;
  Array.of_list (List.rev !out)

(* ------------------------------------------------------------------ *)
(* wire_churn: short lookups over the wire with inserts between them. *)

let wire_sizes =
  { Datagen.customers = 200; orders = 300; lines_per_order = 2; payments = 150 }

(* Literals are drawn from 1..[wire_keys], so the mix has about twice
   [wire_keys] distinct texts: more than the 128-entry translation LRU
   holds, and far fewer than adhoc's, so it hits part of the time. *)
let wire_keys = 100

(* One ORDERS insert per [insert_every] operations. *)
let insert_every = 25

(* Operations per second of [--seconds]: the sequence length is fixed by
   the arguments, never by measured speed, so two commits given the same
   arguments run and insert exactly the same operations. *)
let wire_ops_per_second = 1200

let wire_ops ~seed ~count =
  let rng = Random.State.make [| seed; 0x3c |] in
  let key () = 1 + Random.State.int rng wire_keys in
  let next_order = ref 100_000 in
  Array.init count (fun i ->
      if i mod insert_every = insert_every - 1 then begin
        incr next_order;
        Insert
          [ Value.Int !next_order;
            Value.Int (key ());
            Value.Date
              { Aqua_xml.Atomic.year = 2005;
                month = 1 + Random.State.int rng 12;
                day = 1 + Random.State.int rng 28 };
            Value.Str "OPEN";
            Value.Int (Random.State.int rng 5) ]
      end
      else
        match Random.State.int rng 4 with
        | 0 ->
          Query
            { label = "point";
              sql =
                Printf.sprintf
                  "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE \
                   CUSTOMERID = %d"
                  (key ()) }
        | 1 ->
          Query
            { label = "filter";
              sql =
                Printf.sprintf
                  "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE TIER > %d"
                  (Random.State.int rng 3) }
        | 2 ->
          Query
            { label = "city-group";
              sql = "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY" }
        | _ ->
          Query
            { label = "orders-by-customer";
              sql =
                Printf.sprintf
                  "SELECT ORDERID, ORDERDATE, STATUS FROM ORDERS WHERE \
                   CUSTOMERID = %d"
                  (key ()) })

(* ------------------------------------------------------------------ *)

let sizes_of = function
  | Report -> report_sizes
  | Adhoc -> adhoc_sizes
  | Wire_churn -> wire_sizes

let application name ~seed = Datagen.application ~seed (sizes_of name)

let make name ~seed ~seconds =
  let ops =
    match name with
    | Report ->
      Array.of_list
        (List.map (fun (label, sql) -> Query { sql; label }) report_statements)
    | Adhoc -> adhoc_ops ~seed (application Adhoc ~seed)
    | Wire_churn -> wire_ops ~seed ~count:(wire_ops_per_second * seconds)
  in
  { name; ops }

let digest t =
  let b = Buffer.create 4096 in
  Array.iter
    (function
      | Query { sql; _ } -> Buffer.add_string b sql; Buffer.add_char b '\n'
      | Insert row ->
        Buffer.add_string b "INSERT";
        List.iter
          (fun v ->
            Buffer.add_char b ' ';
            Buffer.add_string b (Value.to_display v))
          row;
        Buffer.add_char b '\n')
    t.ops;
  Digest.to_hex (Digest.string (Buffer.contents b))

let queries t =
  Array.fold_left
    (fun n -> function Query _ -> n + 1 | Insert _ -> n)
    0 t.ops

(* The physical ORDERS table behind an application. *)
let orders_table (app : Artifact.application) =
  let found =
    List.find_map
      (fun (ds : Artifact.data_service) ->
        List.find_map
          (fun (f : Artifact.ds_function) ->
            match f.Artifact.body with
            | Artifact.Physical tbl when f.Artifact.fn_name = "ORDERS" ->
              Some tbl
            | _ -> None)
          ds.Artifact.functions)
      app.Artifact.services
  in
  match found with Some t -> t | None -> failwith "no ORDERS table"

(* Every parameterless physical function: (path, service, function). *)
let physical_functions (app : Artifact.application) =
  List.concat_map
    (fun (ds : Artifact.data_service) ->
      List.filter_map
        (fun (f : Artifact.ds_function) ->
          match f.Artifact.body with
          | Artifact.Physical _ when f.Artifact.params = [] ->
            Some (ds.Artifact.ds_path, ds.Artifact.ds_name, f.Artifact.fn_name)
          | _ -> None)
        ds.Artifact.functions)
    app.Artifact.services

(* ------------------------------------------------------------------ *)
(* Result checks                                                      *)

(* Indexes of ORDER BY keys that name output columns. *)
let order_keys (stmt : Ast.statement) (cols : Schema.t) =
  List.filter_map
    (fun (o : Ast.order_item) ->
      match o.Ast.key with
      | Ast.Ord_position i -> Some (i - 1)
      | Ast.Ord_expr (Ast.Column { qualifier = None; name; _ }) ->
        let name = String.uppercase_ascii name in
        let rec go i = function
          | [] -> None
          | (c : Schema.column) :: rest ->
            if String.uppercase_ascii c.Schema.name = name then Some i
            else go (i + 1) rest
        in
        go 0 cols
      | Ast.Ord_expr _ -> None)
    stmt.Ast.order_by

(* Results are compared by digest, so a run keeps no results in memory.
   An in-process digest covers the rows as a multiset, compared by
   [Value.group_key] as the differential tests compare them, plus the
   sequence of the ORDER BY key columns: two results digest alike
   exactly when the tests' [Rowset.diff_summary] finds no difference and
   [Rowset.sorted_under_order_by] holds. *)
let row_key row =
  String.concat "\x01" (Array.to_list (Array.map Value.group_key row))

let rowset_digest stmt (rs : Rowset.t) =
  let keys = order_keys stmt rs.Rowset.schema in
  let multiset = List.sort compare (List.map row_key rs.Rowset.rows) in
  let ordered =
    if keys = [] then []
    else
      List.map
        (fun r -> row_key (Array.of_list (List.map (fun i -> r.(i)) keys)))
        rs.Rowset.rows
  in
  Digest.string (Marshal.to_string (multiset, ordered) [ Marshal.No_sharing ])

(* The wire's text form of a value: what a DataRow carries. *)
let wire_text = function Value.Null -> None | v -> Some (Value.to_string v)

let text_rows (rs : Rowset.t) =
  List.map (fun r -> Array.to_list (Array.map wire_text r)) rs.Rowset.rows

(* Wire results compare in the wire's text form, as multisets (the wire
   mix has no ORDER BY).  Digests marshal without sharing: the reference
   engine's rows share strings that arrive from the wire as copies. *)
let wire_digest (rows : string option list list) =
  let rows = List.sort compare rows in
  Digest.string (Marshal.to_string rows [ Marshal.No_sharing ])

(* The digests every operation produced, with how often. *)
module Checker = struct
  type t = (int * string, int ref) Hashtbl.t

  let create () : t = Hashtbl.create 1024

  let record (t : t) k r =
    let key = (k, match r with Ok d -> d | Error _ -> "error") in
    match Hashtbl.find_opt t key with
    | Some n -> incr n
    | None -> Hashtbl.add t key (ref 1)

  (* (attempted, failed) against [expected k], the expected digest *)
  let verify (t : t) expected =
    Hashtbl.fold
      (fun (k, d) n (attempted, failed) ->
        (attempted + !n, if expected k = Some d then failed else failed + !n))
      t (0, 0)
end

(* Parsed statements, by operation: the in-process digest needs the
   ORDER BY. *)
let statements t =
  Array.map
    (function
      | Query { sql; _ } -> Some (Aqua_sql.Parser.parse sql)
      | Insert _ -> None)
    t.ops

(* The expected digest of each operation ([None] for inserts) in
   in-process and in wire form, from replaying the sequence with the
   reference engine on a fresh copy of the data.  An insert changes the
   data, so results are memoized by SQL text only between inserts. *)
let expected t ~seed =
  let app = application t.name ~seed in
  let engine = Engine.env_of_application app in
  let orders = lazy (orders_table app) in
  let memo = Hashtbl.create 256 in
  Array.map
    (function
      | Insert row ->
        Table.insert (Lazy.force orders) row;
        Hashtbl.reset memo;
        None
      | Query { sql; _ } -> (
        match Hashtbl.find_opt memo sql with
        | Some e -> Some e
        | None ->
          let stmt = Aqua_sql.Parser.parse sql in
          let rows = Engine.execute engine stmt in
          let e = (rowset_digest stmt rows, wire_digest (text_rows rows)) in
          Hashtbl.add memo sql e;
          Some e))
    t.ops
