module Schema = Aqua_relational.Schema
module Sql_type = Aqua_relational.Sql_type
module Table = Aqua_relational.Table
module Value = Aqua_relational.Value
module Atomic = Aqua_xml.Atomic
module Artifact = Aqua_dsp.Artifact

type sizes = {
  customers : int;
  orders : int;
  lines_per_order : int;
  payments : int;
}

let cities =
  [| "Austin"; "Boston"; "Chicago"; "Denver"; "El Paso"; "Fresno"; "Georgetown" |]

let first_names =
  [| "Acme"; "Zenith"; "Ajax"; "Globex"; "Initech"; "Umbrella"; "Stark";
     "Wayne"; "Wonka"; "Tyrell" |]

let second_names =
  [| "Widgets"; "Distributors"; "Supplies"; "Parts"; "Industries"; "Trading";
     "Logistics"; "Holdings" |]

let statuses = [| "OPEN"; "SHIPPED"; "BILLED"; "CLOSED" |]
let products = [| "bolt"; "nut"; "washer"; "gear"; "spring"; "shaft"; "cam" |]

let date_of_day d =
  (* days spread over 2004-2005 *)
  let year = 2004 + (d / 360) in
  let month = 1 + (d mod 360 / 30) in
  let day = 1 + (d mod 30) in
  Value.Date { Atomic.year; month; day }

let maybe_null rng fraction v =
  if Random.State.float rng 1.0 < fraction then Value.Null else v

let customers_table rng n =
  let t =
    Table.create "CUSTOMERS"
      [ Schema.column ~nullable:false "CUSTOMERID" Sql_type.Integer;
        Schema.column ~nullable:false "CUSTOMERNAME" (Sql_type.Varchar (Some 60));
        Schema.column "CITY" (Sql_type.Varchar (Some 30));
        Schema.column "TIER" Sql_type.Integer;
        Schema.column "CREDIT" (Sql_type.Decimal (Some (10, 2))) ]
  in
  for i = 1 to n do
    let name =
      first_names.(Random.State.int rng (Array.length first_names))
      ^ " "
      ^ second_names.(Random.State.int rng (Array.length second_names))
      ^ Printf.sprintf " #%d" i
    in
    Table.insert t
      [ Value.Int i;
        Value.Str name;
        maybe_null rng 0.1
          (Value.Str cities.(Random.State.int rng (Array.length cities)));
        maybe_null rng 0.15 (Value.Int (1 + Random.State.int rng 3));
        maybe_null rng 0.2
          (Value.Num (Float.of_int (Random.State.int rng 100000) /. 100.)) ]
  done;
  t

let orders_table rng ~customers n =
  let t =
    Table.create "ORDERS"
      [ Schema.column ~nullable:false "ORDERID" Sql_type.Integer;
        Schema.column ~nullable:false "CUSTOMERID" Sql_type.Integer;
        Schema.column ~nullable:false "ORDERDATE" Sql_type.Date;
        Schema.column "STATUS" (Sql_type.Varchar (Some 10));
        Schema.column "PRIORITY" Sql_type.Integer ]
  in
  for i = 1 to n do
    Table.insert t
      [ Value.Int (1000 + i);
        Value.Int (1 + Random.State.int rng (max customers 1));
        date_of_day (Random.State.int rng 700);
        maybe_null rng 0.05
          (Value.Str statuses.(Random.State.int rng (Array.length statuses)));
        maybe_null rng 0.3 (Value.Int (Random.State.int rng 5)) ]
  done;
  t

let orderlines_table rng ~orders per_order =
  let t =
    Table.create "ORDERLINES"
      [ Schema.column ~nullable:false "LINEID" Sql_type.Integer;
        Schema.column ~nullable:false "ORDERID" Sql_type.Integer;
        Schema.column ~nullable:false "PRODUCT" (Sql_type.Varchar (Some 20));
        Schema.column ~nullable:false "QTY" Sql_type.Integer;
        Schema.column ~nullable:false "PRICE" (Sql_type.Decimal (Some (8, 2))) ]
  in
  let id = ref 0 in
  for o = 1 to orders do
    let lines = 1 + Random.State.int rng (max per_order 1) in
    for _ = 1 to lines do
      incr id;
      Table.insert t
        [ Value.Int !id;
          Value.Int (1000 + o);
          Value.Str products.(Random.State.int rng (Array.length products));
          Value.Int (1 + Random.State.int rng 20);
          Value.Num (Float.of_int (1 + Random.State.int rng 10000) /. 100.) ]
    done
  done;
  t

let payments_table rng ~customers n =
  let t =
    Table.create "PAYMENTS"
      [ Schema.column ~nullable:false "PAYMENTID" Sql_type.Integer;
        Schema.column ~nullable:false "CUSTID" Sql_type.Integer;
        Schema.column ~nullable:false "PAYMENT" (Sql_type.Decimal (Some (10, 2)));
        Schema.column "PAYDATE" Sql_type.Date ]
  in
  for i = 1 to n do
    Table.insert t
      [ Value.Int (5000 + i);
        Value.Int (1 + Random.State.int rng (max customers 1));
        Value.Num (Float.of_int (1 + Random.State.int rng 500000) /. 100.);
        maybe_null rng 0.1 (date_of_day (Random.State.int rng 700)) ]
  done;
  t

let tables ?(seed = 42) sizes =
  let rng = Random.State.make [| seed |] in
  [ customers_table rng sizes.customers;
    orders_table rng ~customers:sizes.customers sizes.orders;
    orderlines_table rng ~orders:sizes.orders sizes.lines_per_order;
    payments_table rng ~customers:sizes.customers sizes.payments ]

let application ?seed ?(project = "Sales") sizes =
  let app = Artifact.application "WorkloadApp" in
  List.iter
    (fun t -> ignore (Artifact.import_physical_table app ~project t))
    (tables ?seed sizes);
  app

let wide_table ?(seed = 7) ~name ~columns ~rows () =
  let rng = Random.State.make [| seed |] in
  let schema =
    Schema.column ~nullable:false "ID" Sql_type.Integer
    :: List.init columns (fun i ->
           if i mod 2 = 0 then
             Schema.column (Printf.sprintf "C%d" i) (Sql_type.Varchar (Some 40))
           else Schema.column (Printf.sprintf "C%d" i) Sql_type.Integer)
  in
  let t = Table.create name schema in
  for r = 1 to rows do
    Table.insert t
      (Value.Int r
      :: List.init columns (fun i ->
             if Random.State.float rng 1.0 < 0.05 then Value.Null
             else if i mod 2 = 0 then
               Value.Str
                 (Printf.sprintf "value-%d-%d <&> %s" r i
                    products.(Random.State.int rng (Array.length products)))
             else Value.Int (Random.State.int rng 1000000)))
  done;
  t
