(* Relational substrate: values, three-valued logic, schemas, tables,
   rowset comparison. *)

module Value = Aqua_relational.Value
module Sql_type = Aqua_relational.Sql_type
module Schema = Aqua_relational.Schema
module Table = Aqua_relational.Table
module Rowset = Aqua_relational.Rowset
module Node = Aqua_xml.Node
module Mcore = Aqua_multicore.Mcore

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)

let three_valued_logic () =
  let open Value in
  check_bool "t and u" true (and3 True Unknown = Unknown);
  check_bool "f and u" true (and3 False Unknown = False);
  check_bool "t or u" true (or3 True Unknown = True);
  check_bool "f or u" true (or3 False Unknown = Unknown);
  check_bool "not u" true (not3 Unknown = Unknown);
  check_bool "null equality is unknown" true (equal3 Null (Int 1) = Unknown);
  check_bool "null vs null is unknown" true (equal3 Null Null = Unknown)

let sql_comparison () =
  check_bool "null sorts first" true (Value.compare_sql Value.Null (Value.Int 0) < 0);
  check_bool "int vs num" true
    (Value.compare_sql (Value.Int 2) (Value.Num 2.5) < 0);
  check_bool "strings" true
    (Value.compare_sql (Value.Str "a") (Value.Str "b") < 0);
  (match Value.compare_sql (Value.Int 1) (Value.Str "x") with
  | exception Value.Type_error _ -> ()
  | _ -> Alcotest.fail "int vs string compared")

let group_keys () =
  check_bool "nulls group together" true
    (Value.group_key Value.Null = Value.group_key Value.Null);
  check_bool "int and equal num share keys" true
    (Value.group_key (Value.Int 3) = Value.group_key (Value.Num 3.0))

let promotion () =
  check_bool "int+decimal" true
    (Sql_type.promote Sql_type.Integer (Sql_type.Decimal None)
    = Some (Sql_type.Decimal None));
  check_bool "decimal+double" true
    (Sql_type.promote (Sql_type.Decimal None) Sql_type.Double
    = Some Sql_type.Double);
  check_bool "varchar not numeric" true
    (Sql_type.promote (Sql_type.Varchar None) Sql_type.Integer = None);
  check_bool "comparable strings" true
    (Sql_type.comparable (Sql_type.Char 3) (Sql_type.Varchar None));
  check_bool "date and timestamp comparable" true
    (Sql_type.comparable Sql_type.Date Sql_type.Timestamp);
  check_bool "int and varchar not comparable" false
    (Sql_type.comparable Sql_type.Integer (Sql_type.Varchar None))

let schema_checks () =
  let schema =
    [ Schema.column ~nullable:false "ID" Sql_type.Integer;
      Schema.column "NAME" (Sql_type.Varchar (Some 10)) ]
  in
  check_bool "valid row" true
    (Schema.check_row schema [| Value.Int 1; Value.Str "x" |] = Ok ());
  check_bool "null ok when nullable" true
    (Schema.check_row schema [| Value.Int 1; Value.Null |] = Ok ());
  check_bool "null rejected when not nullable" true
    (Result.is_error (Schema.check_row schema [| Value.Null; Value.Str "x" |]));
  check_bool "arity" true
    (Result.is_error (Schema.check_row schema [| Value.Int 1 |]));
  check_bool "type mismatch" true
    (Result.is_error
       (Schema.check_row schema [| Value.Str "oops"; Value.Str "x" |]))

let table_flat_xml () =
  let t =
    Table.create "T"
      [ Schema.column ~nullable:false "A" Sql_type.Integer;
        Schema.column "B" (Sql_type.Varchar None) ]
  in
  Table.insert t [ Value.Int 1; Value.Str "x" ];
  Table.insert t [ Value.Int 2; Value.Null ];
  let xml = Table.to_flat_xml t in
  Alcotest.(check int) "two rows" 2 (List.length xml);
  (match xml with
  | [ r1; r2 ] ->
    check_str "row element name" "ns0:T" (Option.get (Node.name_of r1));
    Alcotest.(check int) "row 1 has both columns" 2
      (List.length (Node.children_elements r1));
    Alcotest.(check int) "null column is absent" 1
      (List.length (Node.children_elements r2))
  | _ -> Alcotest.fail "wrong row count");
  (match Table.insert t [ Value.Str "bad"; Value.Null ] with
  | exception Value.Type_error _ -> ()
  | _ -> Alcotest.fail "bad row accepted")

(* The lists a table keeps per version. *)

let int_table ids =
  let t =
    Table.create "T" [ Schema.column ~nullable:false "ID" Sql_type.Integer ]
  in
  List.iter (fun i -> Table.insert t [ Value.Int i ]) ids;
  t

let insert_int t i = Table.insert t [ Value.Int i ]
let first n l = List.filteri (fun i _ -> i < n) l

let same_elements a b =
  List.length a = List.length b && List.for_all2 ( == ) a b

let one_list_per_snapshot () =
  let t = int_table [ 1; 2; 3 ] in
  let at3 = Table.pin [ t ] in
  check_bool "not built before the first read" true (Table.built_items t = None);
  let items = Table.items t in
  check_bool "built by it" true
    (match Table.built_items t with Some l -> l == items | None -> false);
  check_bool "every call, the same items" true (Table.items t == items);
  check_bool "every call, the same rows" true (Table.rows t == Table.rows t);
  insert_int t 4;
  check_bool "a pinned snapshot keeps its list" true
    (Table.within at3 (fun () -> Table.items t) == items);
  check_bool "the new version is not built yet" true (Table.built_items t = None)

let extension_shares_items () =
  let t = int_table [ 1; 2; 3 ] in
  let three = Table.items t and three_rows = Table.rows t in
  insert_int t 4;
  insert_int t 5;
  let five = Table.items t in
  Alcotest.(check int) "five elements" 5 (List.length five);
  check_bool "the older version's elements, then the new rows'" true
    (same_elements three (first 3 five));
  check_bool "rows likewise" true (same_elements three_rows (first 3 (Table.rows t)))

let ahead_cut_once () =
  let t = int_table [ 1; 2; 3 ] in
  let at3 = Table.pin [ t ] in
  insert_int t 4;
  insert_int t 5;
  let five = Table.items t in
  let pinned () = Table.within at3 (fun () -> Table.items t) in
  let three = pinned () in
  check_bool "the newer list's first elements" true
    (same_elements (first 3 five) three);
  check_bool "cut once" true (pinned () == three);
  check_bool "the newer list stays" true (Table.items t == five);
  insert_int t 6;
  check_bool "the next version extends the newest list" true
    (same_elements five (first 5 (Table.items t)))

(* Two domains reading one unbuilt snapshot at once both get the list
   one of them published. *)
let two_domains_one_list () =
  if Mcore.multicore then
    for _ = 1 to 20 do
      let t = int_table (List.init 2000 Fun.id) in
      let go = Atomic.make false in
      let read () =
        while not (Atomic.get go) do
          Mcore.cpu_relax ()
        done;
        Table.items t
      in
      let other = Mcore.Domains.spawn read in
      Atomic.set go true;
      let mine = read () in
      check_bool "one published list" true (mine == Mcore.Domains.join other)
    done

(* Built in any order, each version's rows are its first rows. *)
let rows_at_every_version () =
  let t = int_table [] in
  let views =
    List.init 8 (fun i ->
        insert_int t i;
        Table.pin [ t ])
  in
  List.iter
    (fun v ->
      let rows = Table.within (List.nth views (v - 1)) (fun () -> Table.rows t) in
      check_bool
        (Printf.sprintf "the rows at version %d" v)
        true
        (List.map (fun r -> r.(0)) rows = List.init v (fun i -> Value.Int i)))
    [ 8; 3; 5; 1; 2; 7; 6; 4 ];
  check_bool "the newest rows" true
    (List.length (Table.rows t) = 8)

let rowset_comparison () =
  let schema = [ Schema.column "A" Sql_type.Integer ] in
  let rs rows = Rowset.make schema (List.map (fun i -> [| Value.Int i |]) rows) in
  check_bool "multiset equal ignores order" true
    (Rowset.equal_as_multisets (rs [ 1; 2; 2 ]) (rs [ 2; 1; 2 ]));
  check_bool "multiset counts matter" false
    (Rowset.equal_as_multisets (rs [ 1; 2 ]) (rs [ 1; 1 ]));
  check_bool "list equality is ordered" false
    (Rowset.equal_as_lists (rs [ 1; 2 ]) (rs [ 2; 1 ]));
  check_bool "diff none on equal" true
    (Rowset.diff_summary (rs [ 1 ]) (rs [ 1 ]) = None);
  check_bool "diff reports cardinality" true
    (Rowset.diff_summary (rs [ 1 ]) (rs [ 1; 1 ]) <> None);
  check_bool "order-by projection check" true
    (Rowset.sorted_under_order_by ~keys:[ 0 ] (rs [ 1; 2 ]) (rs [ 1; 2 ]))

let value_parsing () =
  check_bool "int" true (Value.of_string Sql_type.Integer "42" = Value.Int 42);
  check_bool "decimal" true
    (Value.of_string (Sql_type.Decimal None) "4.5" = Value.Num 4.5);
  check_bool "bool" true (Value.of_string Sql_type.Boolean "true" = Value.Bool true);
  (match Value.of_string Sql_type.Integer "zap" with
  | exception Value.Type_error _ -> ()
  | _ -> Alcotest.fail "bad int accepted")

let prop_group_key_injective =
  QCheck.Test.make ~name:"group keys separate distinct ints" ~count:300
    QCheck.(pair small_int small_int)
    (fun (a, b) ->
      (a = b) = (Value.group_key (Value.Int a) = Value.group_key (Value.Int b)))

let suite =
  ( "relational",
    [ Helpers.case "three-valued logic" three_valued_logic;
      Helpers.case "sql comparison" sql_comparison;
      Helpers.case "group keys" group_keys;
      Helpers.case "type promotion" promotion;
      Helpers.case "schema checks" schema_checks;
      Helpers.case "flat xml" table_flat_xml;
      Helpers.case "a snapshot serves one list" one_list_per_snapshot;
      Helpers.case "an extension shares its predecessor's items"
        extension_shares_items;
      Helpers.case "an ahead snapshot is cut once" ahead_cut_once;
      Helpers.case "two domains building one snapshot get one list"
        two_domains_one_list;
      Helpers.case "rows at every version" rows_at_every_version;
      Helpers.case "rowset comparison" rowset_comparison;
      Helpers.case "value parsing" value_parsing;
      Helpers.qcheck prop_group_key_injective ] )
