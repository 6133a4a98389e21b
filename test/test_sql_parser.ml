(* SQL-92 lexer/parser/pretty-printer tests. *)

module A = Aqua_sql.Ast
module Parser = Aqua_sql.Parser
module Pretty = Aqua_sql.Pretty
module Lexer = Aqua_sql.Lexer

let check_bool = Alcotest.(check bool)
let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let parse = Parser.parse
let pp s = Pretty.statement_to_string (parse s)

(* parse -> print -> parse must be a fixpoint of printing *)
let roundtrip sql =
  let once = pp sql in
  let twice = Pretty.statement_to_string (parse once) in
  check_str ("fixpoint: " ^ sql) once twice

let accepted_statements =
  [ "SELECT * FROM T";
    "SELECT a, b AS bb, t.c FROM s.t";
    "SELECT DISTINCT a FROM t WHERE a > 1 AND b < 2 OR NOT c = 3";
    "SELECT * FROM a, b, c WHERE a.x = b.y";
    "SELECT * FROM a INNER JOIN b ON a.x = b.y LEFT OUTER JOIN c ON b.z = c.z";
    "SELECT * FROM a CROSS JOIN b";
    "SELECT * FROM (SELECT x FROM t) AS d WHERE d.x IS NOT NULL";
    "SELECT x FROM t WHERE x BETWEEN 1 AND 10";
    "SELECT x FROM t WHERE x NOT BETWEEN 1 AND 10";
    "SELECT x FROM t WHERE name LIKE 'A%' ESCAPE '!'";
    "SELECT x FROM t WHERE x IN (1, 2, 3)";
    "SELECT x FROM t WHERE x NOT IN (SELECT y FROM u)";
    "SELECT x FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a)";
    "SELECT x FROM t WHERE x > ALL (SELECT y FROM u)";
    "SELECT x FROM t WHERE x = ANY (SELECT y FROM u)";
    "SELECT x FROM t WHERE x = SOME (SELECT y FROM u)";
    "SELECT COUNT(*), COUNT(DISTINCT a), SUM(b), AVG(c), MIN(d), MAX(e) FROM t GROUP BY f HAVING COUNT(*) > 2";
    "SELECT a FROM t ORDER BY 1 DESC, a ASC";
    "SELECT a FROM t UNION SELECT a FROM u";
    "SELECT a FROM t UNION ALL SELECT a FROM u INTERSECT SELECT a FROM v";
    "SELECT a FROM t EXCEPT ALL SELECT a FROM u";
    "SELECT CASE WHEN a = 1 THEN 'x' ELSE 'y' END FROM t";
    "SELECT CASE a WHEN 1 THEN 'x' WHEN 2 THEN 'y' END FROM t";
    "SELECT CAST(a AS DECIMAL(10,2)), CAST(b AS VARCHAR(5)) FROM t";
    "SELECT -a + 2 * (b - 1) / 4 FROM t";
    "SELECT a || b || 'x' FROM t";
    "SELECT * FROM t WHERE d = DATE '2004-01-02'";
    "SELECT * FROM t WHERE ts = TIMESTAMP '2004-01-02 10:00:00'";
    "SELECT * FROM t WHERE tm = TIME '10:00:00'";
    "SELECT SUBSTRING(a FROM 2 FOR 3) FROM t";
    "SELECT SUBSTRING(a, 2, 3) FROM t";
    "SELECT POSITION('x' IN a) FROM t";
    "SELECT EXTRACT(YEAR FROM d) FROM t";
    "SELECT TRIM(LEADING FROM a), TRIM(a) FROM t";
    "SELECT \"Quoted Table\".\"Weird Col\" FROM \"Quoted Table\"";
    "SELECT t.* FROM t";
    "SELECT a FROM cat.sch.t";
    "SELECT a FROM t WHERE x = ? AND y > ?";
    "SELECT * FROM (a INNER JOIN b ON a.x = b.x) LEFT OUTER JOIN c ON b.y = c.y" ]

let parses_and_roundtrips () = List.iter roundtrip accepted_statements

let rejected_statements =
  [ "";
    "SELECT";
    "SELECT FROM t";
    "SELECT * FROM";
    "SELECT * FROM t WHERE";
    "SELECT * FROM t GROUP";
    "SELECT a b c FROM t";
    "SELECT * FROM t ORDER BY";
    "SELECT * FROM (SELECT a FROM t)";  (* derived table needs alias *)
    "SELECT * FROM t WHERE a NOT = 1";
    "SELECT * FROM t; SELECT * FROM u";
    "SELECT CASE END FROM t";
    "SELECT * FROM t WHERE a LIKE";
    "SELECT 'unterminated FROM t";
    "INSERT INTO t VALUES (1)" ]

let rejects_bad_syntax () =
  List.iter
    (fun sql ->
      match parse sql with
      | _ -> Alcotest.failf "accepted bad SQL: %s" sql
      | exception Parser.Parse_error _ -> ())
    rejected_statements

let precedence () =
  (* a + b * c parses as a + (b * c) *)
  (match Parser.parse_expression "a + b * c" with
  | A.Arith (A.Add, A.Column _, A.Arith (A.Mul, _, _)) -> ()
  | _ -> Alcotest.fail "multiplication should bind tighter");
  (* NOT a = 1 OR b = 2  ==  (NOT (a = 1)) OR (b = 2) *)
  (match Parser.parse_expression "NOT a = 1 OR b = 2" with
  | A.Or (A.Not (A.Cmp _), A.Cmp _) -> ()
  | _ -> Alcotest.fail "NOT should bind tighter than OR");
  (* AND binds tighter than OR *)
  (match Parser.parse_expression "a = 1 OR b = 2 AND c = 3" with
  | A.Or (A.Cmp _, A.And _) -> ()
  | _ -> Alcotest.fail "AND should bind tighter than OR")

let row_value_constructors () =
  (* desugared at parse time; verify the shapes *)
  (match Parser.parse_expression "(a, b) = (1, 2)" with
  | A.And (A.Cmp (A.Eq, _, _), A.Cmp (A.Eq, _, _)) -> ()
  | _ -> Alcotest.fail "row equality shape");
  (match Parser.parse_expression "(a, b) < (1, 2)" with
  | A.Or (A.Cmp (A.Lt, _, _), A.And (A.Cmp (A.Eq, _, _), A.Cmp (A.Lt, _, _)))
    ->
    ()
  | _ -> Alcotest.fail "row lexicographic shape");
  (match Parser.parse_expression "(a, b) <= (1, 2)" with
  | A.Or (A.Cmp (A.Lt, _, _), A.And (A.Cmp (A.Eq, _, _), A.Cmp (A.Le, _, _)))
    ->
    ()
  | _ -> Alcotest.fail "row <= keeps the final column non-strict");
  (match Parser.parse_expression "(a, b) IN ((1, 2), (3, 4))" with
  | A.Or (A.And _, A.And _) -> ()
  | _ -> Alcotest.fail "row IN shape");
  (match Parser.parse_expression "(a, b) <> (1, 2)" with
  | A.Not (A.And _) -> ()
  | _ -> Alcotest.fail "row inequality shape");
  (* degree mismatch is rejected *)
  (match Parser.parse_expression "(a, b) = (1, 2, 3)" with
  | exception Parser.Parse_error _ -> ()
  | _ -> Alcotest.fail "degree mismatch accepted");
  (* plain parenthesized expressions still parse, with parameters *)
  match parse "SELECT a FROM t WHERE (x + ?) > ? AND (y) = 1" with
  | stmt -> (
    match stmt.A.body with
    | A.Spec { A.where = Some w; _ } ->
      let params acc (e : A.expr) =
        A.fold_expr
          (fun acc e -> match e with A.Param n -> n :: acc | _ -> acc)
          acc e
      in
      Alcotest.(check (list int)) "params renumber cleanly after backtrack"
        [ 1; 2 ]
        (List.sort compare (params [] w))
    | _ -> Alcotest.fail "expected where")

let parameters_numbered () =
  let stmt = parse "SELECT a FROM t WHERE x = ? AND y IN (?, ?)" in
  let params acc (e : A.expr) =
    A.fold_expr
      (fun acc e -> match e with A.Param n -> n :: acc | _ -> acc)
      acc e
  in
  match stmt.A.body with
  | A.Spec { A.where = Some w; _ } ->
    Alcotest.(check (list int)) "param numbers" [ 1; 2; 3 ]
      (List.sort compare (params [] w))
  | _ -> Alcotest.fail "expected a where clause"

let keywords_case_insensitive () =
  roundtrip "select A from T where B like 'x%' order by 1";
  check_bool "parses" true
    (match parse "SeLeCt a FrOm t" with _ -> true)

let string_escapes () =
  match parse "SELECT * FROM t WHERE a = 'it''s'" with
  | { A.body = A.Spec { A.where = Some (A.Cmp (A.Eq, _, A.Lit (A.L_string s))); _ }; _ } ->
    check_str "doubled quote" "it's" s
  | _ -> Alcotest.fail "unexpected shape"

let comments_skipped () =
  let stmt = parse "SELECT a -- trailing\nFROM t /* block\ncomment */ WHERE a = 1" in
  match stmt.A.body with
  | A.Spec { A.where = Some _; _ } -> ()
  | _ -> Alcotest.fail "comments broke parsing"

let lexer_positions () =
  match Lexer.tokens "SELECT\n  a" with
  | [ t1; t2; _eof ] ->
    check_int "first line" 1 t1.Lexer.pos.A.line;
    check_int "second line" 2 t2.Lexer.pos.A.line;
    check_int "second col" 3 t2.Lexer.pos.A.col
  | _ -> Alcotest.fail "unexpected token count"

(* property: generated queries print -> parse -> print to a fixpoint *)
let prop_roundtrip =
  let app = Helpers.demo_app () in
  let tables = Aqua_dsp.Metadata.list_tables app in
  QCheck.Test.make ~name:"generated SQL print/parse fixpoint" ~count:300
    QCheck.(make (fun rand -> Aqua_workload.Querygen.generate rand tables)
              ~print:Pretty.statement_to_string)
    (fun stmt ->
      let once = Pretty.statement_to_string stmt in
      let twice = Pretty.statement_to_string (parse once) in
      once = twice)

let suite =
  ( "sql-parser",
    [ Helpers.case "accepted statements round-trip" parses_and_roundtrips;
      Helpers.case "rejects bad syntax" rejects_bad_syntax;
      Helpers.case "operator precedence" precedence;
      Helpers.case "parameters numbered" parameters_numbered;
      Helpers.case "row value constructors" row_value_constructors;
      Helpers.case "keyword case insensitivity" keywords_case_insensitive;
      Helpers.case "string escapes" string_escapes;
      Helpers.case "comments" comments_skipped;
      Helpers.case "lexer positions" lexer_positions;
      Helpers.qcheck prop_roundtrip ] )
