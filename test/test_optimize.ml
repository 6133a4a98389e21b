(* The FLWOR optimizer (predicate pushdown, hash equi-joins, streaming
   clause pipeline) must be semantics-preserving: optimized evaluation
   is byte-identical to the naive nested-loop pipeline, on everything
   the translator emits and on adversarial hand-written FLWORs.  The
   unoptimized path stays available as the differential oracle. *)

module X = Aqua_xquery.Ast
module Optimize = Aqua_xqeval.Optimize
module Eval = Aqua_xqeval.Eval
module Compile = Aqua_xqeval.Compile
module Error = Aqua_xqeval.Error
module Serialize = Aqua_xml.Serialize
module Server = Aqua_dsp.Server
module Connection = Aqua_driver.Connection
module Translator = Aqua_translator.Translator
module Semantic = Aqua_translator.Semantic

let check_int = Alcotest.(check int)

let parse = Aqua_xquery.Parser.parse_expr

(* Evaluate [src] four ways — interpreter and compiler, each with and
   without the optimizer — and require byte-identical serialization. *)
let quad_check ?(bindings = []) src =
  let expr = parse src in
  let ctx =
    List.fold_left
      (fun ctx (n, v) -> Eval.bind ctx n v)
      (Eval.context ()) bindings
  in
  let vars = List.map fst bindings in
  let ser items = Serialize.sequence_to_string items in
  let naive = ser (Eval.eval ctx expr) in
  let opt = ser (Eval.eval ctx (fst (Optimize.expr expr))) in
  let cnaive =
    ser (Compile.run ~bindings (Compile.compile_expr ~optimize:false ~vars expr))
  in
  let copt = ser (Compile.run ~bindings (Compile.compile_expr ~vars expr)) in
  if naive <> opt then
    Alcotest.failf "interpreter: optimizer changed the result of %s\n-- naive: %s\n-- optimized: %s"
      src naive opt;
  if naive <> cnaive then
    Alcotest.failf "compiler (naive) disagrees with interpreter on %s\n-- interp: %s\n-- compiled: %s"
      src naive cnaive;
  if naive <> copt then
    Alcotest.failf "compiler (optimized) disagrees on %s\n-- interp: %s\n-- compiled: %s"
      src naive copt

let hand_written_flwors () =
  List.iter quad_check
    [ (* plain equi-join, general comparison, with duplicates on both
         sides — emission order must match the nested loop *)
      "for $a in (1, 2, 3, 2) for $b in (2, 3, 4, 2) where $a = $b \
       return ($a * 10) + $b";
      (* value comparison (singletons) *)
      "for $a in (1, 2, 3) for $b in (2, 3) where $a eq $b return $a";
      (* multi-conjunct where: join conjunct + pushable + residual *)
      "for $a in (1, 2, 3) for $b in (2, 3, 4) where $a = $b and $b > 2 \
       and $a < 10 return ($a, $b)";
      (* untyped build side: element content casts to double under a
         general comparison, so <v>5.0</v> matches the integer 5 *)
      "for $x in (<v>5</v>, <v>5.0</v>, <v>7</v>) for $y in (5, 6) \
       where $x = $y return $y";
      (* untyped vs untyped compares as strings: "5" and "5.0" do
         NOT match even though both cast to the number 5 *)
      "for $x in (<v>5</v>) for $y in (<v>5.0</v>) where $x = $y return 1";
      "for $x in (<v>5</v>, <v>a</v>) for $y in (<v>5</v>, <v>b</v>) \
       where $x = $y return 1";
      (* empty build side / empty probe side *)
      "for $a in (1, 2) for $b in () where $a = $b return $a";
      "for $a in () for $b in (1, 2) where $a = $b return $a";
      (* empty probe key under a value comparison: no match, no error *)
      "for $a in (1, 2) let $e := () for $b in (1, 2) where $e eq $b \
       return $a";
      (* let-bound probe key between the two fors *)
      "for $a in (1, 2, 3) let $k := $a * 2 for $b in (2, 4, 6) \
       where $k = $b return $b";
      (* correlated inner source: no hash join possible, still agrees *)
      "for $a in (1, 2, 3) for $b in ($a, 2) where $a = $b return $b";
      (* barriers downstream of the join *)
      "for $a in (3, 1, 2) for $b in (2, 3) where $a = $b \
       order by $a descending return $a";
      "for $a in (1, 2, 2, 3) for $b in (2, 3, 3) where $a = $b \
       group $a as $p by $a as $k return fn:count($p)";
      (* pushdown across an order-by (not a barrier) *)
      "for $a in (3, 1, 2) order by $a return (for $b in (1, 2) \
       where $a = $b return ($a, $b))";
      (* legal shadowing: inner flwor rebinds $x after the where *)
      "for $x in (1, 2) where $x = 1 return (for $x in (5, 6) return $x)";
      (* correlated probes: the inner FLWOR's leading for joins against
         an enclosing variable, once per outer tuple *)
      "for $a in (1, 2, 3, 2) return (for $b in (2, 3, 4, 2) where $b = $a \
       return ($a * 10) + $b)";
      "for $c in (1, 2, 5) where fn:empty(for $p in (2, 3, 2) where $p = $c \
       return 1) return $c";
      "for $c in (1, 2, 5) where fn:exists(for $p in (2, 3, 2) where $c = $p \
       return 1) return $c";
      "for $a in (1, 2, 2, 3) return fn:count(for $b in (2, 2, 3) where \
       $a eq $b return $b)";
      "for $y in (5, 6) return (for $x in (<v>5</v>, <v>5.0</v>, <v>7</v>) \
       where $x = $y return $y)";
      (* multi-atom probe under a general comparison: existential *)
      "let $k := (1, 3) return (for $b in (1, 2, 3) where $b = $k return $b)";
      (* empty build side, residual conjunct beside the join conjunct *)
      "for $a in (1, 2) return (for $b in () where $b = $a return $a)";
      "for $a in (1, 2, 3) return (for $b in (1, 2, 3, 4) where $b > 1 and \
       $b = $a return $b)";
      (* the enclosing binder is a quantifier, and a predicate's context
         item *)
      "some $a in (1, 4) satisfies fn:exists(for $b in (2, 4) where $b = $a \
       return $b)";
      "(1, 2, 3)[fn:exists(for $b in (2, 3) where $b = . return 1)]";
      (* the inner FLWOR's return shadows the probed variable; a nested
         for or hash join rebinding an outer name must not copy the
         outer, unmaterialized column *)
      "for $x in (1, 2) return (for $y in (1, 2, 3) where $y = $x return \
       (for $x in (7) return $x + $y))";
      "for $z in (1, 2) return (for $y in (1, 2) return (for $x in (3, 4) \
       for $z in (3, 4) where $z = $x return $z + $y))";
      (* ...unless a group clause restores the entry scope, where the
         name means the outer column again *)
      "for $x in (1, 2) return (for $x in (3, 4) group $x as $p by $x \
       as $k return ($x, $k))";
      "for $x in (1, 2) return (for $y in (5, 6) return (for $x in (3, 4) \
       group $x as $p by $x as $k return ($x, $k, $y)))";
      (* two correlated levels *)
      "for $a in (1, 2) return (for $b in (1, 2) where $b = $a return \
       (for $c in (1, 2, 1) where $c = $b return ($a, $b, $c)))" ]

(* A join whose build key reads an enclosing variable is not reusable:
   even over one physically shared source sequence, each invocation
   must build its own table. *)
let non_reusable_build_agrees () =
  let ints l =
    List.map (fun i -> Aqua_xml.Item.Atomic (Aqua_xml.Atomic.Integer i)) l
  in
  quad_check
    ~bindings:[ ("s", ints [ 1; 2 ]) ]
    "for $a in (1, 2) return (for $x in (2, 3) for $b in $s where $b + $a = \
     $x return ($a, $b))"

let accepted_cast_divergence () =
  (* documented divergence (see lib/xqeval/join_table.ml): the nested
     loop raises Cast_error when a general comparison meets a pair it
     cannot cast ("hello" = 5); the hash join treats such pairs as
     non-matching.  The translator always casts both join sides, so
     translated SQL never reaches this corner — pin the behaviour of
     both paths so a change is deliberate. *)
  let expr =
    parse
      "for $x in (<v>5</v>, <v>hello</v>) for $y in (5, 6) \
       where $x = $y return $y"
  in
  (match Eval.eval (Eval.context ()) expr with
  | _ -> Alcotest.fail "nested loop was expected to raise Cast_error"
  | exception Aqua_xml.Atomic.Cast_error _ -> ());
  (match Compile.run (Compile.compile_expr expr) with
  | [ Aqua_xml.Item.Atomic a ] when Aqua_xml.Atomic.to_lexical a = "5" -> ()
  | seq ->
    Alcotest.failf "hash join: expected (5), got %s"
      (Serialize.sequence_to_string seq));
  (* the correlated probe carries the same divergence into a nested
     FLWOR; translated SQL still casts both sides, and a top-level
     comparison against a prepared parameter is never rewritten *)
  let correlated =
    parse
      "for $y in (5, 6) return (for $x in (<v>5</v>, <v>hello</v>) \
       where $x = $y return $y)"
  in
  (match Eval.eval (Eval.context ()) correlated with
  | _ -> Alcotest.fail "correlated nested loop was expected to raise Cast_error"
  | exception Aqua_xml.Atomic.Cast_error _ -> ());
  let ser = Serialize.sequence_to_string in
  Alcotest.(check string) "correlated probe: interpreter" "5"
    (ser
       (Eval.eval (Eval.context ())
          (fst (Optimize.expr correlated))));
  Alcotest.(check string) "correlated probe: compiled" "5"
    (ser (Compile.run (Compile.compile_expr correlated)))

let report_counts () =
  let counts src =
    let _, r = Optimize.expr (parse src) in
    (r.Optimize.pushed_predicates, r.Optimize.hash_joins)
  in
  (* recognized equi-join *)
  let p, h = counts "for $a in (1, 2) for $b in (2, 3) where $a = $b return $a" in
  check_int "join: pushed" 0 p;
  check_int "join: hash joins" 1 h;
  (* constant comparand is not a join key; the $a conjunct is pushed
     above the second for *)
  let p, h = counts
      "for $a in (1, 2) for $b in (3, 4) where $a = 1 and $b = 3 return 1"
  in
  check_int "const: pushed" 1 p;
  check_int "const: hash joins" 0 h;
  (* correlated source blocks the rewrite *)
  let _, h = counts "for $a in (1, 2) for $b in ($a, 2) where $a = $b return 1" in
  check_int "correlated: hash joins" 0 h;
  (* value comparison is also recognized *)
  let _, h = counts "for $a in (1, 2) for $b in (2, 3) where $a eq $b return 1" in
  check_int "value cmp: hash joins" 1 h;
  (* the rewritten clause really is a Hash_join node *)
  let optimized, _ =
    Optimize.expr (parse "for $a in (1, 2) for $b in (2, 3) where $a = $b return $a")
  in
  let found = ref false in
  (match optimized with
  | X.Flwor { clauses; _ } ->
    List.iter (function X.Hash_join _ -> found := true | _ -> ()) clauses
  | _ -> ());
  Alcotest.(check bool) "Hash_join clause present" true !found;
  (* correlated probes: a leading for of a nested FLWOR whose comparand
     reads only enclosing variables *)
  let correlated src =
    let _, r = Optimize.expr (parse src) in
    (r.Optimize.hash_joins, r.Optimize.correlated_probes)
  in
  let check_probe what src expected =
    let h, c = correlated src in
    check_int (what ^ ": hash joins") expected h;
    check_int (what ^ ": correlated probes") expected c
  in
  check_probe "anti-join"
    "for $c in (1, 2) where fn:empty(for $p in (2, 3) where $p = $c return 1) \
     return $c"
    1;
  check_probe "semi-join"
    "for $c in (1, 2) where fn:exists(for $p in (2, 3) where $c eq $p \
     return 1) return $c"
    1;
  (* negative cases: the rule must not fire *)
  check_probe "source reads the outer variable"
    "for $a in (1, 2) return (for $b in ($a, 2) where $b = $a return 1)" 0;
  check_probe "constant comparand"
    "for $a in (1, 2) return (for $b in (2, 3) where $b = 5 return $a)" 0;
  check_probe "external variable only"
    "for $b in (2, 3) where $b = $param1 return $b" 0;
  check_probe "inner FLWOR rebinds the probed variable"
    "for $a in (1, 2) return (for $b in (2, 3) where $b = $a let $a := 7 \
     return $a)"
    0;
  check_probe "build key reads the outer variable"
    "for $a in (1, 2) return (for $b in (2, 3) where $b + $a = $a * 2 \
     return 1)"
    0;
  (* a let before the for makes it non-leading: an ordinary join on the
     let-bound key, not a correlated probe *)
  let h, c =
    correlated
      "for $a in (1, 2) return (let $k := $a for $b in (2, 3) where $b = $k \
       return 1)"
  in
  check_int "let-bound key: hash joins" 1 h;
  check_int "let-bound key: correlated probes" 0 c;
  (* the rewritten inner clause is a Hash_join node *)
  let optimized, _ =
    Optimize.expr
      (parse
         "for $c in (1, 2) where fn:empty(for $p in (2, 3) where $p = $c \
          return 1) return $c")
  in
  let inner_join =
    match optimized with
    | X.Flwor
        { clauses =
            [ _; X.Where (X.Call ("fn:empty", [ X.Flwor { clauses; _ } ])) ];
          _ } -> (
      match clauses with
      | [ X.Hash_join { var = "p"; _ } ] -> true
      | _ -> false)
    | _ -> false
  in
  Alcotest.(check bool) "inner Hash_join clause present" true inner_join;
  (* the rule fires exactly when the compiler may reuse the build *)
  Alcotest.(check bool) "reusable: closed source" true
    (Optimize.reusable_build ~var:"p" ~source:(parse "ns:P()")
       ~build_key:(parse "xs:int($p/K)"));
  Alcotest.(check bool) "not reusable: source reads a variable" false
    (Optimize.reusable_build ~var:"p" ~source:(parse "$c/P")
       ~build_key:(parse "$p/K"));
  Alcotest.(check bool) "not reusable: build key reads a variable" false
    (Optimize.reusable_build ~var:"p" ~source:(parse "ns:P()")
       ~build_key:(parse "$p/K + $c"))

let where_before_binding_fails () =
  let src = "for $x in (1, 2) where $y = 1 for $y in (3, 4) return $x" in
  let expr = parse src in
  (match Eval.eval (Eval.context ()) expr with
  | _ -> Alcotest.fail "interpreter accepted a where before its binding"
  | exception Error.Dynamic_error msg ->
    Helpers.assert_contains ~needle:"$y" msg;
    Helpers.assert_contains ~needle:"before it is bound" msg);
  (match Compile.compile_expr expr with
  | _ -> Alcotest.fail "compiler accepted a where before its binding"
  | exception Compile.Compile_error msg ->
    Helpers.assert_contains ~needle:"$y" msg);
  (* the check fires even with the optimizer off *)
  match Eval.eval (Eval.context ()) expr with
  | _ -> Alcotest.fail "unoptimized interpreter accepted the hazard"
  | exception Error.Dynamic_error _ -> ()

(* Both server flavors reject a where before its binding, an unknown
   function and an unknown variable with the interpreter's dynamic
   error (SQLSTATE 38000): the compiled engine's rejection keeps that
   class. *)
let server_errors_keep_their_class () =
  let app = Helpers.demo_app () in
  List.iter
    (fun src ->
      let q = Aqua_xquery.Parser.parse_query src in
      List.iter
        (fun (flavor, srv) ->
          match Server.execute srv q with
          | _ -> Alcotest.failf "%s server accepted %s" flavor src
          | exception Error.Dynamic_error _ -> ())
        [ ("compiled", Server.create app);
          ("interpreter", Server.create ~optimize:false app) ])
    [ "for $x in (1, 2) where $y = 1 for $y in (3, 4) return $x";
      "fn:bogus()";
      "$nope" ]

(* Paper-style SQL (Examples 5-10 territory): outer joins, multi-way
   joins, correlated subqueries.  The optimized server must return the
   same serialized XML as the unoptimized one, interpreted and
   compiled. *)
let sql_cases =
  [ "SELECT C.CUSTOMERNAME, O.AMOUNT FROM CUSTOMERS C, PO_CUSTOMERS O \
     WHERE C.CUSTOMERID = O.CUSTOMERID";
    "SELECT C.CUSTOMERNAME, O.AMOUNT FROM CUSTOMERS C, PO_CUSTOMERS O \
     WHERE C.CUSTOMERID = O.CUSTOMERID AND O.AMOUNT > 100";
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C LEFT OUTER JOIN \
     PAYMENTS P ON C.CUSTOMERID = P.CUSTID";
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C RIGHT OUTER JOIN \
     PAYMENTS P ON C.CUSTOMERID = P.CUSTID";
    "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C FULL OUTER JOIN \
     PAYMENTS P ON C.CUSTOMERID = P.CUSTID";
    "SELECT X.CUSTOMERNAME, Y.ORDERID, Z.PAYMENT FROM CUSTOMERS X INNER \
     JOIN PO_CUSTOMERS Y ON X.CUSTOMERID = Y.CUSTOMERID LEFT OUTER JOIN \
     PAYMENTS Z ON X.CUSTOMERID = Z.CUSTID";
    "SELECT C.CUSTOMERNAME, O.AMOUNT, P.PAYMENT FROM CUSTOMERS C, \
     PO_CUSTOMERS O, PAYMENTS P WHERE C.CUSTOMERID = O.CUSTOMERID AND \
     C.CUSTOMERID = P.CUSTID";
    "SELECT A.CUSTOMERID FROM CUSTOMERS A INNER JOIN CUSTOMERS B ON \
     A.CUSTOMERID = B.CUSTOMERID";
    "SELECT L.CUSTOMERNAME, R.CUSTOMERNAME FROM CUSTOMERS L INNER JOIN \
     CUSTOMERS R ON L.TIER = R.TIER WHERE L.CUSTOMERID < R.CUSTOMERID";
    "SELECT CUSTOMERNAME FROM CUSTOMERS C WHERE EXISTS (SELECT 1 FROM \
     PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID AND P.PAYMENT > 100)";
    "SELECT (SELECT COUNT(*) FROM PAYMENTS P WHERE P.CUSTID = \
     C.CUSTOMERID) NPAY FROM CUSTOMERS C";
    "SELECT CUSTOMERNAME FROM CUSTOMERS C WHERE NOT EXISTS (SELECT 1 FROM \
     PAYMENTS P WHERE P.CUSTID = C.CUSTOMERID)";
    (* PAYMENTS also scanned at the top: the correlated probe's source
       becomes the shared-scan binding *)
    "SELECT P2.PAYMENTID FROM PAYMENTS P2 WHERE EXISTS (SELECT 1 FROM \
     PAYMENTS P WHERE P.CUSTID = P2.CUSTID AND P.PAYMENTID <> \
     P2.PAYMENTID)";
    "SELECT C.CITY, COUNT(*) N, SUM(P.AMOUNT) T FROM CUSTOMERS C INNER \
     JOIN PO_CUSTOMERS P ON C.CUSTOMERID = P.CUSTOMERID GROUP BY C.CITY \
     ORDER BY T DESC" ]

let sql_agreement () =
  let app = Helpers.demo_app () in
  let env = Semantic.env_of_application app in
  let naive = Server.create ~optimize:false app in
  let opt = Server.create app in
  List.iter
    (fun sql ->
      let t = Translator.translate env sql in
      let xq = t.Translator.xquery in
      let ser items = Serialize.sequence_to_string items in
      let a = ser (Server.execute naive xq) in
      let b = ser (Server.execute opt xq) in
      if a <> b then
        Alcotest.failf "optimizer changed the result of %s\n-- naive:\n%s\n-- optimized:\n%s"
          sql a b;
      let pa = ser (Server.execute_prepared (Server.prepare naive xq)) in
      let pb = ser (Server.execute_prepared (Server.prepare opt xq)) in
      if a <> pa || a <> pb then
        Alcotest.failf "compiled execution diverges on %s" sql)
    sql_cases

let engine_join_agreement () =
  (* the SQL engine's hash path must match its own nested loop — the
     oracle's oracle *)
  let app = Helpers.demo_app () in
  let hash_env = Aqua_sqlengine.Engine.env_of_application app in
  let loop_env = Aqua_sqlengine.Engine.env_of_application ~optimize:false app in
  List.iter
    (fun sql ->
      let a = Aqua_sqlengine.Engine.execute_sql loop_env sql in
      let b = Aqua_sqlengine.Engine.execute_sql hash_env sql in
      match Aqua_relational.Rowset.diff_summary a b with
      | None -> ()
      | Some msg -> Alcotest.failf "engine hash join diverges on %s: %s" sql msg)
    [ "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C INNER JOIN \
       PAYMENTS P ON C.CUSTOMERID = P.CUSTID";
      "SELECT C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C INNER JOIN \
       PAYMENTS P ON C.CUSTOMERID = P.CUSTID AND P.PAYMENT > 100";
      "SELECT L.CUSTOMERNAME FROM CUSTOMERS L INNER JOIN CUSTOMERS R ON \
       L.TIER = R.TIER AND L.CUSTOMERID < R.CUSTOMERID" ]

(* ---------------------------------------------------------------- *)
(* Randomized corpus: the optimizer is invisible on everything the
   generator can produce. *)

let prop_corpus_identical =
  let app =
    Aqua_workload.Datagen.application
      { Aqua_workload.Datagen.customers = 12; orders = 25;
        lines_per_order = 2; payments = 18 }
  in
  let tables = Aqua_dsp.Metadata.list_tables app in
  let env = Semantic.env_of_application app in
  let naive = Server.create ~optimize:false app in
  let opt = Server.create app in
  QCheck.Test.make
    ~name:"optimized execution is byte-identical on generated statements"
    ~count:150
    QCheck.(
      make
        (fun rand -> Aqua_workload.Querygen.generate rand tables)
        ~print:Aqua_sql.Pretty.statement_to_string)
    (fun stmt ->
      let sql = Aqua_sql.Pretty.statement_to_string stmt in
      let t = Translator.translate env sql in
      let xq = t.Translator.xquery in
      let ser items = Serialize.sequence_to_string items in
      let a = ser (Server.execute naive xq) in
      let b = ser (Server.execute opt xq) in
      let c = ser (Server.execute_prepared (Server.prepare opt xq)) in
      if a <> b || a <> c then
        QCheck.Test.fail_reportf
          "optimizer diverges on: %s\n-- naive:\n%s\n-- optimized:\n%s\n-- compiled:\n%s"
          sql a b c
      else true)

(* ---------------------------------------------------------------- *)
(* Constructor fusion: F1 unnests a let-bound RECORDSET, F2 reads
   $v/C through the record constructor, F3 feeds group kernels from
   it.  Every fused plan must agree with the unfused one, byte for
   byte, under the interpreter and the compiler. *)

let fusions_of e = (snd (Optimize.expr e)).Optimize.fusions
let optimized_text src =
  Aqua_xquery.Pretty.expr_to_string (fst (Optimize.expr (parse src)))

let shape_notes src = Compile.shape (Compile.compile_expr (parse src))

let occurrences ~needle hay =
  let n = String.length needle in
  let rec go i acc =
    if i + n > String.length hay then acc
    else if String.sub hay i n = needle then go (i + n) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let fusion_rules () =
  let fires what src =
    quad_check src;
    if fusions_of (parse src) = 0 then
      Alcotest.failf "%s: expected a constructor fusion on %s" what src
  in
  let silent what src =
    quad_check src;
    check_int (what ^ ": no fusion") 0 (fusions_of (parse src))
  in
  (* F1 + F2: the derived-table shape; nothing reads the record whole,
     so it is not built at all *)
  let src =
    "let $t := <RECORDSET>{for $x in (1, 2, 3) let $y := $x[. > 1] return \
     <RECORD><A>{$x}</A>{if (fn:empty($y)) then () else <B>{$y}</B>}\
     </RECORD>}</RECORDSET> \
     for $v in $t/RECORD where fn:data($v/A) > 1 \
     return (fn:data($v/A), fn:count($v/B), fn:exists($v/B), fn:empty($v/Z))"
  in
  fires "derived table" src;
  let text = optimized_text src in
  check_int "no RECORDSET left" 0 (occurrences ~needle:"<RECORDSET>" text);
  check_int "record not built" 0 (occurrences ~needle:"<RECORD>" text);
  (* a sequence of constructor FLWORs distributes over the continuation
     (the outer-join / UNION ALL shape) *)
  fires "union all"
    "let $t := <RECORDSET>{(for $x in (1, 2) return <R><A>{$x}</A></R>, \
     for $y in (7) return <R><A>{$y * 10}</A></R>)}</RECORDSET> \
     for $v in $t/R return fn:data($v/A) + 1";
  (* GROUP BY: the kernels read through the constructor, so the
     columnar engine never builds the record -- when building it
     cannot raise; [$x mod 2] can *)
  let group xs row =
    "let $t := <RECORDSET>{for $x in " ^ xs ^ " return " ^ row
    ^ "}</RECORDSET> for $v in $t/R group $v as $p by fn:data($v/K) as $k \
       return ($k, fn:count($p), fn:sum($p/V), fn:max($p/V))"
  in
  let src = group "(1, 2, 2, 3)" "<R><K>{$x mod 2}</K><V>{$x}</V></R>" in
  fires "group by" src;
  check_int "a record that may raise is built" 0
    (occurrences ~needle:"not built" (String.concat "\n" (shape_notes src)));
  let src =
    group
      "(<a><k>1</k><w>1</w></a>, <a><k>0</k><w>2</w></a>, \
       <a><k>0</k><w>2</w></a>, <a><k>1</k><w>3</w></a>)"
      "<R><K>{fn:data($x/k)}</K><V>{fn:data($x/w)}</V></R>"
  in
  fires "group by, a record that cannot raise" src;
  Helpers.assert_contains ~needle:"$v's record not built"
    (String.concat "\n" (shape_notes src));
  (* ORDER BY over finished records: [return $row] is inlined *)
  let src =
    "let $t := <RECORDSET>{for $x in (3, 1, 2) return <R><A>{$x}</A></R>}\
     </RECORDSET> for $row in $t/R order by fn:data($row/A) descending \
     return $row"
  in
  fires "order by" src;
  check_int "return inlined" 0 (occurrences ~needle:"let $row" (optimized_text src));
  (* nested layers: the wrapper over a derived table *)
  fires "two layers"
    "fn:string-join(let $a := <RECORDSET>{let $t := <RECORDSET>{for $x in \
     (1, 2) return <R><A>{$x}</A></R>}</RECORDSET> for $v in $t/R return \
     <R><B>{fn:data($v/A)}</B></R>}</RECORDSET> for $w in $a/R return \
     fn:string(fn:data($w/B)), \",\")";
  (* negative: $t is read twice *)
  silent "$t read twice"
    "let $t := <RECORDSET>{for $x in (1, 2) return <R><A>{$x}</A></R>}\
     </RECORDSET> for $v in $t/R return (fn:data($v/A), fn:count($t/R))";
  (* negative: B's return is not a constructor *)
  silent "return not a constructor"
    "let $t := <RECORDSET>{for $x in (1, 2) return <R><A>{$x}</A></R>/A}\
     </RECORDSET> for $v in $t/R return fn:data($v/A)";
  (* negative: a binding of B captures a name the continuation reads *)
  silent "capture clash"
    "for $y in (10, 20) let $t := <RECORDSET>{for $y in (1, 2) return \
     <R><A>{$y}</A></R>}</RECORDSET> for $v in $t/R return ($y, \
     fn:data($v/A))";
  (* a nested FLWOR's rebinding of $v ends at its group, which puts
     the outer $v back: the read past the group keeps the record... *)
  silent "shadowed past a group"
    "let $v := <R><A>{1}</A></R> return (for $v in (1, 2) group $v as $p \
     by $v as $k return $v)";
  (* ...or is itself fused *)
  fires "field read past a shadowing group"
    "let $v := <R><A>{1}</A></R> return (for $v in (1, 2) group $v as $p \
     by $v as $k return fn:data($v/A))";
  (* negative: a whole-record read keeps the constructor *)
  let whole =
    "let $t := <RECORDSET>{for $x in (1, 2) return <R><A>{$x}</A></R>}\
     </RECORDSET> for $v in $t/R return ($v, fn:data($v/A), \
     fn:string($v), $v/*)"
  in
  fires "whole record" whole;
  check_int "whole read keeps the record" 1
    (occurrences ~needle:"let $v := <R>" (optimized_text whole));
  (* negative: a non-kernel partition use keeps the record (and the
     columnar engine materializes the partition) *)
  let src =
    "let $t := <RECORDSET>{for $x in (1, 2, 2) return <R><K>{$x}</K></R>}\
     </RECORDSET> for $v in $t/R group $v as $p by fn:data($v/K) as $k \
     return ($k, $p)"
  in
  fires "non-kernel partition" src;
  check_int "record kept for the partition" 1
    (occurrences ~needle:"let $v := <R>" (optimized_text src));
  let notes = String.concat "\n" (shape_notes src) in
  Helpers.assert_contains ~needle:"materializes the partition" notes;
  check_int "no record-elided note" 0 (occurrences ~needle:"not built" notes)

(* fn:data(<C>{E}</C>) is one untypedAtomic holding what the
   constructor stores, never the empty sequence *)
let content_data_exact () =
  let module Item = Aqua_xml.Item in
  let module Atomic = Aqua_xml.Atomic in
  let module Functions = Aqua_xqeval.Functions in
  let show seq = Serialize.sequence_to_string seq in
  let untyped seq =
    match seq with [ Item.Atomic (Atomic.Untyped s) ] -> Some s | _ -> None
  in
  Alcotest.(check (option string)) "empty content is \"\"" (Some "")
    (untyped (Functions.content_data []));
  Alcotest.(check (option string)) "atomics joined by a space" (Some "1 2")
    (untyped (Functions.content_data [ Item.Atomic (Atomic.Integer 1);
                                       Item.Atomic (Atomic.Integer 2) ]));
  (* and the fused reads agree with the constructed element *)
  let src =
    "let $t := <RECORDSET>{for $x in (1) return <R><C>{()}</C><D>{(1, 2)}</D>\
     </R>}</RECORDSET> for $v in $t/R return (fn:count(fn:data($v/C)), \
     fn:data($v/C) = \"\", fn:data($v/D))"
  in
  quad_check src;
  Alcotest.(check string) "exact content atomization" "1 true 1 2"
    (show (Compile.run (Compile.compile_expr (parse src))));
  Helpers.assert_contains ~needle:"aqua:content-data" (optimized_text src)

(* The translator's shapes: each report statement and paper Examples
   3-12, bare and under the section 4 wrapper. *)
let report_statements =
  [ "SELECT O.CUSTOMERID, COUNT(*) N, SUM(O.PRIORITY) S, AVG(O.PRIORITY) A, \
     MIN(O.PRIORITY) MN, MAX(O.PRIORITY) MX FROM ORDERS O GROUP BY \
     O.CUSTOMERID";
    "SELECT C.CUSTOMERID, COUNT(*) N, SUM(O.PRIORITY) S FROM CUSTOMERS C, \
     ORDERS O WHERE C.CUSTOMERID = O.CUSTOMERID GROUP BY C.CUSTOMERID";
    "SELECT INFO.CID, COUNT(*) N, MAX(INFO.PRI) P FROM (SELECT CUSTOMERID \
     CID, PRIORITY PRI FROM ORDERS WHERE PRIORITY > 1) AS INFO GROUP BY \
     INFO.CID ORDER BY N DESC";
    "SELECT C.CUSTOMERID, C.CUSTOMERNAME, P.PAYMENT FROM CUSTOMERS C LEFT \
     OUTER JOIN PAYMENTS P ON C.CUSTOMERID = P.CUSTID";
    "SELECT O.STATUS, COUNT(*) N, SUM(L.QTY) Q FROM ORDERS O INNER JOIN \
     ORDERLINES L ON O.ORDERID = L.ORDERID GROUP BY O.STATUS" ]

let paper_statements =
  [ "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERNAME = 'Sue'";
    "SELECT CUSTOMERID ID FROM CUSTOMERS";
    "SELECT * FROM CUSTOMERS";
    "SELECT INFO.ID, INFO.NAME FROM (SELECT CUSTOMERID ID, CUSTOMERNAME NAME \
     FROM CUSTOMERS) AS INFO WHERE INFO.ID > 10";
    "SELECT CUSTOMERS.CUSTOMERID, PAYMENTS.PAYMENT FROM CUSTOMERS LEFT OUTER \
     JOIN PAYMENTS ON CUSTOMERS.CUSTOMERID = PAYMENTS.CUSTID";
    "SELECT CUSTOMERS.CUSTOMERNAME, COUNT(PO_CUSTOMERS.ORDERID) N FROM \
     CUSTOMERS, PO_CUSTOMERS WHERE CUSTOMERS.CUSTOMERID = \
     PO_CUSTOMERS.CUSTOMERID GROUP BY CUSTOMERS.CUSTOMERID, \
     CUSTOMERS.CUSTOMERNAME ORDER BY N DESC" ]

(* A dead record over a physical scan's rows is not built; over a
   logical service, whose body may return atomics, [$x/C] can raise,
   so the record stays and every evaluator raises alike. *)
let dead_records_keep_errors () =
  let module Artifact = Aqua_dsp.Artifact in
  let module Schema = Aqua_relational.Schema in
  let module Sql_type = Aqua_relational.Sql_type in
  let app = Helpers.demo_app () in
  ignore
    (Artifact.add_logical_service app ~project:"Views" ~name:"ATOMS"
       [ { Artifact.fn_name = "ATOMS";
           params = [];
           element_name = "ATOMS";
           columns = [ Schema.column "C" Sql_type.Integer ];
           body = Artifact.logical_body_of_text "(1, 2)" } ]);
  let query src =
    let record x =
      "for $x in " ^ x ^ " return <RECORD><C>{fn:data($x/CUSTOMERID)}</C>\
       </RECORD>"
    in
    Aqua_xquery.Parser.parse_query
      ("import schema namespace v = \"ld:Views/ATOMS\" at \
        \"ld:Views/schemas/ATOMS.xsd\";\n\
        import schema namespace c = \"ld:TestDataServices/CUSTOMERS\" at \
        \"ld:TestDataServices/schemas/CUSTOMERS.xsd\";\n\
        let $t := <RECORDSET>{" ^ src record ^ "}</RECORDSET> \
        for $v in $t/RECORD return 1")
  in
  let built q =
    let optimized, _ =
      Optimize.query
        ~node_fns:(Server.physical_fns app q.X.prolog.X.imports)
        q
    in
    occurrences ~needle:"<RECORD>"
      (Aqua_xquery.Pretty.query_to_string optimized)
  in
  let servers =
    [ Server.create ~optimize:false app; Server.create app;
      Server.create ~scan_cache:false app ]
  in
  let ser q srv = Serialize.sequence_to_string (Server.execute srv q) in
  (* a single scan, and a repeated one *)
  List.iter
    (fun src ->
      let scan = query (fun record -> src record "c:CUSTOMERS()") in
      check_int "physical rows: record not built" 0 (built scan);
      let expected = ser scan (List.hd servers) in
      List.iter
        (fun srv ->
          Alcotest.(check string) "physical rows agree" expected (ser scan srv))
        servers;
      let atoms = query (fun record -> src record "v:ATOMS()") in
      Alcotest.(check bool) "logical rows: record kept" true (built atoms > 0);
      List.iter
        (fun srv ->
          match Server.execute srv atoms with
          | _ -> Alcotest.fail "a child step over an atomic must raise"
          | exception Error.Dynamic_error _ -> ())
        servers)
    [ (fun record x -> record x);
      (fun record x -> "(" ^ record x ^ ", " ^ record x ^ ")") ]

let fused_translations () =
  let agree app sql =
    let env = Semantic.env_of_application app in
    let naive = Server.create ~optimize:false app in
    let opt = Server.create app in
    let t = Translator.translate env sql in
    let ser items = Serialize.sequence_to_string items in
    List.map
      (fun (q : X.query) ->
        let a = ser (Server.execute naive q) in
        let b = ser (Server.execute opt q) in
        let c = ser (Server.execute_prepared (Server.prepare opt q)) in
        if a <> b || a <> c then
          Alcotest.failf "fused plan diverges on %s\n-- naive:\n%s\n-- \
                          optimized:\n%s\n-- compiled:\n%s" sql a b c;
        fusions_of q.X.body)
      [ t.Translator.xquery; Translator.for_text_transport t ]
  in
  let report_app =
    Aqua_workload.Datagen.application
      { Aqua_workload.Datagen.customers = 15; orders = 40;
        lines_per_order = 2; payments = 12 }
  in
  List.iter
    (fun sql ->
      match agree report_app sql with
      | [ bare; wrapped ] ->
        if bare = 0 then Alcotest.failf "no fusion in the bare plan of %s" sql;
        if wrapped <= bare then
          Alcotest.failf "the wrapper was not fused on %s" sql
      | _ -> assert false)
    report_statements;
  let paper = Test_golden_paper.paper_app () in
  List.iter
    (fun sql ->
      match agree paper sql with
      | [ _; wrapped ] ->
        if wrapped = 0 then Alcotest.failf "the wrapper was not fused on %s" sql
      | _ -> assert false)
    paper_statements;
  (* a GROUP BY keeps exactly its outer RECORDSET once fused *)
  let t =
    Translator.translate
      (Semantic.env_of_application (Helpers.demo_app ()))
      "SELECT O.CUSTOMERID, COUNT(*) N, SUM(O.AMOUNT) S FROM PO_CUSTOMERS O \
       GROUP BY O.CUSTOMERID"
  in
  let fused, _ = Optimize.query t.Translator.xquery in
  check_int "one RECORDSET after fusion" 1
    (occurrences ~needle:"<RECORDSET>" (Aqua_xquery.Pretty.query_to_string fused))

(* ---------------------------------------------------------------- *)
(* Driver-side LRU translation cache (satellite of the same PR)      *)

let lru_cache () =
  let app = Helpers.demo_app () in
  let conn = Connection.connect app in
  check_int "empty at connect" 0 (Connection.translation_cache_size conn);
  let q1 = "SELECT CUSTOMERID FROM CUSTOMERS" in
  let r1 = Aqua_driver.Result_set.to_rowset (Connection.execute_query conn q1) in
  check_int "one entry" 1 (Connection.translation_cache_size conn);
  (* a repeat hits the cache (size unchanged) and returns the same rows *)
  let r2 = Aqua_driver.Result_set.to_rowset (Connection.execute_query conn q1) in
  check_int "repeat does not grow" 1 (Connection.translation_cache_size conn);
  (match Aqua_relational.Rowset.diff_summary r1 r2 with
  | None -> ()
  | Some msg -> Alcotest.failf "cached translation changed the result: %s" msg);
  Connection.clear_translation_cache conn;
  check_int "cleared" 0 (Connection.translation_cache_size conn)

(* Plans are keyed by shape with literals lifted, so the 140 distinct
   plans come from 140 aliases, not from 140 literals. *)
let lru_eviction () =
  let app = Helpers.demo_app () in
  let conn = Connection.connect app in
  for i = 1 to 140 do
    ignore
      (Connection.execute_query conn
         (Printf.sprintf
            "SELECT CUSTOMERID AS C%d FROM CUSTOMERS WHERE CUSTOMERID > %d" i i))
  done;
  check_int "capped at capacity" 128 (Connection.translation_cache_size conn);
  (* the most recent statement is still cached: re-running it must not
     evict anything (a hit, not an insert) *)
  ignore
    (Connection.execute_query conn
       "SELECT CUSTOMERID AS C140 FROM CUSTOMERS WHERE CUSTOMERID > 140");
  check_int "hit does not churn" 128 (Connection.translation_cache_size conn)

let lru_disabled () =
  let app = Helpers.demo_app () in
  let conn = Connection.connect ~translation_cache:false app in
  ignore (Connection.execute_query conn "SELECT CUSTOMERID FROM CUSTOMERS");
  ignore (Connection.execute_query conn "SELECT CITY FROM CUSTOMERS");
  check_int "disabled cache stays empty" 0 (Connection.translation_cache_size conn)

let suite =
  ( "optimize",
    [ Helpers.case "hand-written flwors agree" hand_written_flwors;
      Helpers.case "non-reusable builds are rebuilt" non_reusable_build_agrees;
      Helpers.case "accepted cast divergence" accepted_cast_divergence;
      Helpers.case "report counts" report_counts;
      Helpers.case "where before binding fails" where_before_binding_fails;
      Helpers.case "server errors keep their class"
        server_errors_keep_their_class;
      Helpers.case "sql battery agrees" sql_agreement;
      Helpers.case "engine hash join agrees" engine_join_agreement;
      Helpers.case "constructor fusion rules" fusion_rules;
      Helpers.case "content atomization is exact" content_data_exact;
      Helpers.case "dead records keep their errors" dead_records_keep_errors;
      Helpers.case "fused translations agree" fused_translations;
      Helpers.case "lru cache basics" lru_cache;
      Helpers.case "lru cache eviction" lru_eviction;
      Helpers.case "lru cache disabled" lru_disabled;
      Helpers.qcheck prop_corpus_identical ] )
