(* The driver's plan cache (DESIGN.md section 17): statements that
   differ only in literals used as constants share one translation and
   one compiled plan, so every check here compares a statement run
   through a plan cached from a sibling against the same statement run
   afresh on a connection with the cache off. *)

module Fingerprint = Aqua_obs.Fingerprint
module Connection = Aqua_driver.Connection
module Result_set = Aqua_driver.Result_set
module Datagen = Aqua_workload.Datagen
module Querygen = Aqua_workload.Querygen
module Metadata = Aqua_dsp.Metadata
module Server = Aqua_dsp.Server
module Artifact = Aqua_dsp.Artifact
module Translator = Aqua_translator.Translator
module Semantic = Aqua_translator.Semantic
module Sqlstate = Aqua_resilience.Sqlstate
module Value = Aqua_relational.Value
module T = Aqua_core.Telemetry

(* ------------------------------------------------------------------ *)
(* The benchmark's statements, as perfbench/workloads.ml makes them    *)

let report_sizes =
  { Datagen.customers = 300; orders = 5000; lines_per_order = 2; payments = 300 }

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

let wire_sizes =
  { Datagen.customers = 200; orders = 300; lines_per_order = 2; payments = 150 }

let wire_shapes =
  [ Printf.sprintf
      "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = %d";
    Printf.sprintf "SELECT CUSTOMERNAME FROM CUSTOMERS WHERE TIER > %d";
    (fun _ -> "SELECT CITY, COUNT(*) N FROM CUSTOMERS GROUP BY CITY");
    Printf.sprintf
      "SELECT ORDERID, ORDERDATE, STATUS FROM ORDERS WHERE CUSTOMERID = %d" ]

let wire_statements = List.map (fun shape -> shape 7) wire_shapes

let adhoc_sizes =
  { Datagen.customers = 20; orders = 60; lines_per_order = 2; payments = 20 }

(* adhoc's 4096 distinct statements the reference engine evaluates *)
let adhoc_statements app ~seed =
  let rng = Random.State.make [| seed; 0xad |] in
  let tables = Metadata.list_tables app in
  let engine = Aqua_sqlengine.Engine.env_of_application app in
  let seen = Hashtbl.create 1024 in
  let out = ref [] in
  while Hashtbl.length seen < 4096 do
    let sql = Querygen.generate_sql ~profile:Querygen.default_profile rng tables in
    if not (Hashtbl.mem seen sql) then
      match Aqua_sqlengine.Engine.execute_sql engine sql with
      | _ ->
        Hashtbl.add seen sql ();
        out := sql :: !out
      | exception _ -> ()
  done;
  List.rev !out

let querygen_statements app ~seed n =
  let rng = Random.State.make [| seed |] in
  let tables = Metadata.list_tables app in
  List.init n (fun _ -> Querygen.generate_sql rng tables)

(* ------------------------------------------------------------------ *)
(* Siblings                                                           *)

(* [sql] with each literal replaced by another value of its class. *)
let sibling sql =
  let b = Buffer.create (String.length sql + 16) in
  let last = ref 0 in
  Array.iter
    (fun (l : Fingerprint.literal) ->
      Buffer.add_substring b sql !last (l.Fingerprint.pos - !last);
      Buffer.add_string b
        (match l.Fingerprint.cls with
        | 'i' -> string_of_int (int_of_string l.Fingerprint.text + 1)
        | 'n' -> l.Fingerprint.text ^ "1"
        | 'e' -> "1" ^ l.Fingerprint.text
        | _ ->
          "'"
          ^ String.concat "''"
              (String.split_on_char '\'' (l.Fingerprint.text ^ "x"))
          ^ "'");
      last := l.Fingerprint.pos + l.Fingerprint.len)
    (Fingerprint.key sql).Fingerprint.literals;
  Buffer.add_substring b sql !last (String.length sql - !last);
  Buffer.contents b

(* Rows (in order) and column metadata, or the SQLSTATE. *)
let of_result = function
  | Ok rs ->
    Ok
      ( List.map
          (fun (c : Aqua_translator.Outcol.t) -> (c.label, c.ty))
          (Result_set.columns rs),
        (Result_set.to_rowset rs).Aqua_relational.Rowset.rows )
  | Error (Sqlstate.Error e) -> Error e.Sqlstate.sqlstate
  | Error e -> raise e

let outcome conn sql =
  of_result
    (match Connection.execute_query conn sql with
    | rs -> Ok rs
    | exception e -> Error e)

let show = function
  | Ok (_, rows) -> Printf.sprintf "%d row(s)" (List.length rows)
  | Error code -> "SQLSTATE " ^ code

let with_telemetry f =
  let was = T.enabled () in
  T.set_enabled true;
  Fun.protect ~finally:(fun () -> T.set_enabled was) f

(* Run [original] (caching its plan), then its sibling through that
   plan and through a connection with the cache off: they must agree.
   Returns whether the sibling reused the plan. *)
let sibling_agrees ~cached ~fresh original =
  let sib = sibling original in
  ignore (outcome cached original);
  let hits0 = T.value T.c_cache_hits in
  let got = outcome cached sib in
  let hit = T.value T.c_cache_hits > hits0 in
  let want = outcome fresh sib in
  if compare got want <> 0 then
    Alcotest.failf "sibling %s of %s: plan cache gave %s, fresh run %s" sib
      original (show got) (show want);
  hit

let gate app statements =
  with_telemetry @@ fun () ->
  let cached = Connection.connect app in
  let fresh = Connection.connect ~translation_cache:false app in
  let fallbacks = Server.fallbacks () in
  let hits =
    List.fold_left
      (fun n sql -> if sibling_agrees ~cached ~fresh sql then n + 1 else n)
      0 statements
  in
  Alcotest.(check int) "no interpreter reruns" fallbacks (Server.fallbacks ());
  hits

let sibling_gate_workloads () =
  let report = Datagen.application ~seed:45 report_sizes in
  let hits = gate report report_statements in
  (* one report statement has a literal; all five reuse their plan *)
  Alcotest.(check int) "report siblings hit" 5 hits;
  let wire = Datagen.application ~seed:45 wire_sizes in
  Alcotest.(check int) "wire_churn siblings hit" 4 (gate wire wire_statements)

(* A long IN-list is one plan per arity: 400 lifted literals. *)
let sibling_gate_long_in_list () =
  let app = Datagen.application ~seed:45 wire_sizes in
  let sql =
    "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID IN ("
    ^ String.concat ", " (List.init 400 (fun i -> string_of_int (3 * i)))
    ^ ") AND CUSTOMERNAME <> 'x'"
  in
  Alcotest.(check int) "the sibling reuses the plan" 1 (gate app [ sql ])

let sibling_gate_adhoc () =
  let app = Datagen.application ~seed:45 adhoc_sizes in
  let adhoc = adhoc_statements app ~seed:45 in
  let generated = querygen_statements app ~seed:45 300 in
  let hits = gate app (adhoc @ generated) in
  Alcotest.(check bool)
    (Printf.sprintf "siblings reuse plans (%d of %d)" hits
       (List.length adhoc + List.length generated))
    true (hits > 1000)

(* ------------------------------------------------------------------ *)
(* The key pass                                                       *)

(* The fingerprint normalizer as it was before the key pass: the key
   pass must reproduce its shapes byte for byte. *)
module Reference = struct
  let is_ident_start c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

  let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9') || c = '$'
  let is_digit c = c >= '0' && c <= '9'

  let tokens sql =
    let n = String.length sql in
    let toks = ref [] in
    let push t = toks := t :: !toks in
    let i = ref 0 in
    while !i < n do
      let c = sql.[!i] in
      if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
      else if c = '-' && !i + 1 < n && sql.[!i + 1] = '-' then begin
        while !i < n && sql.[!i] <> '\n' do incr i done
      end
      else if c = '/' && !i + 1 < n && sql.[!i + 1] = '*' then begin
        i := !i + 2;
        let fin = ref false in
        while not !fin && !i < n do
          if sql.[!i] = '*' && !i + 1 < n && sql.[!i + 1] = '/' then begin
            i := !i + 2;
            fin := true
          end
          else incr i
        done
      end
      else if c = '\'' then begin
        incr i;
        let fin = ref false in
        while not !fin && !i < n do
          if sql.[!i] = '\'' then
            if !i + 1 < n && sql.[!i + 1] = '\'' then i := !i + 2
            else begin
              incr i;
              fin := true
            end
          else incr i
        done;
        push "?"
      end
      else if c = '"' then begin
        let start = !i in
        incr i;
        while !i < n && sql.[!i] <> '"' do incr i done;
        if !i < n then incr i;
        push (String.sub sql start (!i - start))
      end
      else if is_digit c || (c = '.' && !i + 1 < n && is_digit sql.[!i + 1])
      then begin
        while !i < n && is_digit sql.[!i] do incr i done;
        if !i < n && sql.[!i] = '.' then begin
          incr i;
          while !i < n && is_digit sql.[!i] do incr i done
        end;
        if !i < n && (sql.[!i] = 'e' || sql.[!i] = 'E') then begin
          let j = !i + 1 in
          let j =
            if j < n && (sql.[j] = '+' || sql.[j] = '-') then j + 1 else j
          in
          if j < n && is_digit sql.[j] then begin
            i := j;
            while !i < n && is_digit sql.[!i] do incr i done
          end
        end;
        push "?"
      end
      else if is_ident_start c then begin
        let start = !i in
        while !i < n && is_ident_char sql.[!i] do incr i done;
        push (String.uppercase_ascii (String.sub sql start (!i - start)))
      end
      else begin
        let two = if !i + 1 < n then Some (String.sub sql !i 2) else None in
        match two with
        | Some op when List.mem op [ "<="; ">="; "<>"; "!="; "||" ] ->
          push op;
          i := !i + 2
        | _ ->
          push (String.make 1 c);
          incr i
      end
    done;
    List.rev !toks

  let rec collapse = function
    | "IN" :: "(" :: "?" :: rest -> (
      let rec eat = function
        | "," :: "?" :: r -> eat r
        | ")" :: r -> Some r
        | _ -> None
      in
      match eat rest with
      | Some r -> "IN" :: "(" :: "?" :: ")" :: collapse r
      | None -> "IN" :: "(" :: "?" :: collapse rest)
    | tok :: rest -> tok :: collapse rest
    | [] -> []

  let shape sql =
    let buf = Buffer.create 128 in
    let prev = ref None in
    List.iter
      (fun t ->
        (match !prev with
        | Some p
          when not (t = "," || t = ")" || t = "." || t = "(")
               && not (p = "(" || p = ".") ->
          Buffer.add_char buf ' '
        | _ -> ());
        Buffer.add_string buf t;
        prev := Some t)
      (collapse (tokens sql));
    Buffer.contents buf
end

let edge_cases =
  [ "SELECT /* a comment */ NAME -- trailing\nFROM T";
    "SELECT \"Mixed\"\"Quote\" FROM \"T\" WHERE \"A\" = 'x''y'";
    "SELECT \"a\" \"b\" FROM T";
    "SELECT 'unterminated FROM T";
    "SELECT \"unterminated FROM T";
    "SELECT 1 /* unterminated";
    "SELECT 1e5, 1.5E-3, .5, 5., 2e+7, 1e+, 3e-x FROM T";
    "SELECT -5, - 5, -1.5, 99999999999999999999 FROM T WHERE A > -3";
    "SELECT * FROM T WHERE ID IN (1, 2, 3) AND B IN ('a', 'b')";
    "SELECT a$b, _c FROM T WHERE X <> 1 AND Y != 2 AND Z || 'q' >= 'r'";
    "";
    "   ";
    "SELECT @ FROM T" ]

let key_pass_matches_fingerprint () =
  let check sql =
    let k = Fingerprint.key sql in
    Alcotest.(check string) ("shape of " ^ sql) (Reference.shape sql)
      k.Fingerprint.shape;
    Alcotest.(check (pair string string))
      ("fingerprint of " ^ sql)
      (Fingerprint.fingerprint sql)
      (k.Fingerprint.digest, k.Fingerprint.shape)
  in
  let app = Datagen.application ~seed:45 adhoc_sizes in
  List.iter check
    (edge_cases @ report_statements @ wire_statements
    @ querygen_statements app ~seed:45 300)

(* Two texts with one plan key lex to the same tokens but for their
   literals' values; the key pass reads the literals the lexer does. *)
let plan_key_follows_the_lexer () =
  let module L = Aqua_sql.Lexer in
  let lex sql =
    let toks = L.tokens sql in
    if L.first_error toks <> None then None
    else Some (List.map (fun (t : L.located) -> t.L.token) toks)
  in
  let literal = function
    | L.Int_lit _ -> Some 'i'
    | L.Num_lit (_, s) ->
      Some (if String.contains s 'e' || String.contains s 'E' then 'e' else 'n')
    | L.String_lit _ -> Some 's'
    | _ -> None
  in
  let check sql =
    let k = Fingerprint.key sql in
    match (lex sql, k.Fingerprint.plan) with
    | None, None -> ()
    | None, Some _ -> Alcotest.failf "keyed a text the lexer rejects: %s" sql
    | Some _, None -> Alcotest.failf "no key for a text the lexer reads: %s" sql
    | Some toks, Some plan ->
      let lits = List.filter_map literal toks in
      Alcotest.(check (list char))
        ("literal classes of " ^ sql)
        lits
        (Array.to_list
           (Array.map (fun (l : Fingerprint.literal) -> l.Fingerprint.cls)
              k.Fingerprint.literals));
      let sib = sibling sql in
      let ks = Fingerprint.key sib in
      Alcotest.(check (option string)) ("plan key of " ^ sib) (Some plan)
        ks.Fingerprint.plan;
      (match lex sib with
      | Some stoks ->
        List.iter2
          (fun a b ->
            if literal a = None && a <> b then
              Alcotest.failf "sibling %s lexes differently from %s" sib sql)
          toks stoks
      | None -> Alcotest.failf "sibling %s does not lex" sib)
  in
  let app = Datagen.application ~seed:45 adhoc_sizes in
  List.iter check
    (List.filter
       (fun s -> not (String.contains s '@'))
       edge_cases
    @ report_statements @ wire_statements
    @ querygen_statements app ~seed:45 300)

(* One lexer: on any text the key never raises, its shape is the
   reference normalizer's, it has no plan exactly when a token is a
   lexical error (and then the parser reports that error before
   parsing), and the literals it lifts are the ones the parser numbers.
   Texts are random strings over a SQL-ish alphabet and workload
   statements with pieces of that alphabet spliced in. *)
let prop_one_lexer =
  let module L = Aqua_sql.Lexer in
  let module P = Aqua_sql.Parser in
  let app = Datagen.application ~seed:45 adhoc_sizes in
  let pool =
    Array.of_list
      (report_statements @ wire_statements @ querygen_statements app ~seed:45 200)
  in
  let alphabet =
    [| "'"; "\""; "''"; "e"; "E"; "+"; "-"; "."; "--"; "/*"; "*/"; "@"; "1";
       "7"; "0"; " "; "\n"; "SELECT"; "FROM"; "T"; "a"; "("; ")"; ","; "=";
       "<"; ">"; "!"; "|"; "?"; "*"; "IN"; "1e+"; "3e-x"; "2.5E3" |]
  in
  let piece rand = alphabet.(Random.State.int rand (Array.length alphabet)) in
  let splice rand sql =
    let i = Random.State.int rand (String.length sql + 1) in
    let rest = String.sub sql i (String.length sql - i) in
    match Random.State.int rand 3 with
    | 0 -> String.sub sql 0 i ^ piece rand ^ rest
    | 1 -> String.sub sql 0 i ^ piece rand
    | _ ->
      String.sub sql 0 i
      ^ if rest = "" then "" else String.sub rest 1 (String.length rest - 1)
  in
  let gen rand =
    if Random.State.bool rand then
      String.concat "" (List.init (Random.State.int rand 30) (fun _ -> piece rand))
    else
      let sql = pool.(Random.State.int rand (Array.length pool)) in
      List.fold_left (fun s _ -> splice rand s) sql
        (List.init (1 + Random.State.int rand 3) Fun.id)
  in
  let fail fmt = QCheck.Test.fail_reportf fmt in
  QCheck.Test.make ~name:"one lexer: key, shape, plan and literals" ~count:3000
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun sql ->
      let k =
        try Fingerprint.key sql
        with e -> fail "the key raised %s" (Printexc.to_string e)
      in
      if k.Fingerprint.shape <> Reference.shape sql then
        fail "shape %S, reference %S" k.Fingerprint.shape (Reference.shape sql);
      let lexical = L.first_error k.Fingerprint.tokens in
      if (lexical = None) <> (k.Fingerprint.plan <> None) then
        fail "plan key %s, lexical error %b"
          (Option.value k.Fingerprint.plan ~default:"none")
          (lexical <> None);
      match P.parse sql with
      | exception P.Parse_error { pos; message } -> (
        match lexical with
        | Some (p, m) when p <> pos || m <> message ->
          fail "the parser reported %S, the lexer's first error is %S" message m
        | _ -> true)
      | exception e -> fail "the parser raised %s" (Printexc.to_string e)
      | _ ->
        if lexical <> None then fail "parsed a text with a lexical error";
        let key_values =
          Array.map (fun (l : Fingerprint.literal) -> l.Fingerprint.value)
            k.Fingerprint.literals
        in
        let _, from_key = P.parse_tokens k.Fingerprint.tokens in
        let _, from_text = P.parse_tokens (L.tokens sql) in
        if
          Array.length from_key.P.values <> Array.length key_values
          || not (Array.for_all2 ( == ) from_key.P.values key_values)
        then fail "the parser numbered other blocks than the key's";
        if from_text.P.values <> key_values then
          fail "the key's literals differ from the parser's";
        true)

(* A lexical error is a positioned 42601 through the parser and the
   driver, never an engine fault. *)
let lexical_errors_are_syntax_errors () =
  let conn = Connection.connect (Datagen.application ~seed:45 adhoc_sizes) in
  List.iter
    (fun (sql, want) ->
      (match Aqua_sql.Parser.parse sql with
      | exception Aqua_sql.Parser.Parse_error { pos; message } ->
        Alcotest.(check string)
          ("parse of " ^ sql) want
          (Printf.sprintf "at line %d, column %d: %s" pos.Aqua_sql.Ast.line
             pos.Aqua_sql.Ast.col message)
      | _ -> Alcotest.failf "parsed %s" sql);
      match Connection.execute_query conn sql with
      | exception Sqlstate.Error e ->
        Alcotest.(check (pair string string))
          ("execute_query of " ^ sql) ("42601", want)
          (e.Sqlstate.sqlstate, e.Sqlstate.message)
      | _ -> Alcotest.failf "executed %s" sql)
    [ ( "SELECT 1e+ FROM CUSTOMERS",
        "at line 1, column 9: exponent without digits in numeric literal 1e+" );
      ( "SELECT 3e-x FROM CUSTOMERS",
        "at line 1, column 9: exponent without digits in numeric literal 3e-" );
      ( "CALL 1e+",
        "at line 1, column 7: exponent without digits in numeric literal 1e+" );
      ("SELECT 'abc FROM CUSTOMERS", "at line 1, column 27: unterminated string literal");
      ("SELECT @ FROM CUSTOMERS", "at line 1, column 8: unexpected character '@'") ]

(* ------------------------------------------------------------------ *)
(* Translation through the cache                                      *)

(* [Connection.translate] is the literal translation, for the statement
   that built a plan and for its siblings; the lifted plan with the
   literals put back is the literal plan. *)
let translate_is_literal () =
  let app = Datagen.application ~seed:45 adhoc_sizes in
  let conn = Connection.connect app in
  let env = Connection.translator_env conn in
  List.iter
    (fun sql ->
      match Translator.translate env sql with
      | exception Aqua_translator.Errors.Error _ -> ()
      | want ->
        let lifted = Translator.translate_lifted env (Aqua_sql.Lexer.tokens sql) in
        if
          Translator.instantiate lifted lifted.Translator.literals
          <> want.Translator.xquery
        then Alcotest.failf "instantiated plan differs for %s" sql;
        List.iter
          (fun s ->
            match Translator.translate env s with
            | exception Aqua_translator.Errors.Error _ -> ()
            | want ->
              let got = Connection.translate conn s in
              if got <> want then
                Alcotest.failf
                  "Connection.translate differs for %s (statement %b, \
                   columns %b):\n%s\n-- want --\n%s"
                  s
                  (got.Translator.statement = want.Translator.statement)
                  (got.Translator.columns = want.Translator.columns)
                  (Translator.to_string got) (Translator.to_string want))
          [ sql; sibling sql ])
    (report_statements @ wire_statements @ querygen_statements app ~seed:45 300)

(* The compiled engine lowers a lifted plan as it lowers the literal
   plan: it treats the externals as constants, never carried per row,
   so the notes are the same. *)
let lowering_notes_agree () =
  let check app sql =
    let env = Semantic.env_of_application app in
    let srv = Server.create app in
    let lifted = Translator.translate_lifted env (Aqua_sql.Lexer.tokens sql) in
    let vars =
      List.map
        (fun (l : Aqua_translator.Generate.lifted) -> l.var)
        lifted.Translator.externals
    in
    let notes q vars = Server.shape (Server.prepare ~vars srv q) in
    Alcotest.(check (list string))
      ("notes of " ^ sql)
      (notes (Translator.for_text_transport (Translator.translate env sql)) [])
      (notes (Translator.for_text_transport lifted.Translator.plan) vars)
  in
  List.iter (check (Datagen.application ~seed:45 report_sizes)) report_statements;
  List.iter (check (Datagen.application ~seed:45 wire_sizes)) wire_statements;
  let app = Datagen.application ~seed:45 adhoc_sizes in
  List.iter
    (fun sql ->
      match check app sql with
      | () -> ()
      | exception Aqua_translator.Errors.Error _ -> ())
    (querygen_statements app ~seed:45 300)

(* ------------------------------------------------------------------ *)
(* Memos keyed by expression                                          *)

(* Siblings alternate over one warm scan: the scan memo's projected,
   derived and join-build columns must never serve one literal's
   answer to another. *)
let siblings_alternate_over_warm_scans () =
  let app = Datagen.application ~seed:45 wire_sizes in
  let cached = Connection.connect app in
  let fresh = Connection.connect ~translation_cache:false app in
  let shapes =
    [ Printf.sprintf
        "SELECT CUSTOMERID, CUSTOMERNAME FROM CUSTOMERS WHERE CUSTOMERID = %d";
      Printf.sprintf
        "SELECT CITY, COUNT(*) N, SUM(TIER * %d) S FROM CUSTOMERS GROUP BY CITY";
      Printf.sprintf
        "SELECT CITY, COUNT(*) N FROM CUSTOMERS WHERE TIER + %d > 3 GROUP BY \
         CITY";
      Printf.sprintf
        "SELECT C.CUSTOMERID, O.ORDERID FROM CUSTOMERS C, ORDERS O WHERE \
         C.CUSTOMERID = O.CUSTOMERID + %d" ]
  in
  List.iter
    (fun shape ->
      for round = 1 to 3 do
        List.iter
          (fun v ->
            let sql = shape v in
            let got = outcome cached sql and want = outcome fresh sql in
            if compare got want <> 0 then
              Alcotest.failf "round %d, %s: plan cache gave %s, fresh run %s"
                round sql (show got) (show want))
          [ 1; 2 ]
      done)
    shapes

(* ------------------------------------------------------------------ *)
(* Invalidation                                                       *)

let plans_follow_revisions_and_data () =
  let app = Datagen.application ~seed:45 wire_sizes in
  let conn = Connection.connect app in
  let point k =
    Printf.sprintf
      "SELECT ORDERID, STATUS FROM ORDERS WHERE CUSTOMERID = %d" k
  in
  let rows sql = Result_set.row_count (Connection.execute_query conn sql) in
  with_telemetry @@ fun () ->
  let n = rows (point 3) in
  Alcotest.(check int) "one plan" 1 (Connection.translation_cache_size conn);
  (* a row inserted between two hits shows in the second *)
  let table =
    match
      List.find_map
        (fun (ds : Artifact.data_service) ->
          match Artifact.find_function ds "ORDERS" with
          | Some { Artifact.body = Artifact.Physical t; _ } -> Some t
          | _ -> None)
        app.Artifact.services
    with
    | Some t -> t
    | None -> Alcotest.fail "no ORDERS table"
  in
  let hits0 = T.value T.c_cache_hits in
  ignore (rows (point 4));
  Aqua_relational.Table.insert table
    [ Value.Int 900_001; Value.Int 3;
      Value.Date { Aqua_xml.Atomic.year = 2005; month = 1; day = 2 };
      Value.Str "OPEN"; Value.Int 1 ];
  Alcotest.(check int) "the insert shows" (n + 1) (rows (point 3));
  Alcotest.(check int) "both were hits" 2 (T.value T.c_cache_hits - hits0);
  (* a revision bump drops every plan *)
  let fresh_table =
    Aqua_relational.Table.create "FRESH"
      [ { Aqua_relational.Schema.name = "ID";
          ty = Aqua_relational.Sql_type.Integer;
          nullable = false } ]
  in
  ignore (Artifact.import_physical_table app ~project:"Sales" fresh_table);
  let misses0 = T.value T.c_cache_misses in
  ignore (rows (point 3));
  Alcotest.(check int) "revision bump: a miss" 1
    (T.value T.c_cache_misses - misses0);
  Alcotest.(check int) "one plan again" 1 (Connection.translation_cache_size conn);
  Connection.invalidate conn;
  Alcotest.(check int) "invalidate drops plans" 0
    (Connection.translation_cache_size conn)

(* ------------------------------------------------------------------ *)
(* Domain safety                                                      *)

let workload () =
  List.concat_map (fun shape -> List.map shape [ 1; 2; 3; 5; 8 ]) wire_shapes

let cached_plans_across_domains () =
  let app = Datagen.application ~seed:45 wire_sizes in
  let conn = Connection.connect app in
  let serial = List.map (outcome conn) (workload ()) in
  let stmts = List.concat [ workload (); workload (); workload () ] in
  let concurrent = Connection.execute_concurrent ~domains:4 conn stmts in
  List.iteri
    (fun i r ->
      let got = of_result r in
      let want = List.nth serial (i mod List.length serial) in
      if compare got want <> 0 then
        Alcotest.failf "%s on 4 domains: %s, serially %s" (List.nth stmts i)
          (show got) (show want))
    concurrent;
  Alcotest.(check int) "one plan per shape" 4
    (Connection.translation_cache_size conn)

let cached_plans_over_the_wire () =
  if Aqua_multicore.Mcore.multicore then begin
    let module Netserver = Aqua_net.Netserver in
    let module Client = Aqua_net.Client in
    let app = Datagen.application ~seed:45 wire_sizes in
    let reference = Connection.connect ~translation_cache:false app in
    let conn = Connection.connect app in
    let srv =
      Netserver.start
        ~config:{ Netserver.default_config with port = 0; workers = 2; pool_size = 2 }
        conn
    in
    Fun.protect ~finally:(fun () -> Netserver.drain srv) @@ fun () ->
    let client () =
      match Client.connect ~host:"127.0.0.1" ~port:(Netserver.port srv) () with
      | Ok c -> c
      | Error (code, msg) -> Alcotest.failf "connect: %s %s" code msg
    in
    let text rs =
      let out = ref [] in
      Result_set.iter_rows rs (fun row ->
          out :=
            Array.to_list
              (Array.map
                 (function Value.Null -> None | v -> Some (Value.to_string v))
                 row)
            :: !out);
      List.rev !out
    in
    let stmts = workload () in
    let want = List.map (fun sql -> text (Connection.execute_query reference sql)) stmts in
    let run () =
      let c = client () in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      List.map
        (fun sql ->
          match Client.query c sql with
          | Ok reply -> reply.Client.rows
          | Error (code, msg) -> Alcotest.failf "%s: %s %s" sql code msg)
        (stmts @ stmts)
    in
    let results =
      Aqua_multicore.Mcore.Domains.parallel [ run; run ]
    in
    List.iter
      (function
        | Ok got ->
          List.iteri
            (fun i rows ->
              let sql = List.nth stmts (i mod List.length stmts) in
              if rows <> List.nth want (i mod List.length want) then
                Alcotest.failf "%s over the wire differs from a fresh run" sql)
            got
        | Error e -> raise e)
      results
  end

let suite =
  ( "plan_cache",
    [ Helpers.case "sibling gate: report and wire_churn" sibling_gate_workloads;
      Helpers.case "sibling gate: a long IN-list" sibling_gate_long_in_list;
      Alcotest.test_case "sibling gate: adhoc and querygen" `Slow
        sibling_gate_adhoc;
      Helpers.case "key pass reproduces the fingerprint"
        key_pass_matches_fingerprint;
      Helpers.case "plan key follows the lexer" plan_key_follows_the_lexer;
      Helpers.case "translate is the literal translation" translate_is_literal;
      Helpers.case "lifted plans lower like literal plans" lowering_notes_agree;
      Helpers.case "siblings alternate over warm scans"
        siblings_alternate_over_warm_scans;
      Helpers.case "plans follow revisions and data"
        plans_follow_revisions_and_data;
      Helpers.case "cached plans across 4 domains" cached_plans_across_domains;
      Helpers.case "cached plans over the wire, 2 workers"
        cached_plans_over_the_wire;
      Helpers.qcheck prop_one_lexer;
      Helpers.case "lexical errors are positioned 42601s"
        lexical_errors_are_syntax_errors ] )
