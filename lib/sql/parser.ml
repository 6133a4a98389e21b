module Sql_type = Aqua_relational.Sql_type
open Ast

exception Parse_error of { pos : Ast.pos; message : string }

type state = {
  mutable rest : Lexer.located list;
      (* the tokens from the current one on; never empty, it ends with
         [Eof] *)
  mutable next_param : int;
}

type numbering = { values : literal array; params : int }

let error_at pos fmt =
  Format.kasprintf (fun message -> raise (Parse_error { pos; message })) fmt

let current st = List.hd st.rest
let peek_token st = (current st).token
let peek_pos st = (current st).pos

let peek_ahead st n =
  match List.nth_opt st.rest n with Some t -> t.token | None -> Lexer.Eof

let advance st =
  match st.rest with _ :: (_ :: _ as rest) -> st.rest <- rest | _ -> ()

let error st fmt = error_at (peek_pos st) fmt

(* Keywords that cannot serve as implicit (AS-less) aliases. *)
let reserved =
  [ "SELECT"; "FROM"; "WHERE"; "GROUP"; "BY"; "HAVING"; "ORDER"; "UNION";
    "INTERSECT"; "EXCEPT"; "JOIN"; "INNER"; "LEFT"; "RIGHT"; "FULL"; "OUTER";
    "CROSS"; "ON"; "AS"; "AND"; "OR"; "NOT"; "IN"; "IS"; "NULL"; "BETWEEN";
    "LIKE"; "ESCAPE"; "EXISTS"; "ANY"; "ALL"; "SOME"; "DISTINCT"; "CASE";
    "WHEN"; "THEN"; "ELSE"; "END"; "CAST"; "ASC"; "DESC"; "TRUE"; "FALSE" ]

let is_kw token kw =
  match token with
  | Lexer.Ident s -> String.uppercase_ascii s = kw
  | _ -> false

let at_kw st kw = is_kw (peek_token st) kw

let eat_kw st kw =
  if at_kw st kw then (advance st; true) else false

let expect_kw st kw =
  if not (eat_kw st kw) then
    error st "expected %s, found %s" kw (Lexer.token_to_string (peek_token st))

let at_punct st p =
  match peek_token st with Lexer.Punct q -> q = p | _ -> false

let eat_punct st p =
  if at_punct st p then (advance st; true) else false

let expect_punct st p =
  if not (eat_punct st p) then
    error st "expected %s, found %s" p (Lexer.token_to_string (peek_token st))

let identifier st =
  match peek_token st with
  | Lexer.Ident s ->
    advance st;
    s
  | Lexer.Quoted_ident s ->
    advance st;
    s
  | t -> error st "expected an identifier, found %s" (Lexer.token_to_string t)

let is_identifier_token = function
  | Lexer.Ident _ | Lexer.Quoted_ident _ -> true
  | _ -> false

let implicit_alias_allowed = function
  | Lexer.Quoted_ident _ -> true
  | Lexer.Ident s -> not (List.mem (String.uppercase_ascii s) reserved)
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)

let cmp_of_punct = function
  | "=" -> Some Eq
  | "<>" | "!=" -> Some Neq
  | "<" -> Some Lt
  | "<=" -> Some Le
  | ">" -> Some Gt
  | ">=" -> Some Ge
  | _ -> None

let agg_of_name name =
  match String.uppercase_ascii name with
  | "COUNT" -> Some A_count
  | "SUM" -> Some A_sum
  | "AVG" -> Some A_avg
  | "MIN" -> Some A_min
  | "MAX" -> Some A_max
  | _ -> None

let parse_type st =
  let name = String.uppercase_ascii (identifier st) in
  let name =
    (* two-word type names *)
    if name = "DOUBLE" && at_kw st "PRECISION" then begin
      advance st;
      "DOUBLE"
    end
    else if name = "CHARACTER" && at_kw st "VARYING" then begin
      advance st;
      "VARCHAR"
    end
    else name
  in
  let args =
    if eat_punct st "(" then begin
      let read_int () =
        match peek_token st with
        | Lexer.Int_lit i ->
          advance st;
          i
        | t -> error st "expected an integer, found %s" (Lexer.token_to_string t)
      in
      let a = read_int () in
      let b = if eat_punct st "," then Some (read_int ()) else None in
      expect_punct st ")";
      Some (a, b)
    end
    else None
  in
  match (name, args) with
  | ("DECIMAL" | "DEC" | "NUMERIC"), Some (p, s) ->
    Sql_type.Decimal (Some (p, Option.value s ~default:0))
  | ("DECIMAL" | "DEC" | "NUMERIC"), None -> Sql_type.Decimal None
  | ("CHAR" | "CHARACTER"), Some (n, None) -> Sql_type.Char n
  | ("CHAR" | "CHARACTER"), None -> Sql_type.Char 1
  | "VARCHAR", Some (n, None) -> Sql_type.Varchar (Some n)
  | "VARCHAR", None -> Sql_type.Varchar None
  | _, None -> (
    match Sql_type.of_string name with
    | Some t -> t
    | None -> error st "unknown SQL type %s" name)
  | _, Some _ -> error st "type %s does not take precision arguments" name

let rec parse_or st =
  let left = parse_and st in
  if eat_kw st "OR" then Or (left, parse_or st) else left

and parse_and st =
  let left = parse_not st in
  if eat_kw st "AND" then And (left, parse_and st) else left

and parse_not st =
  if eat_kw st "NOT" then Not (parse_not st) else parse_predicate st

(* Row-value constructors are desugared at parse time:
   (a, b) = (c, d)   becomes  a = c AND b = d
   (a, b) < (c, d)   becomes  a < c OR (a = c AND b < d)   (lexicographic)
   (a, b) IN ((1, 2), (3, 4)) becomes an OR of row equalities. *)
and desugar_row_cmp st op rows_l rows_r =
  if List.length rows_l <> List.length rows_r then
    error st "row value constructors have different degrees";
  let conj l =
    match l with
    | [] -> error st "empty row value constructor"
    | first :: rest -> List.fold_left (fun acc e -> And (acc, e)) first rest
  in
  let pairwise f = List.map2 f rows_l rows_r in
  match op with
  | Eq -> conj (pairwise (fun a b -> Cmp (Eq, a, b)))
  | Neq -> Not (conj (pairwise (fun a b -> Cmp (Eq, a, b))))
  | (Lt | Le | Gt | Ge) as ord ->
    (* lexicographic: strict comparison on the first differing column *)
    let strict = match ord with Lt | Le -> Lt | Gt | Ge | Eq | Neq -> Gt in
    let rec build ls rs =
      match (ls, rs) with
      | [ a ], [ b ] -> Cmp (ord, a, b)
      | a :: ls, b :: rs ->
        Or (Cmp (strict, a, b), And (Cmp (Eq, a, b), build ls rs))
      | _ -> assert false
    in
    build rows_l rows_r

and parse_row_or_expr st =
  (* after '(' when a row value constructor is possible: returns either
     a single expression or a row (2+ members) *)
  let first = parse_or st in
  if eat_punct st "," then begin
    let rec go acc =
      if eat_punct st "," then go (parse_or st :: acc) else List.rev acc
    in
    let items = go [ parse_or st; first ] in
    expect_punct st ")";
    `Row items
  end
  else begin
    expect_punct st ")";
    `Single first
  end

and parse_predicate st =
  (* a parenthesized comma list opens a row-value-constructor
     comparison; look ahead to distinguish from a grouped expression *)
  if at_punct st "(" && not (is_kw (peek_ahead st 1) "SELECT") then begin
    let save = st.rest and save_param = st.next_param in
    let restore () =
      st.rest <- save;
      st.next_param <- save_param
    in
    advance st;
    match parse_row_or_expr st with
    | exception Parse_error _ ->
      restore ();
      parse_predicate_simple st
    | `Single _ ->
      restore ();
      parse_predicate_simple st
    | `Row rows_l -> (
      let negated = eat_kw st "NOT" in
      if negated && not (at_kw st "IN") then
        error st "expected IN after NOT in a row predicate";
      if at_kw st "IN" then begin
        advance st;
        expect_punct st "(";
        let read_row () =
          expect_punct st "(";
          match parse_row_or_expr st with
          | `Row r -> r
          | `Single e -> [ e ]
        in
        let first = read_row () in
        let rec go acc =
          if eat_punct st "," then go (read_row () :: acc) else List.rev acc
        in
        let rows = go [ first ] in
        expect_punct st ")";
        let disjunction =
          List.map (fun r -> desugar_row_cmp st Eq rows_l r) rows
          |> function
          | [] -> error st "empty IN list"
          | first :: rest -> List.fold_left (fun acc e -> Or (acc, e)) first rest
        in
        if negated then Not disjunction else disjunction
      end
      else
        match peek_token st with
        | Lexer.Punct p when cmp_of_punct p <> None ->
          let op = Option.get (cmp_of_punct p) in
          advance st;
          expect_punct st "(";
          (match parse_row_or_expr st with
          | `Row rows_r -> desugar_row_cmp st op rows_l rows_r
          | `Single e -> desugar_row_cmp st op rows_l [ e ])
        | t ->
          error st "expected a comparison after a row value constructor, found %s"
            (Lexer.token_to_string t))
  end
  else parse_predicate_simple st

and parse_predicate_simple st =
  let arg = parse_additive st in
  let negated = eat_kw st "NOT" in
  if at_kw st "BETWEEN" then begin
    advance st;
    let low = parse_additive st in
    expect_kw st "AND";
    let high = parse_additive st in
    Between { arg; low; high; negated }
  end
  else if at_kw st "LIKE" then begin
    advance st;
    let pattern = parse_additive st in
    let escape = if eat_kw st "ESCAPE" then Some (parse_additive st) else None in
    Like { arg; pattern; escape; negated }
  end
  else if at_kw st "IN" then begin
    advance st;
    expect_punct st "(";
    if at_kw st "SELECT" then begin
      let query = parse_query st in
      expect_punct st ")";
      In_query { arg; query; negated }
    end
    else begin
      let items = parse_expr_list st in
      expect_punct st ")";
      In_list { arg; items; negated }
    end
  end
  else if negated then
    error st "expected BETWEEN, LIKE or IN after NOT"
  else if at_kw st "IS" then begin
    advance st;
    let negated = eat_kw st "NOT" in
    expect_kw st "NULL";
    Is_null { arg; negated }
  end
  else
    match peek_token st with
    | Lexer.Punct p when cmp_of_punct p <> None -> (
      let op = Option.get (cmp_of_punct p) in
      advance st;
      let quantifier =
        if at_kw st "ANY" || at_kw st "SOME" then begin
          advance st;
          Some Q_any
        end
        else if at_kw st "ALL" then begin
          advance st;
          Some Q_all
        end
        else None
      in
      match quantifier with
      | Some quantifier ->
        expect_punct st "(";
        let query = parse_query st in
        expect_punct st ")";
        Quantified { op; quantifier; arg; query }
      | None ->
        let right = parse_additive st in
        Cmp (op, arg, right))
    | _ -> arg

and parse_additive st =
  let rec go left =
    if at_punct st "+" then begin
      advance st;
      go (Arith (Add, left, parse_multiplicative st))
    end
    else if at_punct st "-" then begin
      advance st;
      go (Arith (Sub, left, parse_multiplicative st))
    end
    else if at_punct st "||" then begin
      advance st;
      go (Concat (left, parse_multiplicative st))
    end
    else left
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let rec go left =
    if at_punct st "*" then begin
      advance st;
      go (Arith (Mul, left, parse_unary st))
    end
    else if at_punct st "/" then begin
      advance st;
      go (Arith (Div, left, parse_unary st))
    end
    else left
  in
  go (parse_unary st)

and parse_unary st =
  if eat_punct st "-" then Neg (parse_unary st)
  else if eat_punct st "+" then parse_unary st
  else parse_primary st

and parse_expr_list st =
  let first = parse_or st in
  let rec go acc =
    if eat_punct st "," then go (parse_or st :: acc) else List.rev acc
  in
  go [ first ]

and parse_case st =
  (* CASE already consumed *)
  let operand = if at_kw st "WHEN" then None else Some (parse_or st) in
  let rec branches acc =
    if eat_kw st "WHEN" then begin
      let w = parse_or st in
      expect_kw st "THEN";
      let t = parse_or st in
      branches ((w, t) :: acc)
    end
    else List.rev acc
  in
  let branches = branches [] in
  if branches = [] then error st "CASE requires at least one WHEN branch";
  let else_ = if eat_kw st "ELSE" then Some (parse_or st) else None in
  expect_kw st "END";
  Case { operand; branches; else_ }

and parse_special_function st upper =
  (* Called with the name consumed and "(" consumed.  Handles the
     SQL-92 keyword-argument forms; returns None if [upper] is not a
     special form (caller then parses a plain argument list). *)
  match upper with
  | "POSITION" ->
    let needle = parse_additive st in
    expect_kw st "IN";
    let hay = parse_additive st in
    expect_punct st ")";
    Some (Func { name = "POSITION"; args = [ needle; hay ] })
  | "EXTRACT" ->
    let field = String.uppercase_ascii (identifier st) in
    if not (List.mem field [ "YEAR"; "MONTH"; "DAY"; "HOUR"; "MINUTE"; "SECOND" ])
    then error st "unknown EXTRACT field %s" field;
    expect_kw st "FROM";
    let arg = parse_or st in
    expect_punct st ")";
    Some (Func { name = "EXTRACT_" ^ field; args = [ arg ] })
  | "TRIM" ->
    let mode =
      if at_kw st "LEADING" then (advance st; "LTRIM")
      else if at_kw st "TRAILING" then (advance st; "RTRIM")
      else if at_kw st "BOTH" then (advance st; "TRIM")
      else "TRIM"
    in
    (* optional trim character then FROM, or a bare expression *)
    if eat_kw st "FROM" then begin
      let arg = parse_or st in
      expect_punct st ")";
      Some (Func { name = mode; args = [ arg ] })
    end
    else begin
      let first = parse_or st in
      if eat_kw st "FROM" then begin
        let arg = parse_or st in
        expect_punct st ")";
        Some (Func { name = mode; args = [ arg; first ] })
      end
      else begin
        expect_punct st ")";
        Some (Func { name = mode; args = [ first ] })
      end
    end
  | "SUBSTRING" ->
    let arg = parse_or st in
    if eat_kw st "FROM" then begin
      let start = parse_or st in
      let len = if eat_kw st "FOR" then Some (parse_or st) else None in
      expect_punct st ")";
      let args = arg :: start :: Option.to_list len in
      Some (Func { name = "SUBSTRING"; args })
    end
    else begin
      let args =
        if eat_punct st "," then begin
          let start = parse_or st in
          let len = if eat_punct st "," then Some (parse_or st) else None in
          arg :: start :: Option.to_list len
        end
        else [ arg ]
      in
      expect_punct st ")";
      Some (Func { name = "SUBSTRING"; args })
    end
  | _ -> None

and parse_function_call st name =
  (* "(" consumed *)
  let upper = String.uppercase_ascii name in
  match agg_of_name upper with
  | Some agg ->
    if eat_punct st "*" then begin
      if agg <> A_count then error st "only COUNT accepts *";
      expect_punct st ")";
      Agg { func = A_count_star; distinct = false; arg = None }
    end
    else begin
      let distinct =
        if at_kw st "DISTINCT" then (advance st; true)
        else begin
          ignore (eat_kw st "ALL");
          false
        end
      in
      let arg = parse_or st in
      expect_punct st ")";
      Agg { func = agg; distinct; arg = Some arg }
    end
  | None -> (
    match parse_special_function st upper with
    | Some e -> e
    | None ->
      let args =
        if at_punct st ")" then []
        else parse_expr_list st
      in
      expect_punct st ")";
      Func { name = upper; args })

and parse_primary st =
  let pos = peek_pos st in
  match peek_token st with
  | Lexer.Int_lit _ | Lexer.Num_lit _ | Lexer.String_lit _ ->
    (* the block numbered in [values], so its ordinal is its identity *)
    let lit = Option.get (current st).literal in
    advance st;
    Lit lit
  | Lexer.Punct "?" ->
    advance st;
    let n = st.next_param in
    st.next_param <- n + 1;
    Param n
  | Lexer.Punct "(" -> (
    advance st;
    if at_kw st "SELECT" then begin
      let query = parse_query st in
      expect_punct st ")";
      Scalar_subquery query
    end
    else begin
      let e = parse_or st in
      expect_punct st ")";
      e
    end)
  | Lexer.Ident _ | Lexer.Quoted_ident _ -> (
    let token = peek_token st in
    let upper =
      match token with
      | Lexer.Ident s -> String.uppercase_ascii s
      | _ -> ""
    in
    match upper with
    | "NULL" ->
      advance st;
      Lit L_null
    | "TRUE" ->
      advance st;
      Lit (L_bool true)
    | "FALSE" ->
      advance st;
      Lit (L_bool false)
    | "DATE" when (match peek_ahead st 1 with Lexer.String_lit _ -> true | _ -> false) -> (
      advance st;
      match peek_token st with
      | Lexer.String_lit s ->
        advance st;
        Lit (L_date s)
      | _ -> assert false)
    | "TIME" when (match peek_ahead st 1 with Lexer.String_lit _ -> true | _ -> false) -> (
      advance st;
      match peek_token st with
      | Lexer.String_lit s ->
        advance st;
        Lit (L_time s)
      | _ -> assert false)
    | "TIMESTAMP" when (match peek_ahead st 1 with Lexer.String_lit _ -> true | _ -> false) -> (
      advance st;
      match peek_token st with
      | Lexer.String_lit s ->
        advance st;
        Lit (L_timestamp s)
      | _ -> assert false)
    | "CASE" ->
      advance st;
      parse_case st
    | "CAST" ->
      advance st;
      expect_punct st "(";
      let e = parse_or st in
      expect_kw st "AS";
      let ty = parse_type st in
      expect_punct st ")";
      Cast (e, ty)
    | "EXISTS" ->
      advance st;
      expect_punct st "(";
      let q = parse_query st in
      expect_punct st ")";
      Exists q
    | _ ->
      let name = identifier st in
      if at_punct st "(" then begin
        advance st;
        parse_function_call st name
      end
      else if at_punct st "." && is_identifier_token (peek_ahead st 1) then begin
        advance st;
        let col = identifier st in
        Column { qualifier = Some name; name = col; pos }
      end
      else Column { qualifier = None; name; pos })
  | t -> error st "unexpected %s in expression" (Lexer.token_to_string t)

(* ------------------------------------------------------------------ *)
(* Queries                                                            *)

and parse_select_item st =
  if at_punct st "*" then begin
    advance st;
    Star
  end
  else if
    is_identifier_token (peek_token st)
    && (match peek_ahead st 1 with Lexer.Punct "." -> true | _ -> false)
    && (match peek_ahead st 2 with Lexer.Punct "*" -> true | _ -> false)
  then begin
    let t = identifier st in
    advance st;
    (* . *)
    advance st;
    (* * *)
    Table_star t
  end
  else begin
    let e = parse_or st in
    let alias =
      if eat_kw st "AS" then Some (identifier st)
      else if implicit_alias_allowed (peek_token st) then Some (identifier st)
      else None
    in
    Expr_item (e, alias)
  end

and parse_table_name st pos =
  let first = identifier st in
  (* Up to three dot-separated parts: catalog.schema.table *)
  if eat_punct st "." then begin
    let second = identifier st in
    if eat_punct st "." then begin
      let third = identifier st in
      { catalog = Some first; schema = Some second; table = third }
    end
    else { catalog = None; schema = Some first; table = second }
  end
  else begin
    ignore pos;
    { catalog = None; schema = None; table = first }
  end

and parse_table_primary st =
  let pos = peek_pos st in
  if at_punct st "(" then begin
    advance st;
    if at_kw st "SELECT" then begin
      let query = parse_query st in
      expect_punct st ")";
      ignore (eat_kw st "AS");
      if not (is_identifier_token (peek_token st)) then
        error st "a derived table requires an alias";
      let alias = identifier st in
      Primary (Derived { query; alias })
    end
    else begin
      (* parenthesized join *)
      let tr = parse_table_ref st in
      expect_punct st ")";
      tr
    end
  end
  else begin
    let name = parse_table_name st pos in
    let alias =
      if eat_kw st "AS" then Some (identifier st)
      else if implicit_alias_allowed (peek_token st) then Some (identifier st)
      else None
    in
    Primary (Table_ref_name { name; alias; pos })
  end

and parse_table_ref st =
  let rec go left =
    let kind =
      if at_kw st "INNER" then begin
        advance st;
        expect_kw st "JOIN";
        Some J_inner
      end
      else if at_kw st "JOIN" then begin
        advance st;
        Some J_inner
      end
      else if at_kw st "LEFT" then begin
        advance st;
        ignore (eat_kw st "OUTER");
        expect_kw st "JOIN";
        Some J_left
      end
      else if at_kw st "RIGHT" then begin
        advance st;
        ignore (eat_kw st "OUTER");
        expect_kw st "JOIN";
        Some J_right
      end
      else if at_kw st "FULL" then begin
        advance st;
        ignore (eat_kw st "OUTER");
        expect_kw st "JOIN";
        Some J_full
      end
      else if at_kw st "CROSS" then begin
        advance st;
        expect_kw st "JOIN";
        Some J_cross
      end
      else None
    in
    match kind with
    | None -> left
    | Some J_cross ->
      let right = parse_table_primary st in
      go (Join { kind = J_cross; left; right; cond = None })
    | Some kind ->
      let right = parse_table_primary st in
      expect_kw st "ON";
      let cond = parse_or st in
      go (Join { kind; left; right; cond = Some cond })
  in
  go (parse_table_primary st)

and parse_query_spec st =
  expect_kw st "SELECT";
  let distinct =
    if at_kw st "DISTINCT" then (advance st; true)
    else begin
      ignore (eat_kw st "ALL");
      false
    end
  in
  let select =
    let first = parse_select_item st in
    let rec go acc =
      if eat_punct st "," then go (parse_select_item st :: acc)
      else List.rev acc
    in
    go [ first ]
  in
  expect_kw st "FROM";
  let from =
    let first = parse_table_ref st in
    let rec go acc =
      if eat_punct st "," then go (parse_table_ref st :: acc) else List.rev acc
    in
    go [ first ]
  in
  let where = if eat_kw st "WHERE" then Some (parse_or st) else None in
  let group_by =
    if at_kw st "GROUP" then begin
      advance st;
      expect_kw st "BY";
      parse_expr_list st
    end
    else []
  in
  let having = if eat_kw st "HAVING" then Some (parse_or st) else None in
  { distinct; select; from; where; group_by; having }

and parse_query_primary st =
  if at_punct st "(" then begin
    advance st;
    let q = parse_query st in
    expect_punct st ")";
    q
  end
  else Spec (parse_query_spec st)

and parse_query_term st =
  let rec go left =
    if at_kw st "INTERSECT" then begin
      advance st;
      let all = eat_kw st "ALL" in
      let right = parse_query_primary st in
      go (Set { op = S_intersect; all; left; right })
    end
    else left
  in
  go (parse_query_primary st)

and parse_query st =
  let rec go left =
    if at_kw st "UNION" then begin
      advance st;
      let all = eat_kw st "ALL" in
      let right = parse_query_term st in
      go (Set { op = S_union; all; left; right })
    end
    else if at_kw st "EXCEPT" then begin
      advance st;
      let all = eat_kw st "ALL" in
      let right = parse_query_term st in
      go (Set { op = S_except; all; left; right })
    end
    else left
  in
  go (parse_query_term st)

let parse_order_by st =
  if not (at_kw st "ORDER") then []
  else begin
    advance st;
    expect_kw st "BY";
    let item () =
      let key =
        match peek_token st with
        | Lexer.Int_lit i ->
          advance st;
          Ord_position i
        | _ -> Ord_expr (parse_or st)
      in
      let descending =
        if eat_kw st "DESC" then true
        else begin
          ignore (eat_kw st "ASC");
          false
        end
      in
      { key; descending }
    in
    let first = item () in
    let rec go acc =
      if eat_punct st "," then go (item () :: acc) else List.rev acc
    in
    go [ first ]
  end

let run_parser toks f =
  Option.iter
    (fun (pos, message) -> raise (Parse_error { pos; message }))
    (Lexer.first_error toks);
  let st = { rest = toks; next_param = 1 } in
  let result = f st in
  ignore (eat_punct st ";");
  (match peek_token st with
  | Lexer.Eof -> ()
  | t -> error st "unexpected %s after end of statement" (Lexer.token_to_string t));
  let values =
    Array.of_list (List.filter_map (fun (t : Lexer.located) -> t.literal) toks)
  in
  (result, { values; params = st.next_param - 1 })

let statement st =
  let body = parse_query st in
  let order_by = parse_order_by st in
  { body; order_by }

let parse_tokens toks = run_parser toks statement
let parse src = fst (parse_tokens (Lexer.tokens src))
let parse_expression src = fst (run_parser (Lexer.tokens src) parse_or)
