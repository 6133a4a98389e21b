module Atomic = Aqua_xml.Atomic
open Ast

let cmp_general = function
  | Eq -> "="
  | Ne -> "!="
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="

let cmp_value = function
  | Eq -> "eq"
  | Ne -> "ne"
  | Lt -> "lt"
  | Le -> "le"
  | Gt -> "gt"
  | Ge -> "ge"

let arith_to_string = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "div"
  | Idiv -> "idiv"
  | Mod -> "mod"

let atomic_literal a =
  match a with
  | Atomic.String s | Atomic.Untyped s ->
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  | Atomic.Integer i -> string_of_int i
  | Atomic.Decimal _ | Atomic.Double _ -> Atomic.to_lexical a
  | Atomic.Boolean b -> if b then "fn:true()" else "fn:false()"
  | Atomic.Date d -> Printf.sprintf "xs:date(\"%s\")" (Atomic.date_to_string d)
  | Atomic.Time t -> Printf.sprintf "xs:time(\"%s\")" (Atomic.time_to_string t)
  | Atomic.Timestamp ts ->
    Printf.sprintf "xs:dateTime(\"%s\")" (Atomic.timestamp_to_string ts)

type ctx = { buf : Buffer.t; mutable indent : int }

let nl ctx =
  Buffer.add_char ctx.buf '\n';
  Buffer.add_string ctx.buf (String.make (2 * ctx.indent) ' ')

let add ctx s = Buffer.add_string ctx.buf s

(* Precedence: or=1, and=2, comparison=3, additive=4, multiplicative=5,
   unary=6, postfix(path/filter)=7, primary=8. *)
let prec = function
  | Binop (B_or, _, _) -> 1
  | Binop (B_and, _, _) -> 2
  | Binop ((B_general _ | B_value _), _, _) -> 3
  | Binop (B_arith ((Add | Sub)), _, _) -> 4
  | Binop (B_arith _, _, _) -> 5
  | Neg _ -> 6
  | Path _ | Filter _ -> 7
  | Literal _ | Var _ | Context_item | Seq _ | Call _ | Elem _ | Text _ -> 8
  | Flwor _ | If _ | Quantified _ -> 0

let rec emit ctx outer e =
  let parenthesize = prec e < outer && prec e > 0 in
  let parenthesize =
    parenthesize || match e with Flwor _ | If _ | Quantified _ -> outer > 0 | _ -> false
  in
  if parenthesize then add ctx "(";
  (match e with
  | Literal a -> add ctx (atomic_literal a)
  | Var v -> add ctx ("$" ^ v)
  | Context_item -> add ctx "."
  | Seq [] -> add ctx "()"
  | Seq [ single ] ->
    (* a singleton sequence is the item itself; print canonically *)
    emit ctx outer single
  | Seq es ->
    add ctx "(";
    List.iteri
      (fun i x ->
        if i > 0 then add ctx ", ";
        emit ctx 1 x)
      es;
    add ctx ")"
  | Flwor f -> emit_flwor ctx f
  | Path (base, steps) ->
    (* a path rooted at the context item prints as a relative path *)
    let relative = base = Context_item in
    if not relative then emit ctx 7 base;
    List.iteri
      (fun i s ->
        if i > 0 || not relative then add ctx "/";
        add ctx s.name;
        List.iter
          (fun p ->
            add ctx "[";
            emit ctx 0 p;
            add ctx "]")
          s.predicates)
      steps
  | Call (name, args) ->
    add ctx (name ^ "(");
    List.iteri
      (fun i a ->
        if i > 0 then add ctx ", ";
        emit ctx 1 a)
      args;
    add ctx ")"
  | Elem { name; content } -> emit_element ctx name content
  | Text s -> add ctx s
  | If (c, t, e) ->
    add ctx "if (";
    emit ctx 0 c;
    add ctx ") then";
    ctx.indent <- ctx.indent + 1;
    nl ctx;
    emit ctx 1 t;
    ctx.indent <- ctx.indent - 1;
    nl ctx;
    add ctx "else";
    ctx.indent <- ctx.indent + 1;
    nl ctx;
    emit ctx 1 e;
    ctx.indent <- ctx.indent - 1
  | Binop (op, a, b) ->
    let p = prec e in
    let op_str =
      match op with
      | B_and -> "and"
      | B_or -> "or"
      | B_general c -> cmp_general c
      | B_value c -> cmp_value c
      | B_arith a -> arith_to_string a
    in
    emit ctx p a;
    add ctx (" " ^ op_str ^ " ");
    emit ctx (p + 1) b
  | Neg a ->
    add ctx "-";
    emit ctx 6 a
  | Quantified { every; bindings; satisfies } ->
    add ctx (if every then "every" else "some");
    List.iteri
      (fun i (v, src) ->
        if i > 0 then add ctx ",";
        add ctx (" $" ^ v ^ " in ");
        emit ctx 3 src)
      bindings;
    add ctx " satisfies ";
    emit ctx 1 satisfies
  | Filter (base, pred) ->
    emit ctx 7 base;
    add ctx "[";
    emit ctx 0 pred;
    add ctx "]");
  if parenthesize then add ctx ")"

and emit_element ctx name content =
  (* Text parts are emitted literally; expression parts inside curly
     braces — the JSP-like constructor style of the paper. *)
  add ctx ("<" ^ name ^ ">");
  let multiline =
    List.exists (function Text _ | Literal _ -> false | _ -> true) content
  in
  if multiline then ctx.indent <- ctx.indent + 1;
  List.iter
    (fun part ->
      match part with
      | Text s -> add ctx s
      | Elem _ as e ->
        (* a literal child element needs no enclosing braces *)
        if multiline then nl ctx;
        emit ctx 1 e
      | e ->
        if multiline then nl ctx;
        add ctx "{";
        emit ctx 1 e;
        add ctx "}")
    content;
  if multiline then begin
    ctx.indent <- ctx.indent - 1;
    nl ctx
  end;
  add ctx ("</" ^ name ^ ">")

and emit_flwor ctx f =
  match f.clauses with
  | Where c :: rest ->
    (* XQuery opens a FLWOR with for or let, so a leading where (the
       optimizer hoists a closed condition to the front) prints as the
       conditional it means: c tested once, empty when false *)
    let body =
      match rest with [] -> f.return | _ -> Flwor { f with clauses = rest }
    in
    emit ctx 0 (If (c, body, Seq []))
  | _ -> emit_clauses ctx f

and emit_clauses ctx f =
  List.iteri
    (fun i clause ->
      if i > 0 then nl ctx;
      match clause with
      | For { var; source } ->
        add ctx ("for $" ^ var ^ " in ");
        emit ctx 3 source
      | Let { var; value } ->
        add ctx ("let $" ^ var ^ " := ");
        emit ctx 1 value
      | Where e ->
        add ctx "where ";
        emit ctx 1 e
      | Group { grouped; partition; keys } ->
        add ctx ("group $" ^ grouped ^ " as $" ^ partition ^ " by ");
        List.iteri
          (fun i (k, v) ->
            if i > 0 then add ctx ", ";
            emit ctx 3 k;
            add ctx (" as $" ^ v))
          keys
      | Order_by specs ->
        add ctx "order by ";
        List.iteri
          (fun i s ->
            if i > 0 then add ctx ", ";
            emit ctx 3 s.key;
            if s.descending then add ctx " descending";
            match s.empty with
            | Empty_least -> ()
            | Empty_greatest -> add ctx " empty greatest")
          specs
      | Hash_join { var; source; build_key; probe_key; value_cmp } ->
        (* printed in its logical (de-sugared) form so the output stays
           legal, parseable XQuery; the comment marks the physical op *)
        add ctx ("for $" ^ var ^ " in ");
        emit ctx 3 source;
        nl ctx;
        add ctx "where ";
        emit ctx 3 probe_key;
        add ctx (if value_cmp then " eq " else " = ");
        emit ctx 4 build_key;
        add ctx " (: hash equi-join :)")
    f.clauses;
  nl ctx;
  add ctx "return";
  ctx.indent <- ctx.indent + 1;
  nl ctx;
  emit ctx 1 f.return;
  ctx.indent <- ctx.indent - 1

let query_to_string (q : query) =
  let ctx = { buf = Buffer.create 1024; indent = 0 } in
  List.iter
    (fun imp ->
      add ctx
        (Printf.sprintf "import schema namespace %s = \"%s\" at \"%s\";"
           imp.prefix imp.namespace imp.location);
      nl ctx)
    q.prolog.imports;
  emit ctx 0 q.body;
  Buffer.contents ctx.buf

let expr_to_string e =
  let ctx = { buf = Buffer.create 256; indent = 0 } in
  emit ctx 0 e;
  Buffer.contents ctx.buf
