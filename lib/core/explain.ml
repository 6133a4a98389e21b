module A = Aqua_sql.Ast
module Pretty = Aqua_sql.Pretty
module Metadata = Aqua_dsp.Metadata

type printer = {
  buf : Buffer.t;
  mutable next_ctx : int;
  resolved : Semantic.t;
}

let line p depth fmt =
  Format.kasprintf
    (fun s ->
      Buffer.add_string p.buf (String.make (2 * depth) ' ');
      Buffer.add_string p.buf s;
      Buffer.add_char p.buf '\n')
    fmt

let fresh_ctx p =
  let id = p.next_ctx in
  p.next_ctx <- id + 1;
  id

let join_kind_name = function
  | A.J_inner -> "INNER JOIN"
  | A.J_left -> "LEFT OUTER JOIN"
  | A.J_right -> "RIGHT OUTER JOIN"
  | A.J_full -> "FULL OUTER JOIN"
  | A.J_cross -> "CROSS JOIN"

let setop_name = function
  | A.S_union -> "UNION"
  | A.S_intersect -> "INTERSECT"
  | A.S_except -> "EXCEPT"

let rec explain_table_ref env p depth (tr : A.table_ref) =
  match tr with
  | A.Primary (A.Table_ref_name { name; alias; pos }) ->
    let meta = env.Semantic.lookup_table name pos in
    line p depth "RSN table %s%s -> %s.%s (%d columns)" meta.Metadata.table
      (match alias with Some a -> " AS " ^ a | None -> "")
      meta.Metadata.schema meta.Metadata.table
      (List.length meta.Metadata.columns)
  | A.Primary (A.Derived { query; alias }) ->
    line p depth "RSN derived table AS %s" alias;
    explain_query env p (depth + 1) query
  | A.Join { kind; left; right; cond } ->
    line p depth "RSN join (%s)%s" (join_kind_name kind)
      (match cond with
      | Some c -> " ON " ^ Pretty.expr_to_string c
      | None -> "");
    explain_table_ref env p (depth + 1) left;
    explain_table_ref env p (depth + 1) right

and explain_spec env p depth (spec : A.query_spec) =
  let ctx = fresh_ctx p in
  let r = Semantic.spec p.resolved spec in
  line p depth "CTX%d: query%s%s" ctx
    (if spec.A.distinct then " DISTINCT" else "")
    (if r.Semantic.grouped then " (grouped)" else "");
  line p (depth + 1) "select: %s"
    (String.concat ", "
       (List.map
          (fun ((c : Outcol.t), _) ->
            Printf.sprintf "%s %s%s" c.Outcol.label
              (Aqua_relational.Sql_type.to_string c.Outcol.ty)
              (if c.Outcol.nullable then "" else " NOT NULL"))
          r.Semantic.items));
  List.iter (explain_table_ref env p (depth + 1)) spec.A.from;
  (match spec.A.where with
  | Some w -> line p (depth + 1) "where: %s" (Pretty.expr_to_string w)
  | None -> ());
  (match spec.A.group_by with
  | [] -> ()
  | cols ->
    line p (depth + 1) "group by: %s"
      (String.concat ", " (List.map Pretty.expr_to_string cols)));
  (match spec.A.having with
  | Some h -> line p (depth + 1) "having: %s" (Pretty.expr_to_string h)
  | None -> ());
  (* subqueries inside expressions open their own contexts *)
  let note_subqueries clause e =
    List.iter
      (fun q ->
        line p (depth + 1) "RSN subquery (in %s):" clause;
        explain_query env p (depth + 2) q)
      (List.rev (A.subqueries_of_expr e))
  in
  List.iter
    (fun item ->
      match item with
      | A.Expr_item (e, _) -> note_subqueries "SELECT" e
      | A.Star | A.Table_star _ -> ())
    spec.A.select;
  Option.iter (note_subqueries "WHERE") spec.A.where;
  Option.iter (note_subqueries "HAVING") spec.A.having

and explain_query env p depth (q : A.query) =
  match q with
  | A.Spec spec -> explain_spec env p depth spec
  | A.Set { op; all; left; right } ->
    line p depth "RSN set operation: %s%s" (setop_name op)
      (if all then " ALL" else "");
    explain_query env p (depth + 1) left;
    explain_query env p (depth + 1) right

(* The physical plan the XQuery optimizer would pick for this
   statement: translate (stage three), optimize, report what fired and
   the engine's notes on the compiled plan.  With no catalog the
   compile accepts every function name and knows no scan returns only
   rows; the plan never runs. *)
let explain_optimizer p =
  let optimized, report =
    Aqua_xqeval.Optimize.query (Generate.generate p.resolved).Generate.query
  in
  let compiled =
    Aqua_xqeval.Compile.compile ~optimize:false
      ~resolve:(fun _ -> Some (fun _ -> []))
      optimized
  in
  line p 1
    "optimizer: %d predicate(s) pushed down, %d hash equi-join(s) (%d \
     correlated probe(s)), %d constructor fusion(s), %d hoisted closed \
     subexpression(s) (%d semi-join, %d anti-join, %d set-op probe(s))"
    report.Aqua_xqeval.Optimize.pushed_predicates
    report.Aqua_xqeval.Optimize.hash_joins
    report.Aqua_xqeval.Optimize.correlated_probes
    report.Aqua_xqeval.Optimize.fusions
    report.Aqua_xqeval.Optimize.hoisted
    report.Aqua_xqeval.Optimize.semi_joins
    report.Aqua_xqeval.Optimize.anti_joins
    report.Aqua_xqeval.Optimize.setop_probes;
  List.iter
    (fun note -> line p 2 "PLAN %s" note)
    (report.Aqua_xqeval.Optimize.notes @ Aqua_xqeval.Compile.shape compiled);
  if report.Aqua_xqeval.Optimize.hash_joins = 0 then
    line p 2 "PLAN joins (if any) run as nested loops"

let statement env (stmt : A.statement) =
  (* validate first so the dump reflects a legal query *)
  let p = { buf = Buffer.create 512; next_ctx = 1; resolved = Semantic.resolve env stmt } in
  line p 0 "CTX0 (outermost scope)";
  explain_query env p 1 stmt.A.body;
  (match stmt.A.order_by with
  | [] -> ()
  | items ->
    line p 1 "order by: %s"
      (String.concat ", "
         (List.map
            (fun (o : A.order_item) ->
              (match o.A.key with
              | A.Ord_position i -> string_of_int i
              | A.Ord_expr e -> Pretty.expr_to_string e)
              ^ if o.A.descending then " DESC" else "")
            items)));
  explain_optimizer p;
  Buffer.contents p.buf
