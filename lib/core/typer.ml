(* Expression datatype computation (paper section 3.5 (v)): a
   bottom-up pass over expression trees that infers the SQL type and
   nullability of every expression, applying the SQL-92 promotion
   rules.  The results drive cast generation and the metadata-informed
   elision of null guards. *)

module Sql_type = Aqua_relational.Sql_type
module A = Aqua_sql.Ast

type info = {
  ty : Sql_type.t;
  nullable : bool;
  known : bool;  (* false for parameters and bare NULLs: suppress casts *)
}

let known ty nullable = { ty; nullable; known = true }
let unknown = { ty = Sql_type.Varchar None; nullable = true; known = false }

type env = {
  (* resolves a column reference to its type *)
  column : A.expr -> info;
  (* computes the output columns of a subquery (validating it) *)
  query_schema : A.query -> Outcol.t list;
  (* told the type of each operand stage three casts or guards by *)
  note : A.expr -> info -> unit;
}

let fail ?pos kind fmt = Errors.raise_error ?pos kind fmt

let promote ?pos a b =
  match (a.known, b.known) with
  | false, false -> unknown
  | false, true -> { b with nullable = a.nullable || b.nullable }
  | true, false -> { a with nullable = a.nullable || b.nullable }
  | true, true -> (
    match Sql_type.promote a.ty b.ty with
    | Some ty -> known ty (a.nullable || b.nullable)
    | None ->
      fail ?pos Errors.Type_mismatch
        "cannot combine %s and %s in an arithmetic expression"
        (Sql_type.to_string a.ty) (Sql_type.to_string b.ty))

let require_comparable ?pos a b =
  if a.known && b.known && not (Sql_type.comparable a.ty b.ty) then
    fail ?pos Errors.Type_mismatch "cannot compare %s with %s"
      (Sql_type.to_string a.ty) (Sql_type.to_string b.ty)

let scalar_subquery_info env q =
  match env.query_schema q with
  | [ col ] -> { ty = col.Outcol.ty; nullable = true; known = true }
  | cols ->
    fail Errors.Cardinality
      "a scalar subquery must return exactly one column, this one returns %d"
      (List.length cols)

let subquery_column_info env q =
  (* IN / quantified subqueries must also be single-column *)
  scalar_subquery_info env q

let literal (lit : A.literal) =
  match lit with
  | A.L_int _ -> known Sql_type.Integer false
  | A.L_num (_, spelling) ->
    let approx = String.contains spelling 'e' || String.contains spelling 'E' in
    known (if approx then Sql_type.Double else Sql_type.Decimal None) false
  | A.L_string _ -> known (Sql_type.Varchar None) false
  | A.L_date _ -> known Sql_type.Date false
  | A.L_time _ -> known Sql_type.Time false
  | A.L_timestamp _ -> known Sql_type.Timestamp false
  | A.L_bool _ -> known Sql_type.Boolean false
  | A.L_null -> { ty = Sql_type.Varchar None; nullable = true; known = false }

(* Infers an operand whose type stage three reads (the other side of a
   comparison with a literal, a function argument it may null-guard, a
   LIKE argument, an aggregate's argument); literals and columns need
   no note, stage three types them from the literal and the column's
   resolution. *)
let rec operand env (e : A.expr) =
  let i = infer env e in
  (match e with A.Lit _ | A.Column _ -> () | _ -> env.note e i);
  i

and infer env (e : A.expr) : info =
  match e with
  | A.Lit lit -> literal lit
  | A.Column _ -> env.column e
  | A.Param _ -> unknown
  | A.Arith (op, a, b) ->
    let ia = infer env a and ib = infer env b in
    if ia.known && not (Sql_type.is_numeric ia.ty) then
      fail Errors.Type_mismatch "arithmetic on non-numeric type %s"
        (Sql_type.to_string ia.ty);
    if ib.known && not (Sql_type.is_numeric ib.ty) then
      fail Errors.Type_mismatch "arithmetic on non-numeric type %s"
        (Sql_type.to_string ib.ty);
    let result = promote ia ib in
    (* division over exact numerics yields a decimal (matching the
       XQuery div operator the translation maps it to) *)
    if op = A.Div && result.known && Sql_type.is_exact_numeric result.ty then
      { result with ty = Sql_type.Decimal None }
    else result
  | A.Neg a ->
    let ia = infer env a in
    if ia.known && not (Sql_type.is_numeric ia.ty) then
      fail Errors.Type_mismatch "unary minus on non-numeric type %s"
        (Sql_type.to_string ia.ty);
    ia
  | A.Concat (a, b) ->
    let ia = infer env a and ib = infer env b in
    known (Sql_type.Varchar None) (ia.nullable || ib.nullable)
  | A.Cmp (_, a, b) ->
    let ia = operand env a and ib = operand env b in
    require_comparable ia ib;
    known Sql_type.Boolean (ia.nullable || ib.nullable)
  | A.And (a, b) | A.Or (a, b) ->
    let ia = infer env a and ib = infer env b in
    known Sql_type.Boolean (ia.nullable || ib.nullable)
  | A.Not a -> infer env a
  | A.Is_null { arg; _ } ->
    ignore (infer env arg);
    known Sql_type.Boolean false
  | A.Between { arg; low; high; _ } ->
    let ia = operand env arg and il = operand env low and ih = operand env high in
    require_comparable ia il;
    require_comparable ia ih;
    known Sql_type.Boolean (ia.nullable || il.nullable || ih.nullable)
  | A.Like { arg; pattern; escape; _ } ->
    let ia = operand env arg and ip = infer env pattern in
    let character i =
      if i.known && not (Sql_type.is_character i.ty) then
        fail Errors.Type_mismatch "LIKE applies to character types, not %s"
          (Sql_type.to_string i.ty)
    in
    character ia;
    let ie = Option.map (infer env) escape in
    character ip;
    Option.iter character ie;
    known Sql_type.Boolean
      (ia.nullable || ip.nullable
      || match ie with Some i -> i.nullable | None -> false)
  | A.In_list { arg; items; _ } ->
    let ia = operand env arg in
    let infos = List.map (operand env) items in
    List.iter (require_comparable ia) infos;
    known Sql_type.Boolean
      (ia.nullable || List.exists (fun i -> i.nullable) infos)
  | A.In_query { arg; query; _ } ->
    let ia = infer env arg in
    let iq = subquery_column_info env query in
    require_comparable ia iq;
    known Sql_type.Boolean true
  | A.Exists q ->
    ignore (env.query_schema q);
    known Sql_type.Boolean false
  | A.Scalar_subquery q -> scalar_subquery_info env q
  | A.Quantified { arg; query; _ } ->
    let ia = infer env arg in
    let iq = subquery_column_info env query in
    require_comparable ia iq;
    known Sql_type.Boolean true
  | A.Func { name; args } -> (
    match Funcmap.find name with
    | None ->
      fail Errors.Unsupported "unknown function %s (supported: %s)" name
        (String.concat ", " (Funcmap.names ()))
    | Some entry ->
      let n = List.length args in
      if n < entry.Funcmap.min_args || n > entry.Funcmap.max_args then
        fail Errors.Type_mismatch "%s expects between %d and %d arguments" name
          entry.Funcmap.min_args entry.Funcmap.max_args;
      let infos = List.map (operand env) args in
      let tys = List.map (fun i -> if i.known then Some i.ty else None) infos in
      known
        (entry.Funcmap.result_type tys)
        (entry.Funcmap.nullable (List.map (fun i -> i.nullable) infos)))
  | A.Agg { func; arg; _ } -> (
    if Option.fold ~none:false ~some:A.contains_aggregate arg then
      fail Errors.Grouping "aggregate function %s takes an aggregate argument"
        (A.agg_func_name func);
    let arg_info = Option.map (operand env) arg in
    (match arg_info with
    | Some i
      when i.known
           && (match func with
              | A.A_sum | A.A_avg -> not (Sql_type.is_numeric i.ty)
              | _ -> false) ->
      fail Errors.Type_mismatch "%s requires a numeric argument"
        (A.agg_func_name func)
    | _ -> ());
    match func with
    | A.A_count_star | A.A_count -> known Sql_type.Integer false
    | A.A_sum -> (
      match arg_info with
      | Some i when i.known -> known i.ty true
      | _ -> { unknown with nullable = true })
    | A.A_avg -> known (Sql_type.Decimal None) true
    | A.A_min | A.A_max -> (
      match arg_info with
      | Some i -> { i with nullable = true }
      | None -> unknown))
  | A.Cast (a, ty) ->
    let ia = infer env a in
    known ty ia.nullable
  | A.Case { operand; branches; else_ } ->
    let operand_info = Option.map (infer env) operand in
    let branch_infos = List.map (fun (_, t) -> infer env t) branches in
    let else_info = Option.map (infer env) else_ in
    let all = branch_infos @ Option.to_list else_info in
    let result =
      List.fold_left
        (fun acc i ->
          match acc with
          | None -> Some i
          | Some a ->
            if a.known && i.known && Sql_type.is_numeric a.ty
               && Sql_type.is_numeric i.ty
            then Some (promote a i)
            else if a.known then Some a
            else Some i)
        None all
    in
    (* each WHEN is checked as WHERE checks its condition; a simple
       CASE compares its operand with each WHEN value *)
    List.iter
      (fun (w, _) ->
        let iw = infer env w in
        Option.iter (fun io -> require_comparable io iw) operand_info)
      branches;
    let nullable =
      else_ = None || List.exists (fun i -> i.nullable) all
    in
    (match result with
    | Some r -> { r with nullable }
    | None -> { unknown with nullable })
