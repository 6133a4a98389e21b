(* Stage three of the translation (paper sections 3.4.3 and 3.5):
   a walk over the validated AST in which every resultset node
   translates itself into an XQuery expression — tables into [for]
   clauses over data-service functions, derived tables into [let]-bound
   RECORDSETs, outer joins into the if-empty pattern of Example 10,
   grouping into the BEA group-by extension, set operations into
   membership patterns — and the pieces are assembled bottom-up.

   Boolean predicates are translated with an explicit polarity so SQL
   three-valued logic maps onto XQuery two-valued logic: [gen_pred
   ~polarity:true p] is true exactly when [p] is TRUE in SQL, and
   [gen_pred ~polarity:false p] exactly when [p] is FALSE.  Negation
   flips the polarity instead of emitting [fn:not], which would
   conflate UNKNOWN with FALSE. *)

module A = Aqua_sql.Ast
module X = Aqua_xquery.Ast
module Sql_type = Aqua_relational.Sql_type
module Metadata = Aqua_dsp.Metadata
module Atomic = Aqua_xml.Atomic

let fail = Errors.raise_error

type style = Patterned | Naive

type lifted = { var : string; ordinal : int; cast : string option }

(* Literals by physical identity: a statement's literals, however many
   (a long IN-list), are each found in constant time. *)
module Literal_ordinals = Hashtbl.Make (struct
  type t = A.literal

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type state = {
  namer : Namer.t;
  env : Semantic.env;
  style : style;
  mutable imports : X.schema_import list;  (* reverse order *)
  lift : int Literal_ordinals.t;  (* literals to lift -> ordinal *)
  lifted : (string, lifted) Hashtbl.t;  (* by external name *)
  mutable order : lifted list;  (* reverse order *)
}

let create_state ?(style = Patterned) ?(lift = [||]) env =
  let ordinals = Literal_ordinals.create (Array.length lift) in
  Array.iteri (fun k lit -> Literal_ordinals.replace ordinals lit k) lift;
  { namer = Namer.create (); env; style; imports = []; lift = ordinals;
    lifted = Hashtbl.create 8; order = [] }

(* Registers a schema import for a table's namespace and returns the
   prefix to call its function with. *)
let import state (meta : Metadata.table) =
  match
    List.find_opt
      (fun (i : X.schema_import) -> i.X.namespace = meta.Metadata.namespace)
      state.imports
  with
  | Some i -> i.X.prefix
  | None ->
    let prefix = Printf.sprintf "ns%d" (List.length state.imports) in
    state.imports <-
      state.imports
      @ [ {
            X.prefix;
            namespace = meta.Metadata.namespace;
            location = meta.Metadata.location;
          } ];
    prefix

(* Generation context: the scope (whose views carry XQuery bindings)
   plus, inside a grouped query, how aggregates and grouping columns
   translate. *)
type group_ctx = {
  partition_var : string;
  (* resolved grouping columns -> key variable; vcols are matched by
     physical identity so same-label columns from different join sides
     stay distinct *)
  key_vars : (Scope.view * Scope.vcol * string) list;
  (* the record layout the partition's items follow: resolution ->
     qualified element name *)
  inter_elem : (Scope.view * Scope.vcol * string) list;
}

type gctx = {
  scope : Scope.t;
  group : group_ctx option;
}

let binding_of (view : Scope.view) =
  match view.Scope.binding with
  | Some v -> v
  | None -> fail Errors.Unsupported "internal: view without an XQuery binding"

let col_path (r : Scope.resolution) =
  X.path1 (X.var (binding_of r.Scope.res_view)) r.Scope.res_col.Scope.element

let resolve_exn scope ?qualifier name pos =
  match Scope.resolve scope ?qualifier name with
  | Ok r -> r
  | Error Scope.Not_found_in_scope ->
    fail ~pos Errors.Unknown_column "column %s does not exist"
      (match qualifier with Some q -> q ^ "." ^ name | None -> name)
  | Error (Scope.Ambiguous cs) ->
    fail ~pos Errors.Ambiguous_column "column %s is ambiguous: %s" name
      (String.concat ", " cs)

(* Null-aware optional element: absent when the value is empty.  The
   guard is elided when metadata proves the value non-null (patterned
   style); the naive style always guards. *)
let optional_element state ~nullable ~elem value =
  let body = X.elem elem [ X.call "fn:data" [ value ] ] in
  if nullable || state.style = Naive then
    X.If (X.call "fn:empty" [ value ], X.empty_seq, body)
  else body

let optional_element_of_atomic state ~nullable ~elem value =
  (* for already-atomized (computed) values bound to a variable *)
  let body = X.elem elem [ value ] in
  if nullable || state.style = Naive then
    X.If (X.call "fn:empty" [ value ], X.empty_seq, body)
  else body

(* ------------------------------------------------------------------ *)
(* Literals with casts (paper: `xs:integer(10)`)                      *)

let literal_expr (lit : A.literal) : X.expr =
  match lit with
  | A.L_int i -> X.int i
  | A.L_num (f, _) -> X.Literal (Atomic.Decimal f)
  | A.L_string s -> X.str s
  | A.L_bool b -> X.Literal (Atomic.Boolean b)
  | A.L_null -> X.empty_seq
  | A.L_date s -> X.call "xs:date" [ X.str s ]
  | A.L_time s -> X.call "xs:time" [ X.str s ]
  | A.L_timestamp s -> X.call "xs:dateTime" [ X.str s ]

let cast_literal_to ty (lit : A.literal) : X.expr =
  match lit with
  | A.L_null -> X.empty_seq
  | A.L_date _ | A.L_time _ | A.L_timestamp _ -> literal_expr lit
  | _ -> X.call (Sql_type.xquery_name ty) [ literal_expr lit ]

(* Literal lifting (DESIGN.md section 17).  With [~lift], a numeric or
   string literal used only as an opaque constant becomes the external
   [$litK] (K its ordinal), so the plan serves every statement that
   differs from this one only in such literals.  A cast that cannot
   fail on the literal's class is applied when the value is bound
   ([$litK_int] holds xs:int of literal K); one that can fail stays in
   the plan around [$litK] and raises where it always did.  Every other
   use of a literal (a constant LIKE pattern, below) reads its value
   and does not lift it, so the plan holds that value. *)
let ordinal state (lit : A.literal) = Literal_ordinals.find_opt state.lift lit

let total_cast (lit : A.literal) fn =
  match lit with
  | A.L_int _ | A.L_num _ ->
    List.mem fn
      [ "xs:short"; "xs:int"; "xs:long"; "xs:integer"; "xs:decimal";
        "xs:float"; "xs:double"; "xs:string"; "xs:boolean" ]
  | A.L_string _ -> fn = "xs:string"
  | _ -> false

let lifted_var state k cast =
  let var =
    match cast with
    | None -> Printf.sprintf "lit%d" k
    | Some fn ->
      Printf.sprintf "lit%d_%s" k (String.sub fn 3 (String.length fn - 3))
  in
  if not (Hashtbl.mem state.lifted var) then begin
    let l = { var; ordinal = k; cast } in
    Hashtbl.add state.lifted var l;
    state.order <- l :: state.order
  end;
  X.var var

let gen_literal state (lit : A.literal) =
  match ordinal state lit with
  | Some k -> lifted_var state k None
  | None -> literal_expr lit

let gen_literal_cast state ty (lit : A.literal) =
  match ordinal state lit with
  | Some k ->
    let fn = Sql_type.xquery_name ty in
    if total_cast lit fn then lifted_var state k (Some fn)
    else X.call fn [ lifted_var state k None ]
  | None -> cast_literal_to ty lit

(* ------------------------------------------------------------------ *)
(* LIKE patterns                                                      *)

type like_shape =
  | Like_exact of string
  | Like_prefix of string
  | Like_suffix of string
  | Like_infix of string
  | Like_general

let like_shape ~escape pattern =
  if escape <> None then Like_general
  else begin
    let n = String.length pattern in
    let has_meta_between i j =
      let rec go k =
        k < j && (pattern.[k] = '%' || pattern.[k] = '_' || go (k + 1))
      in
      i < j && go i
    in
    if n = 0 then Like_exact ""
    else if String.contains pattern '_' then Like_general
    else begin
      let leading = pattern.[0] = '%' in
      let trailing = n > 0 && pattern.[n - 1] = '%' in
      let inner_start = if leading then 1 else 0 in
      let inner_end = if trailing && n > inner_start then n - 1 else n in
      let inner =
        if inner_end > inner_start then
          String.sub pattern inner_start (inner_end - inner_start)
        else ""
      in
      if has_meta_between inner_start inner_end then Like_general
      else
        match (leading, trailing) with
        | false, false -> Like_exact pattern
        | false, true -> Like_prefix inner
        | true, false -> Like_suffix inner
        | true, true -> Like_infix inner
    end
  end

(* ================================================================== *)
(* Expressions                                                        *)

let rec gen_expr state gctx (e : A.expr) : X.expr =
  match e with
  | A.Lit lit -> gen_literal state lit
  | A.Column { qualifier; name; pos } ->
    X.call "fn:data" [ gen_column_path state gctx ?qualifier name pos ]
  | A.Param n -> X.var (Printf.sprintf "param%d" n)
  | A.Arith (op, a, b) ->
    let xop =
      match op with
      | A.Add -> X.Add
      | A.Sub -> X.Sub
      | A.Mul -> X.Mul
      | A.Div -> X.Div
    in
    X.Binop (X.B_arith xop, gen_operand state gctx a, gen_operand state gctx b)
  | A.Neg a -> X.Neg (gen_operand state gctx a)
  | A.Concat (a, b) ->
    let xa = gen_operand state gctx a and xb = gen_operand state gctx b in
    (* SQL || yields NULL when either side is NULL *)
    X.If
      ( X.Binop
          ( X.B_or,
            X.call "fn:empty" [ xa ],
            X.call "fn:empty" [ xb ] ),
        X.empty_seq,
        X.call "fn:concat" [ xa; xb ] )
  | A.Func { name; args } -> gen_function state gctx name args
  | A.Agg { func; distinct; arg } ->
    gen_aggregate state gctx ~func ~distinct ~arg
  | A.Cast (a, ty) ->
    X.call (Sql_type.xquery_name ty) [ gen_operand state gctx a ]
  | A.Case { operand; branches; else_ } ->
    let else_expr =
      match else_ with
      | Some e -> gen_operand state gctx e
      | None -> X.empty_seq
    in
    let cond_of (w, _) =
      match operand with
      | None -> gen_pred state gctx ~polarity:true w
      | Some op ->
        (* simple CASE: operand = when-value *)
        X.Binop
          ( X.B_general X.Eq,
            gen_operand state gctx op,
            gen_operand state gctx w )
    in
    List.fold_right
      (fun ((_, t) as branch) acc ->
        X.If (cond_of branch, gen_operand state gctx t, acc))
      branches else_expr
  | A.Scalar_subquery q ->
    let records, cols = gen_query_records state gctx.scope q in
    let elem =
      match cols with
      | [ c ] -> c.Outcol.element
      | _ ->
        fail Errors.Cardinality
          "a scalar subquery must return exactly one column"
    in
    X.call "fn:zero-or-one"
      [ X.call "fn:data" [ X.path1 records elem ] ]
  | A.Cmp _ | A.And _ | A.Or _ | A.Not _ | A.Is_null _ | A.Between _
  | A.Like _ | A.In_list _ | A.In_query _ | A.Exists _ | A.Quantified _ ->
    (* a predicate used as a value: TRUE / FALSE (never NULL at this
       2-valued boundary, mirroring a CASE WHEN p THEN TRUE ELSE FALSE) *)
    X.If
      ( gen_pred state gctx ~polarity:true e,
        X.Literal (Atomic.Boolean true),
        X.Literal (Atomic.Boolean false) )

(* An operand of arithmetic / comparisons: column references stay as
   paths (atomization is implicit), exactly as in the paper's
   examples. *)
and gen_operand state gctx (e : A.expr) : X.expr =
  match e with
  | A.Column { qualifier; name; pos } ->
    gen_column_path state gctx ?qualifier name pos
  | _ -> gen_expr state gctx e

and gen_column_path state gctx ?qualifier name pos : X.expr =
  ignore state;
  match gctx.group with
  | None -> col_path (resolve_exn gctx.scope ?qualifier name pos)
  | Some g -> (
    (* inside a grouped query: a bare column must be a grouping column
       (validated in stage two) and maps to its key variable *)
    let r = resolve_exn gctx.scope ?qualifier name pos in
    match
      List.find_opt
        (fun (view, col, _) ->
          view == r.Scope.res_view && col == r.Scope.res_col)
        g.key_vars
    with
    | Some (_, _, keyvar) -> X.var keyvar
    | None ->
      fail ~pos Errors.Grouping
        "column %s must appear in the GROUP BY clause or inside an \
         aggregate" name)

and gen_function state gctx name args : X.expr =
  match Funcmap.find name with
  | None -> fail Errors.Unsupported "unknown function %s" name
  | Some entry ->
    let xargs = List.map (gen_operand state gctx) args in
    let call = entry.Funcmap.emit xargs in
    if not entry.Funcmap.null_propagating then call
    else begin
      (* SQL gives NULL when any argument is NULL; guard unless
         metadata proves all arguments non-null *)
      let tenv = Semantic.typer_env state.env gctx.scope in
      let needs_guard arg =
        state.style = Naive
        ||
        match gctx.group with
        | Some _ -> true  (* conservatively guard inside grouped exprs *)
        | None -> (
          try (Typer.infer tenv arg).Typer.nullable with Errors.Error _ -> true)
      in
      let guarded =
        List.filter_map
          (fun (a, xa) -> if needs_guard a then Some xa else None)
          (List.combine args xargs)
      in
      match guarded with
      | [] -> call
      | g :: gs ->
        let cond =
          List.fold_left
            (fun acc x ->
              X.Binop (X.B_or, acc, X.call "fn:empty" [ x ]))
            (X.call "fn:empty" [ g ])
            gs
        in
        X.If (cond, X.empty_seq, call)
    end

and gen_aggregate state gctx ~(func : A.agg_func) ~distinct ~arg : X.expr =
  let g =
    match gctx.group with
    | Some g -> g
    | None ->
      fail Errors.Grouping "aggregate function %s outside a grouped query"
        (A.agg_func_name func)
  in
  let partition = X.var g.partition_var in
  match (func, arg) with
  | A.A_count_star, _ -> X.call "fn:count" [ partition ]
  | _, None -> fail Errors.Unsupported "aggregate without an argument"
  | func, Some arg ->
    (* The collected value sequence over the partition.  A plain column
       argument becomes a direct path over the partition (patterned
       style); a computed argument iterates the partition records. *)
    let collected =
      match arg with
      | A.Column { qualifier; name; pos } when state.style = Patterned ->
        let r = resolve_exn gctx.scope ?qualifier name pos in
        let elem =
          match
            List.find_opt
              (fun (view, col, _) ->
                view == r.Scope.res_view && col == r.Scope.res_col)
              g.inter_elem
          with
          | Some (_, _, elem) -> elem
          | None ->
            fail ~pos Errors.Grouping
              "internal: column %s missing from the grouping record" name
        in
        X.path1 partition elem
      | _ ->
        let v = Namer.var state.namer ~ctx:0 Namer.GB in
        let inner_view =
          {
            Scope.alias = None;
            cols =
              List.map
                (fun ((view : Scope.view), (c : Scope.vcol), elem) ->
                  let qualifier =
                    match c.Scope.qualifier with
                    | Some _ as q -> q
                    | None -> view.Scope.alias
                  in
                  { c with Scope.qualifier = qualifier; element = elem })
                g.inter_elem;
            binding = Some v;
          }
        in
        (* rebuild per-alias qualifiers so T.C resolves inside the agg *)
        let inner_scope = Scope.push Scope.root [ inner_view ] in
        let inner_gctx = { scope = inner_scope; group = None } in
        X.Flwor
          {
            X.clauses = [ X.For { var = v; source = partition } ];
            X.return = gen_operand state inner_gctx arg;
          }
    in
    let collected =
      if distinct then X.call "fn:distinct-values" [ collected ]
      else collected
    in
    (match func with
    | A.A_count_star -> assert false
    | A.A_count -> X.call "fn:count" [ collected ]
    | A.A_sum ->
      (* SQL: SUM over the empty (all-NULL) set is NULL, not 0 *)
      X.If
        ( X.call "fn:empty" [ collected ],
          X.empty_seq,
          X.call "fn:sum" [ collected ] )
    | A.A_avg -> X.call "fn:avg" [ collected ]
    | A.A_min -> X.call "fn:min" [ collected ]
    | A.A_max -> X.call "fn:max" [ collected ])

(* ================================================================== *)
(* Predicates with polarity                                           *)

and inverse_cmp (op : A.cmp_op) : A.cmp_op =
  match op with
  | A.Eq -> A.Neq
  | A.Neq -> A.Eq
  | A.Lt -> A.Ge
  | A.Le -> A.Gt
  | A.Gt -> A.Le
  | A.Ge -> A.Lt

and xq_cmp (op : A.cmp_op) : X.cmp =
  match op with
  | A.Eq -> X.Eq
  | A.Neq -> X.Ne
  | A.Lt -> X.Lt
  | A.Le -> X.Le
  | A.Gt -> X.Gt
  | A.Ge -> X.Ge

(* Casting discipline for comparisons and sort keys.  The platform's
   real data is schema-typed; over our untyped flat XML the translator
   makes types explicit instead (the paper's visible `xs:integer(10)`
   casts): literals are cast to the other operand's type, and column
   paths of non-character types are cast to their own metadata type so
   the XQuery comparison is numeric/date rather than string. *)
and needs_type_cast (ty : Sql_type.t) =
  Sql_type.is_numeric ty || Sql_type.is_datetime ty || ty = Sql_type.Boolean

and self_cast ty expr =
  if needs_type_cast ty then X.call (Sql_type.xquery_name ty) [ expr ]
  else expr

and infer_opt state gctx e =
  let tenv = Semantic.typer_env state.env gctx.scope in
  try Some (Typer.infer tenv e) with Errors.Error _ -> None

(* An operand whose value participates in ordering or comparison:
   column paths get their metadata type made explicit. *)
and gen_typed_operand state gctx (e : A.expr) : X.expr =
  let x = gen_operand state gctx e in
  match e with
  | A.Column _ -> (
    match infer_opt state gctx e with
    | Some info when info.Typer.known -> self_cast info.Typer.ty x
    | _ -> x)
  | _ -> x

(* Comparison operands: literals compared against typed expressions
   are cast to the comparison type (paper: `xs:integer(10)`). *)
and gen_cmp_operand state gctx (e : A.expr) (other : A.expr) : X.expr =
  match e with
  | A.Lit lit -> (
    match infer_opt state gctx other with
    | Some info when info.Typer.known -> gen_literal_cast state info.Typer.ty lit
    | _ -> gen_literal state lit)
  | _ -> gen_typed_operand state gctx e

and gen_cmp state gctx ~polarity op a b : X.expr =
  let op = if polarity then op else inverse_cmp op in
  X.Binop
    ( X.B_general (xq_cmp op),
      gen_cmp_operand state gctx a b,
      gen_cmp_operand state gctx b a )

and gen_pred state gctx ~polarity (e : A.expr) : X.expr =
  match e with
  | A.And (a, b) ->
    let xa = gen_pred state gctx ~polarity a in
    let xb = gen_pred state gctx ~polarity b in
    X.Binop ((if polarity then X.B_and else X.B_or), xa, xb)
  | A.Or (a, b) ->
    let xa = gen_pred state gctx ~polarity a in
    let xb = gen_pred state gctx ~polarity b in
    X.Binop ((if polarity then X.B_or else X.B_and), xa, xb)
  | A.Not a -> gen_pred state gctx ~polarity:(not polarity) a
  | A.Cmp (op, a, b) -> gen_cmp state gctx ~polarity op a b
  | A.Is_null { arg; negated } ->
    let v = gen_operand state gctx arg in
    let is_null = polarity <> negated in
    if is_null then X.call "fn:empty" [ v ] else X.call "fn:exists" [ v ]
  | A.Between { arg; low; high; negated } ->
    let expand =
      if negated then
        A.Or (A.Cmp (A.Lt, arg, low), A.Cmp (A.Gt, arg, high))
      else A.And (A.Cmp (A.Ge, arg, low), A.Cmp (A.Le, arg, high))
    in
    gen_pred state gctx ~polarity expand
  | A.Like { arg; pattern; escape; negated } ->
    gen_like state gctx ~polarity:(polarity <> negated) arg pattern escape
  | A.In_list { arg; items; negated } ->
    let positive = polarity <> negated in
    if positive then
      (* existential general comparison against the item sequence *)
      X.Binop
        ( X.B_general X.Eq,
          gen_operand state gctx arg,
          X.Seq (List.map (fun i -> gen_cmp_operand state gctx i arg) items) )
    else
      (* TRUE only when the argument differs from every item *)
      List.fold_left
        (fun acc item ->
          X.Binop
            ( X.B_and,
              acc,
              gen_cmp state gctx ~polarity:true A.Neq arg item ))
        (gen_cmp state gctx ~polarity:true A.Neq arg (List.hd items))
        (List.tl items)
  | A.In_query { arg; query; negated } ->
    let positive = polarity <> negated in
    let records, cols = gen_query_records state gctx.scope query in
    let elem =
      match cols with
      | [ c ] -> c.Outcol.element
      | _ -> fail Errors.Cardinality "IN subquery must return one column"
    in
    if positive then
      X.Binop
        ( X.B_general X.Eq,
          gen_typed_operand state gctx arg,
          X.path1 records elem )
    else begin
      (* NOT IN is TRUE only when the subquery has no NULLs and no
         matches; a record with an absent column makes the comparison
         below false, which is exactly SQL's UNKNOWN -> excluded *)
      let v = Namer.var state.namer ~ctx:0 Namer.WH in
      X.Quantified
        {
          every = true;
          bindings = [ (v, records) ];
          satisfies =
            X.Binop
              ( X.B_general X.Ne,
                gen_typed_operand state gctx arg,
                X.path1 (X.var v) elem );
        }
    end
  | A.Exists q ->
    let records, _ = gen_query_records state gctx.scope q in
    if polarity then X.call "fn:exists" [ records ]
    else X.call "fn:empty" [ records ]
  | A.Quantified { op; quantifier; arg; query } ->
    let records, cols = gen_query_records state gctx.scope query in
    let elem =
      match cols with
      | [ c ] -> c.Outcol.element
      | _ ->
        fail Errors.Cardinality "quantified subquery must return one column"
    in
    let v = Namer.var state.namer ~ctx:0 Namer.WH in
    let body op =
      X.Binop
        ( X.B_general (xq_cmp op),
          gen_typed_operand state gctx arg,
          X.path1 (X.var v) elem )
    in
    (match (quantifier, polarity) with
    | A.Q_any, true ->
      X.Quantified
        { every = false; bindings = [ (v, records) ]; satisfies = body op }
    | A.Q_any, false ->
      X.Quantified
        {
          every = true;
          bindings = [ (v, records) ];
          satisfies = body (inverse_cmp op);
        }
    | A.Q_all, true ->
      X.Quantified
        { every = true; bindings = [ (v, records) ]; satisfies = body op }
    | A.Q_all, false ->
      X.Quantified
        {
          every = false;
          bindings = [ (v, records) ];
          satisfies = body (inverse_cmp op);
        })
  | A.Lit (A.L_bool b) ->
    if b = polarity then X.call "fn:true" [] else X.call "fn:false" []
  | A.Lit A.L_null -> X.call "fn:false" []
  | _ ->
    (* boolean-valued expression (boolean column, CASE, parameter):
       TRUE-test or FALSE-test via a general comparison, so NULL is
       neither *)
    X.Binop
      ( X.B_general X.Eq,
        gen_operand state gctx e,
        X.Literal (Atomic.Boolean polarity) )

and gen_like state gctx ~polarity arg pattern escape : X.expr =
  let xarg = gen_operand state gctx arg in
  (* SQL: NULL LIKE p is UNKNOWN, but the string functions treat an
     empty sequence as "" — guard with fn:exists when the argument may
     be null *)
  let exists_guarded test =
    let nullable =
      match infer_opt state gctx arg with
      | Some info -> info.Typer.nullable
      | None -> true
    in
    if nullable || state.style = Naive then
      X.Binop (X.B_and, X.call "fn:exists" [ xarg ], test)
    else test
  in
  let positive_test =
    match (pattern, escape, state.style) with
    | A.Lit (A.L_string p), None, Patterned -> (
      match like_shape ~escape:None p with
      | Like_exact s -> X.Binop (X.B_general X.Eq, xarg, X.str s)
      | Like_prefix s -> exists_guarded (X.call "fn:starts-with" [ xarg; X.str s ])
      | Like_suffix s -> exists_guarded (X.call "fn:ends-with" [ xarg; X.str s ])
      | Like_infix s -> exists_guarded (X.call "fn:contains" [ xarg; X.str s ])
      | Like_general ->
        X.call "fn-bea:like" [ xarg; X.str p ])
    | _ ->
      let xpat = gen_operand state gctx pattern in
      let args =
        match escape with
        | None -> [ xarg; xpat ]
        | Some e -> [ xarg; xpat; gen_operand state gctx e ]
      in
      X.call "fn-bea:like" args
  in
  if polarity then positive_test
  else
    (* FALSE requires a non-null argument and a failing match *)
    X.Binop
      ( X.B_and,
        X.call "fn:exists" [ xarg ],
        X.call "fn:not" [ positive_test ] )

(* ================================================================== *)
(* FROM clauses: resultset nodes translating themselves               *)

(* Every leaf produces FLWOR clauses plus a bound view. *)
and gen_table_leaf state ctx (meta : Metadata.table) ~alias :
    X.clause list * Scope.view =
  let prefix = import state meta in
  let v = Namer.var state.namer ~ctx Namer.FR in
  let source = X.call (prefix ^ ":" ^ meta.Metadata.table) [] in
  let view = { (Semantic.table_view meta ~alias) with Scope.binding = Some v } in
  ([ X.For { var = v; source } ], view)

and gen_derived_leaf state ctx (query : A.query) ~alias :
    X.clause list * Scope.view =
  let records, cols = gen_query_records state Scope.root query in
  let tempvar = Namer.tempvar state.namer ~ctx Namer.FR in
  let v = Namer.var state.namer ~ctx Namer.FR in
  let clauses =
    [ X.Let { var = tempvar; value = X.elem "RECORDSET" [ records ] };
      X.For { var = v; source = X.path1 (X.var tempvar) "RECORD" } ]
  in
  let view = { (Semantic.derived_view cols ~alias) with Scope.binding = Some v } in
  (clauses, view)

(* Is this join tree free of outer joins (so it can be inlined as a
   chain of for-clauses with where-conjuncts, the paper's "double
   for")? *)
and gen_primary_leaf state ctx (p : A.table_primary) =
  match p with
  | A.Table_ref_name { name; alias; pos } ->
    let meta = state.env.Semantic.lookup_table name pos in
    gen_table_leaf state ctx meta ~alias
  | A.Derived { query; alias } -> gen_derived_leaf state ctx query ~alias

(* Translates one FROM item into clauses + the views it contributes.
   [parent] is the enclosing scope for correlation inside ON
   subqueries. *)
and gen_table_ref state ctx parent (tr : A.table_ref) :
    X.clause list * Scope.view list =
  match tr with
  | A.Primary p ->
    let clauses, view = gen_primary_leaf state ctx p in
    (clauses, [ view ])
  | A.Join { kind = A.J_cross; left; right; cond = _ } ->
    let lc, lv = gen_table_ref state ctx parent left in
    let rc, rv = gen_table_ref state ctx parent right in
    (lc @ rc, lv @ rv)
  | A.Join { kind = A.J_inner; left; right; cond } ->
    let lc, lv = gen_table_ref state ctx parent left in
    let rc, rv = gen_table_ref state ctx parent right in
    let views = lv @ rv in
    let where =
      match cond with
      | None -> []
      | Some c ->
        let scope = Scope.push parent views in
        [ X.Where (gen_pred state { scope; group = None } ~polarity:true c) ]
    in
    (lc @ rc @ where, views)
  | A.Join { kind = A.J_left | A.J_right | A.J_full; _ } ->
    let clauses, view = gen_outer_join state ctx parent tr in
    (clauses, [ view ])

(* Materializes an outer-join tree into a let-bound RECORDSET whose
   RECORDs carry qualified column elements, then iterates it — the
   paper's Example 10 pattern generalized. *)
and gen_outer_join state ctx parent (tr : A.table_ref) :
    X.clause list * Scope.view =
  let records, view_cols = gen_join_records state ctx parent tr in
  let tempvar = Namer.tempvar state.namer ~ctx Namer.FR in
  let v = Namer.var state.namer ~ctx Namer.FR in
  let view = { Scope.alias = None; cols = view_cols; binding = Some v } in
  ( [ X.Let { var = tempvar; value = X.elem "RECORDSET" [ records ] };
      X.For { var = v; source = X.path1 (X.var tempvar) "RECORD" } ],
    view )

(* Produces an expression yielding RECORD elements for a join tree,
   along with the qualified column layout of those records. *)
and gen_join_records state ctx parent (tr : A.table_ref) :
    X.expr * Scope.vcol list =
  match tr with
  | A.Primary _ -> assert false  (* only called on joins *)
  | A.Join { kind; left; right; cond } ->
    (* RIGHT OUTER JOIN mirrors to LEFT with sides swapped *)
    let kind, left, right =
      match kind with
      | A.J_right -> (A.J_left, right, left)
      | k -> (k, left, right)
    in
    let side side_tr =
      (* clauses + bound views + the qualified record layout of the side *)
      let clauses, views = gen_table_ref state ctx parent side_tr in
      let cols =
        List.concat_map
          (fun v -> Semantic.qualify_view_cols v)
          views
      in
      (clauses, views, cols)
    in
    let lclauses, lviews, lcols = side left in
    (* Build the RECORD fields directly: each side's views know their
       bindings; the qualified element name pairs with the underlying
       element in the view's rows. *)
    let fields_of_views views =
      List.concat_map
        (fun (v : Scope.view) ->
          let qualified = Semantic.qualify_view_cols v in
          List.map2
            (fun (orig : Scope.vcol) (q : Scope.vcol) ->
              let value = X.path1 (X.var (binding_of v)) orig.Scope.element in
              optional_element state ~nullable:orig.Scope.nullable
                ~elem:q.Scope.element value)
            v.Scope.cols qualified)
        views
    in
    let lfields = fields_of_views lviews in
    (match kind with
    | A.J_right -> assert false  (* mirrored to J_left above *)
    | A.J_inner | A.J_cross ->
      let rclauses, rviews, rcols = side right in
      let scope = Scope.push parent (lviews @ rviews) in
      let where =
        match cond with
        | None -> []
        | Some c ->
          [ X.Where (gen_pred state { scope; group = None } ~polarity:true c) ]
      in
      let rfields = fields_of_views rviews in
      ( X.Flwor
          {
            X.clauses = lclauses @ rclauses @ where;
            X.return = X.elem "RECORD" (lfields @ rfields);
          },
        lcols @ rcols )
    | A.J_left | A.J_full ->
      let rclauses, rviews, rcols = side right in
      let rcols_nullable = Semantic.make_nullable rcols in
      let scope = Scope.push parent (lviews @ rviews) in
      let on_pred =
        match cond with
        | None ->
          fail Errors.Unsupported "outer join requires an ON condition"
        | Some c -> gen_pred state { scope; group = None } ~polarity:true c
      in
      let rfields = fields_of_views rviews in
      (* matched rows: left clauses, right clauses, ON where *)
      let matched =
        X.Flwor
          {
            X.clauses = lclauses @ rclauses @ [ X.Where on_pred ];
            X.return = X.elem "RECORD" (lfields @ rfields);
          }
      in
      (* left rows with no match: quantifier over the right side *)
      let unmatched_left =
        X.Flwor
          {
            X.clauses =
              lclauses
              @ [ X.Where
                    (X.call "fn:empty"
                       [ X.Flwor
                           {
                             X.clauses = rclauses @ [ X.Where on_pred ];
                             X.return = X.int 1;
                           } ]) ];
            X.return = X.elem "RECORD" lfields;
          }
      in
      let parts =
        match kind with
        | A.J_left -> [ matched; unmatched_left ]
        | A.J_full ->
          let unmatched_right =
            X.Flwor
              {
                X.clauses =
                  rclauses
                  @ [ X.Where
                        (X.call "fn:empty"
                           [ X.Flwor
                               {
                                 X.clauses = lclauses @ [ X.Where on_pred ];
                                 X.return = X.int 1;
                               } ]) ];
                X.return = X.elem "RECORD" rfields;
              }
          in
          [ matched; unmatched_left; unmatched_right ]
        | _ -> assert false
      in
      let lcols_out =
        match kind with
        | A.J_full -> Semantic.make_nullable lcols
        | _ -> lcols
      in
      (X.Seq parts, lcols_out @ rcols_nullable))

(* ================================================================== *)
(* Query specs                                                        *)

(* Returns an expression yielding RECORD elements plus the output
   columns. [parent] scope enables correlated subqueries. *)
and gen_query_records state parent (q : A.query) : X.expr * Outcol.t list =
  match q with
  | A.Spec spec -> gen_spec_records state parent spec
  | A.Set { op; all; left; right } ->
    gen_setop_records state parent op all left right

and gen_spec_records state parent (spec : A.query_spec) :
    X.expr * Outcol.t list =
  let ctx = Namer.fresh_ctx state.namer in
  (* FROM *)
  let from_parts = List.map (gen_table_ref state ctx parent) spec.A.from in
  let clauses = List.concat_map fst from_parts in
  let views = List.concat_map snd from_parts in
  let scope = Scope.push parent views in
  let gctx = { scope; group = None } in
  (* WHERE *)
  let clauses =
    clauses
    @
    match spec.A.where with
    | None -> []
    | Some w -> [ X.Where (gen_pred state gctx ~polarity:true w) ]
  in
  (* select-list expansion against the bound scope *)
  let items = Semantic.expand_select state.env scope spec in
  let cols = List.map fst items in
  if Semantic.is_grouped spec then
    gen_grouped state ctx spec gctx clauses items
  else begin
    let records =
      build_return state gctx ~clauses ~items ~order:[]
    in
    let records =
      if spec.A.distinct then distinct_records state ctx cols records
      else records
    in
    (records, cols)
  end

(* Build the FLWOR returning one RECORD per tuple.  Computed items are
   let-bound so null guards don't evaluate them twice. *)
and build_return state gctx ~clauses ~items ~order : X.expr =
  let lets = ref [] in
  let fields =
    List.map
      (fun ((col : Outcol.t), expr) ->
        match expr with
        | A.Column { qualifier; name; pos } when gctx.group = None ->
          let path = gen_column_path state gctx ?qualifier name pos in
          optional_element state ~nullable:col.Outcol.nullable
            ~elem:col.Outcol.element path
        | _ ->
          let value = gen_expr state gctx expr in
          (match value with
          | X.Literal _ | X.Var _ ->
            optional_element_of_atomic state ~nullable:col.Outcol.nullable
              ~elem:col.Outcol.element value
          | _ ->
            let v = Namer.var state.namer ~ctx:0 Namer.SL in
            lets := X.Let { var = v; value } :: !lets;
            optional_element_of_atomic state ~nullable:col.Outcol.nullable
              ~elem:col.Outcol.element (X.var v)))
      items
  in
  let order_clause =
    match order with
    | [] -> []
    | specs -> [ X.Order_by specs ]
  in
  X.Flwor
    {
      X.clauses = clauses @ List.rev !lets @ order_clause;
      X.return = X.elem "RECORD" fields;
    }

(* Grouped query: materialize the pre-grouping tuple stream into a
   RECORDSET, regroup with the BEA extension, then project (paper
   Example 12). *)
and gen_grouped state ctx (spec : A.query_spec) gctx clauses items :
    X.expr * Outcol.t list =
  let cols = List.map fst items in
  let scope = gctx.scope in
  (* resolve grouping columns in the pre-group scope *)
  let group_resolutions =
    List.map
      (fun g ->
        match g with
        | A.Column { qualifier; name; pos } ->
          (resolve_exn scope ?qualifier name pos, name)
        | _ ->
          fail Errors.Grouping "GROUP BY items must be column references")
      spec.A.group_by
  in
  (* columns needed in the intermediate record: every column referenced
     in select items, HAVING, or GROUP BY *)
  let needed : (Scope.view * Scope.vcol) list ref = ref [] in
  let note (r : Scope.resolution) =
    if
      r.Scope.res_depth = 0
      && not
           (List.exists
              (fun (v, c) -> v == r.Scope.res_view && c == r.Scope.res_col)
              !needed)
    then needed := !needed @ [ (r.Scope.res_view, r.Scope.res_col) ]
  in
  let rec note_expr (e : A.expr) =
    match e with
    | A.Column { qualifier; name; pos } -> (
      match Scope.resolve scope ?qualifier name with
      | Ok r -> note r
      | Error _ -> ignore pos)
    | _ ->
      ignore
        (A.fold_expr
           (fun () sub -> if sub == e then () else note_expr_shallow sub)
           () e)
  and note_expr_shallow e =
    match e with A.Column _ -> note_expr e | _ -> ()
  in
  List.iter (fun (_, e) -> note_expr e) items;
  Option.iter note_expr spec.A.having;
  List.iter (fun (r, _) -> note r) group_resolutions;
  (* naive style: carry every column of every view *)
  if state.style = Naive then
    List.iter
      (fun (v : Scope.view) ->
        List.iter
          (fun c -> note { Scope.res_view = v; res_col = c; res_depth = 0 })
          v.Scope.cols)
      (Scope.views scope);
  (* intermediate record layout: qualified element names *)
  let used = Hashtbl.create 16 in
  let inter =
    List.map
      (fun ((v : Scope.view), (c : Scope.vcol)) ->
        let base =
          match (c.Scope.qualifier, v.Scope.alias) with
          | Some q, _ -> q ^ "." ^ c.Scope.label
          | None, Some a -> a ^ "." ^ c.Scope.label
          | None, None -> c.Scope.label
        in
        let elem =
          if Hashtbl.mem used base then base ^ "_2"
          else begin
            Hashtbl.add used base ();
            base
          end
        in
        (v, c, elem))
      !needed
  in
  let inter_fields =
    List.map
      (fun ((v : Scope.view), (c : Scope.vcol), elem) ->
        let value = X.path1 (X.var (binding_of v)) c.Scope.element in
        optional_element state ~nullable:c.Scope.nullable ~elem value)
      inter
  in
  let inter_var = Namer.tempvar state.namer ~ctx Namer.GB in
  let inter_records =
    X.Flwor { X.clauses; X.return = X.elem "RECORD" inter_fields }
  in
  let let_inter =
    X.Let
      { var = inter_var; value = X.elem "RECORDSET" [ inter_records ] }
  in
  let inter_elem_table =
    List.map (fun (v, (c : Scope.vcol), elem) -> (v, c, elem)) inter
  in
  if spec.A.group_by = [] then begin
    (* implicit single group: aggregates range over the whole input,
       which handles the empty-input case correctly (count star = 0) *)
    let g =
      {
        partition_var = inter_var ^ "Rows";
        key_vars = [];
        inter_elem = inter_elem_table;
      }
    in
    let let_rows =
      X.Let
        {
          var = g.partition_var;
          value = X.path1 (X.var inter_var) "RECORD";
        }
    in
    let ggctx = { gctx with group = Some g } in
    let fields =
      List.map
        (fun ((col : Outcol.t), expr) ->
          let value = gen_expr state ggctx expr in
          optional_element_of_atomic state ~nullable:col.Outcol.nullable
            ~elem:col.Outcol.element value)
        items
    in
    let record = X.elem "RECORD" fields in
    let body =
      match spec.A.having with
      | None -> record
      | Some h ->
        X.If (gen_pred state ggctx ~polarity:true h, record, X.empty_seq)
    in
    ( X.Flwor { X.clauses = [ let_inter; let_rows ]; X.return = body },
      cols )
  end
  else begin
    let row_var = Namer.var state.namer ~ctx Namer.GB in
    let partition_var = Namer.partition state.namer ~ctx in
    let keys =
      List.map
        (fun ((r : Scope.resolution), _name) ->
          let elem =
            match
              List.find_opt
                (fun (v, c, _) ->
                  v == r.Scope.res_view && c == r.Scope.res_col)
                inter_elem_table
            with
            | Some (_, _, elem) -> elem
            | None -> assert false
          in
          let keyvar = Namer.var state.namer ~ctx Namer.GB in
          (r, elem, keyvar))
        group_resolutions
    in
    let group_clause =
      X.Group
        {
          grouped = row_var;
          partition = partition_var;
          keys =
            List.map
              (fun (_, elem, keyvar) ->
                (X.call "fn:data" [ X.path1 (X.var row_var) elem ], keyvar))
              keys;
        }
    in
    let g =
      {
        partition_var;
        key_vars =
          List.map
            (fun ((r : Scope.resolution), _, keyvar) ->
              (r.Scope.res_view, r.Scope.res_col, keyvar))
            keys;
        inter_elem = inter_elem_table;
      }
    in
    let ggctx = { gctx with group = Some g } in
    let having_clause =
      match spec.A.having with
      | None -> []
      | Some h -> [ X.Where (gen_pred state ggctx ~polarity:true h) ]
    in
    let fields =
      List.map
        (fun ((col : Outcol.t), expr) ->
          let value = gen_expr state ggctx expr in
          optional_element_of_atomic state ~nullable:col.Outcol.nullable
            ~elem:col.Outcol.element value)
        items
    in
    let records =
      X.Flwor
        {
          X.clauses =
            [ let_inter;
              X.For
                {
                  var = row_var;
                  source = X.path1 (X.var inter_var) "RECORD";
                };
              group_clause ]
            @ having_clause;
          X.return = X.elem "RECORD" fields;
        }
    in
    let records =
      if spec.A.distinct then distinct_records state ctx cols records
      else records
    in
    (records, cols)
  end

(* DISTINCT / UNION dedup: regroup the records by every output column
   and keep each group's first record. *)
and distinct_records state ctx (cols : Outcol.t list) records : X.expr =
  let setvar = Namer.tempvar state.namer ~ctx Namer.SL in
  let row = Namer.var state.namer ~ctx Namer.SL in
  let partition = Namer.partition state.namer ~ctx in
  let keys =
    List.map
      (fun (c : Outcol.t) ->
        ( X.call "fn:data" [ X.path1 (X.var row) c.Outcol.element ],
          Namer.var state.namer ~ctx Namer.SL ))
      cols
  in
  X.Flwor
    {
      X.clauses =
        [ X.Let { var = setvar; value = X.elem "RECORDSET" [ records ] };
          X.For { var = row; source = X.path1 (X.var setvar) "RECORD" };
          X.Group { grouped = row; partition; keys } ];
      X.return = X.Filter (X.var partition, X.int 1);
    }

(* ================================================================== *)
(* Set operations                                                     *)

(* Re-projects records from one element layout to another (set
   operations take their column names from the left side). *)
and reproject state ctx ~(from_cols : Outcol.t list)
    ~(to_cols : Outcol.t list) records : X.expr =
  let same_layout =
    List.length from_cols = List.length to_cols
    && List.for_all2
         (fun (a : Outcol.t) (b : Outcol.t) ->
           a.Outcol.element = b.Outcol.element)
         from_cols to_cols
  in
  if same_layout then records
  else begin
    let setvar = Namer.tempvar state.namer ~ctx Namer.SL in
    let row = Namer.var state.namer ~ctx Namer.SL in
    let fields =
      List.map2
        (fun (src : Outcol.t) (dst : Outcol.t) ->
          let value = X.path1 (X.var row) src.Outcol.element in
          optional_element state ~nullable:src.Outcol.nullable
            ~elem:dst.Outcol.element value)
        from_cols to_cols
    in
    X.Flwor
      {
        X.clauses =
          [ X.Let { var = setvar; value = X.elem "RECORDSET" [ records ] };
            X.For { var = row; source = X.path1 (X.var setvar) "RECORD" } ];
        X.return = X.elem "RECORD" fields;
      }
  end

(* NULL-aware row equality between grouped key variables and a record's
   columns; used by INTERSECT/EXCEPT membership tests. *)
and roweq_keys keys other_var (cols : Outcol.t list) : X.expr =
  let per_col (keyvar : string) (c : Outcol.t) =
    let other = X.path1 (X.var other_var) c.Outcol.element in
    X.Binop
      ( X.B_or,
        X.Binop (X.B_general X.Eq, X.var keyvar, other),
        X.Binop
          ( X.B_and,
            X.call "fn:empty" [ X.var keyvar ],
            X.call "fn:empty" [ other ] ) )
  in
  match (keys, cols) with
  | [], _ | _, [] -> X.call "fn:true" []
  | k :: ks, c :: cs ->
    List.fold_left2
      (fun acc k c -> X.Binop (X.B_and, acc, per_col k c))
      (per_col k c) ks cs

and gen_setop_records state parent op all left right : X.expr * Outcol.t list =
  let ctx = Namer.fresh_ctx state.namer in
  let lrecords, lcols = gen_query_records state parent left in
  let rrecords, rcols = gen_query_records state parent right in
  (* unified output schema (validated in stage two) *)
  let out_cols =
    List.map2
      (fun (l : Outcol.t) (r : Outcol.t) ->
        { l with Outcol.nullable = l.Outcol.nullable || r.Outcol.nullable })
      lcols rcols
  in
  let rrecords = reproject state ctx ~from_cols:rcols ~to_cols:out_cols rrecords in
  match (op, all) with
  | A.S_union, true -> (X.Seq [ lrecords; rrecords ], out_cols)
  | A.S_union, false ->
    (distinct_records state ctx out_cols (X.Seq [ lrecords; rrecords ]), out_cols)
  | (A.S_intersect | A.S_except), _ ->
    let lvar = Namer.tempvar state.namer ~ctx Namer.SL in
    let rvar = Namer.tempvar state.namer ~ctx Namer.SL in
    let row = Namer.var state.namer ~ctx Namer.SL in
    let partition = Namer.partition state.namer ~ctx in
    let keyvars =
      List.map (fun _ -> Namer.var state.namer ~ctx Namer.SL) out_cols
    in
    let keys =
      List.map2
        (fun (c : Outcol.t) kv ->
          (X.call "fn:data" [ X.path1 (X.var row) c.Outcol.element ], kv))
        out_cols keyvars
    in
    let rmatch_var = Namer.var state.namer ~ctx Namer.SL in
    let matches =
      (* records of the right side equal to the current group's key *)
      X.Flwor
        {
          X.clauses =
            [ X.For
                {
                  var = rmatch_var;
                  source = X.path1 (X.var rvar) "RECORD";
                };
              X.Where (roweq_keys keyvars rmatch_var out_cols) ];
          X.return = X.var rmatch_var;
        }
    in
    let return =
      match (op, all) with
      | A.S_intersect, false ->
        X.If
          ( X.call "fn:exists" [ matches ],
            X.Filter (X.var partition, X.int 1),
            X.empty_seq )
      | A.S_except, false ->
        X.If
          ( X.call "fn:empty" [ matches ],
            X.Filter (X.var partition, X.int 1),
            X.empty_seq )
      | A.S_intersect, true ->
        (* min(l, r) copies *)
        let l = X.call "fn:count" [ X.var partition ] in
        let r = X.call "fn:count" [ matches ] in
        X.call "fn:subsequence"
          [ X.var partition;
            X.int 1;
            X.If (X.Binop (X.B_general X.Lt, r, l), r, l) ]
      | A.S_except, true ->
        (* l - r copies *)
        let l = X.call "fn:count" [ X.var partition ] in
        let r = X.call "fn:count" [ matches ] in
        X.call "fn:subsequence"
          [ X.var partition; X.int 1; X.Binop (X.B_arith X.Sub, l, r) ]
      | A.S_union, _ -> assert false
    in
    (* The lets live in an outer FLWOR so they remain visible after
       the group clause (grouping keeps only the enclosing environment
       plus keys and partition). *)
    ( X.Flwor
        {
          X.clauses =
            [ X.Let { var = lvar; value = X.elem "RECORDSET" [ lrecords ] };
              X.Let { var = rvar; value = X.elem "RECORDSET" [ rrecords ] } ];
          X.return =
            X.Flwor
              {
                X.clauses =
                  [ X.For
                      { var = row; source = X.path1 (X.var lvar) "RECORD" };
                    X.Group { grouped = row; partition; keys } ];
                X.return = return;
              };
        },
      out_cols )

(* ================================================================== *)
(* ORDER BY and the statement entry point                             *)

(* Sorts finished records by output columns (used for set operations,
   DISTINCT and grouped queries, where ORDER BY keys are restricted to
   output columns). *)
and order_output_records state ctx (cols : Outcol.t list)
    (order : (int * bool) list) records : X.expr =
  let setvar = Namer.tempvar state.namer ~ctx Namer.OB in
  let row = Namer.var state.namer ~ctx Namer.OB in
  let specs =
    List.map
      (fun (idx, descending) ->
        let c = List.nth cols idx in
        {
          X.key =
            self_cast c.Outcol.ty
              (X.call "fn:data" [ X.path1 (X.var row) c.Outcol.element ]);
          descending;
          empty = X.Empty_least;
        })
      order
  in
  X.Flwor
    {
      X.clauses =
        [ X.Let { var = setvar; value = X.elem "RECORDSET" [ records ] };
          X.For { var = row; source = X.path1 (X.var setvar) "RECORD" };
          X.Order_by specs ];
      X.return = X.var row;
    }

type output = {
  query : X.query;
  columns : Outcol.t list;
}

let output_index cols name =
  let target = String.uppercase_ascii name in
  let rec go i = function
    | [] -> None
    | (c : Outcol.t) :: rest ->
      if String.uppercase_ascii c.Outcol.label = target then Some i
      else go (i + 1) rest
  in
  go 0 cols

(* ORDER BY for a plain (ungrouped, non-distinct) top-level spec can
   use arbitrary expressions: translate keys inside the spec's own
   FLWOR.  Everything else sorts finished records by output column. *)
let rec gen_statement_internal state (stmt : A.statement) : output =
  let needs_output_sort =
    match stmt.A.body with
    | A.Spec spec -> Semantic.is_grouped spec || spec.A.distinct
    | A.Set _ -> true
  in
  let records, cols =
    match stmt.A.body with
    | A.Spec spec
      when (not needs_output_sort) && stmt.A.order_by <> [] ->
      (* regenerate the spec with the order clause inside its FLWOR *)
      gen_spec_with_order state spec stmt.A.order_by
    | _ -> gen_query_records state Scope.root stmt.A.body
  in
  let records =
    if needs_output_sort && stmt.A.order_by <> [] then begin
      (* probe the spec's own scope so column keys can be matched to
         the select items they resolve to *)
      let probe =
        match stmt.A.body with
        | A.Spec spec ->
          let scope = Semantic.spec_scope state.env Scope.root spec in
          Some (scope, Semantic.expand_select state.env scope spec)
        | A.Set _ -> None
      in
      let order =
        List.map
          (fun (o : A.order_item) ->
            let idx =
              match probe with
              | Some (scope, items) -> (
                match
                  Semantic.order_key_output_index state.env scope items o
                with
                | Some i -> i
                | None ->
                  fail Errors.Unknown_column
                    "ORDER BY key is not an output column")
              | None -> (
                match o.A.key with
                | A.Ord_position i -> i - 1
                | A.Ord_expr (A.Column { qualifier = None; name; _ }) -> (
                  match output_index cols name with
                  | Some i -> i
                  | None ->
                    fail Errors.Unknown_column
                      "ORDER BY key %s is not an output column" name)
                | A.Ord_expr _ ->
                  fail Errors.Unsupported
                    "ORDER BY expressions over set operations")
            in
            (idx, o.A.descending))
          stmt.A.order_by
      in
      let ctx = Namer.fresh_ctx state.namer in
      order_output_records state ctx cols order records
    end
    else records
  in
  let body = X.elem "RECORDSET" [ records ] in
  ( {
      query = { X.prolog = { X.imports = state.imports }; body };
      columns = cols;
    }
    : output )

and gen_spec_with_order state (spec : A.query_spec)
    (order_by : A.order_item list) : X.expr * Outcol.t list =
  let ctx = Namer.fresh_ctx state.namer in
  let parent = Scope.root in
  let from_parts = List.map (gen_table_ref state ctx parent) spec.A.from in
  let clauses = List.concat_map fst from_parts in
  let views = List.concat_map snd from_parts in
  let scope = Scope.push parent views in
  let gctx = { scope; group = None } in
  let clauses =
    clauses
    @
    match spec.A.where with
    | None -> []
    | Some w -> [ X.Where (gen_pred state gctx ~polarity:true w) ]
  in
  let items = Semantic.expand_select state.env scope spec in
  let cols = List.map fst items in
  let order_specs =
    List.map
      (fun (o : A.order_item) ->
        let key_expr =
          match o.A.key with
          | A.Ord_position i ->
            if i < 1 || i > List.length items then
              fail Errors.Unknown_column "ORDER BY position %d out of range" i
            else snd (List.nth items (i - 1))
          | A.Ord_expr (A.Column { qualifier = None; name; _ } as e) -> (
            (* output label takes precedence over source columns *)
            match output_index cols name with
            | Some i -> snd (List.nth items i)
            | None -> e)
          | A.Ord_expr e -> e
        in
        {
          X.key = gen_typed_operand state gctx key_expr;
          descending = o.A.descending;
          empty = X.Empty_least;
        })
      order_by
  in
  (build_return state gctx ~clauses ~items ~order:order_specs, cols)

let generate ?(style = Patterned) env (stmt : A.statement) : output =
  let state = create_state ~style env in
  gen_statement_internal state stmt

let generate_lifted env ~literals (stmt : A.statement) =
  let state = create_state ~lift:literals env in
  let output = gen_statement_internal state stmt in
  (output, List.rev state.order)

let lifted_value (l : lifted) (lit : A.literal) : X.expr =
  match l.cast with
  | None -> literal_expr lit
  | Some fn -> X.call fn [ literal_expr lit ]

let instantiate lifted (values : A.literal array) (q : X.query) =
  let by_var = Hashtbl.create (List.length lifted) in
  List.iter (fun l -> Hashtbl.replace by_var l.var l) lifted;
  let value v =
    Option.map
      (fun l -> lifted_value l values.(l.ordinal))
      (Hashtbl.find_opt by_var v)
  in
  { q with X.body = X.substitute value q.X.body }

(* The interpreter's cast of the literal, the one [instantiate]'s plan
   would apply. *)
let bindings lifted (values : A.literal array) =
  List.map
    (fun l ->
      let raw =
        match values.(l.ordinal) with
        | A.L_int i -> [ Aqua_xml.Item.Atomic (Atomic.Integer i) ]
        | A.L_num (f, _) -> [ Aqua_xml.Item.Atomic (Atomic.Decimal f) ]
        | A.L_string s -> [ Aqua_xml.Item.Atomic (Atomic.String s) ]
        | _ -> invalid_arg "Generate.bindings: not a liftable literal"
      in
      ( l.var,
        match l.cast with
        | None -> raw
        | Some fn -> (Option.get (Aqua_xqeval.Functions.lookup fn)) [ raw ] ))
    lifted
