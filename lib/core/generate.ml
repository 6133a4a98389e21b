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
  res : Semantic.t;
  style : style;
  mutable imports : X.schema_import list;  (* reverse order *)
  bindings : (int, string) Hashtbl.t;  (* view id -> XQuery row variable *)
  lift : int Literal_ordinals.t;  (* literals to lift -> ordinal *)
  lifted : (string, lifted) Hashtbl.t;  (* by external name *)
  mutable order : lifted list;  (* reverse order *)
}

let create_state ?(style = Patterned) ?(lift = [||]) res =
  let ordinals = Literal_ordinals.create (Array.length lift) in
  Array.iteri (fun k lit -> Literal_ordinals.replace ordinals lit k) lift;
  { namer = Namer.create (); res; style; imports = [];
    bindings = Hashtbl.create 8; lift = ordinals; lifted = Hashtbl.create 8;
    order = [] }

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

(* Generation context: inside a grouped query, how aggregates and
   grouping columns translate; inside a computed aggregate argument, the
   partition record its columns are read from. *)
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
  group : group_ctx option;
  row : (string * (Scope.view * Scope.vcol * string) list) option;
      (* the partition record variable and its layout *)
  outer_keys : (Scope.view * Scope.vcol * string) list;
      (* inside a subquery of a grouped query: the enclosing groups'
         grouping columns and key variables, which outer references to
         those columns read (the rows they came from are out of scope) *)
}

let top = { group = None; row = None; outer_keys = [] }

let find_col (r : Scope.resolution) table =
  List.find_map
    (fun (view, col, x) ->
      if view == r.Scope.res_view && col == r.Scope.res_col then Some x else None)
    table

let bind state (view : Scope.view) var = Hashtbl.replace state.bindings view.Scope.id var

let col_path state (view : Scope.view) (col : Scope.vcol) =
  X.path1 (X.var (Hashtbl.find state.bindings view.Scope.id)) col.Scope.element

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
  | A.Column _ -> X.call "fn:data" [ gen_column_path state gctx e ]
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
    let records, cols = gen_query_records state gctx q in
    X.call "fn:zero-or-one"
      [ X.call "fn:data" [ X.path1 records (single_element cols) ] ]
  | A.Cmp _ | A.And _ | A.Or _ | A.Not _ | A.Is_null _ | A.Between _
  | A.Like _ | A.In_list _ | A.In_query _ | A.Exists _ | A.Quantified _ ->
    (* a predicate used as a value: TRUE / FALSE (never NULL at this
       2-valued boundary, mirroring a CASE WHEN p THEN TRUE ELSE FALSE) *)
    X.If
      ( gen_pred state gctx ~polarity:true e,
        X.Literal (Atomic.Boolean true),
        X.Literal (Atomic.Boolean false) )

(* The one column a scalar, IN or quantified subquery returns. *)
and single_element (cols : Outcol.t list) =
  match cols with
  | [ c ] -> c.Outcol.element
  | _ -> invalid_arg "Generate: a subquery operand has one column"

(* An operand of arithmetic / comparisons: column references stay as
   paths (atomization is implicit), exactly as in the paper's
   examples. *)
and gen_operand state gctx (e : A.expr) : X.expr =
  match e with
  | A.Column _ -> gen_column_path state gctx e
  | _ -> gen_expr state gctx e

(* Inside a grouped query a bare column is a grouping column (stage two
   checks it) and maps to its key variable; inside a computed aggregate
   argument it reads the partition record. *)
and gen_column_path state gctx (e : A.expr) : X.expr =
  let r = Semantic.column state.res e in
  let on_row (var, layout) =
    Option.map (X.path1 (X.var var)) (find_col r layout)
  in
  match (gctx.group, Option.bind gctx.row on_row) with
  | Some g, _ -> X.var (Option.get (find_col r g.key_vars))
  | None, Some path -> path
  | None, None -> (
    match find_col r gctx.outer_keys with
    | Some keyvar -> X.var keyvar
    | None -> col_path state r.Scope.res_view r.Scope.res_col)

and gen_function state gctx name args : X.expr =
  let entry = Option.get (Funcmap.find name) in
  let xargs = List.map (gen_operand state gctx) args in
  let call = entry.Funcmap.emit xargs in
  if not entry.Funcmap.null_propagating then call
  else begin
    (* SQL gives NULL when any argument is NULL; guard unless
       metadata proves all arguments non-null *)
    let needs_guard arg =
      state.style = Naive
      ||
      match gctx.group with
      | Some _ -> true  (* conservatively guard inside grouped exprs *)
      | None -> (Semantic.info state.res arg).Typer.nullable
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
  let g = Option.get gctx.group in
  let partition = X.var g.partition_var in
  match (func, arg) with
  | A.A_count_star, _ -> X.call "fn:count" [ partition ]
  | _, None -> invalid_arg "Generate: an aggregate without an argument"
  | func, Some arg ->
    (* The collected value sequence over the partition.  A plain column
       argument becomes a direct path over the partition (patterned
       style); a computed argument iterates the partition records. *)
    let direct =
      match arg with
      | A.Column _ when state.style = Patterned ->
        find_col (Semantic.column state.res arg) g.inter_elem
      | _ -> None
    in
    let collected =
      match direct with
      | Some elem -> X.path1 partition elem
      | None ->
        let v = Namer.var state.namer ~ctx:0 Namer.GB in
        X.Flwor
          {
            X.clauses = [ X.For { var = v; source = partition } ];
            X.return =
              gen_operand state
                { gctx with group = None; row = Some (v, g.inter_elem) }
                arg;
          }
    in
    let collected =
      if distinct then X.call "fn:distinct-values" [ collected ]
      else collected
    in
    (* SQL orders character values as strings, while fn:min/fn:max read
       an untyped cell that looks like a number as xs:double: each
       collected character value is cast to xs:string first (a NULL,
       being absent, stays absent) *)
    let ordered collected =
      if Sql_type.is_character (Semantic.info state.res arg).Typer.ty then
        let v = Namer.var state.namer ~ctx:0 Namer.GB in
        X.Flwor
          {
            X.clauses = [ X.For { var = v; source = collected } ];
            X.return = X.call "xs:string" [ X.var v ];
          }
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
    | A.A_min -> X.call "fn:min" [ ordered collected ]
    | A.A_max -> X.call "fn:max" [ ordered collected ])

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

(* An operand whose value participates in ordering or comparison:
   column paths get their metadata type made explicit. *)
and gen_typed_operand state gctx (e : A.expr) : X.expr =
  let x = gen_operand state gctx e in
  match e with
  | A.Column _ -> self_cast (Semantic.column state.res e).Scope.res_col.Scope.ty x
  | _ -> x

(* Comparison operands: literals compared against typed expressions
   are cast to the comparison type (paper: `xs:integer(10)`). *)
and gen_cmp_operand state gctx (e : A.expr) (other : A.expr) : X.expr =
  match e with
  | A.Lit lit ->
    let info = Semantic.info state.res other in
    if info.Typer.known then gen_literal_cast state info.Typer.ty lit
    else gen_literal state lit
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
    let records, cols = gen_query_records state gctx query in
    let elem = single_element cols in
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
    let records, _ = gen_query_records state gctx q in
    if polarity then X.call "fn:exists" [ records ]
    else X.call "fn:empty" [ records ]
  | A.Quantified { op; quantifier; arg; query } ->
    let records, cols = gen_query_records state gctx query in
    let elem = single_element cols in
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
    if (Semantic.info state.res arg).Typer.nullable || state.style = Naive then
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

(* Translates one FROM item into clauses, binding its views to row
   variables; returns the views too.  [gctx] is the enclosing context
   ON subqueries correlate with. *)
and gen_from state ctx gctx (f : Semantic.from) : X.clause list * Scope.view list =
  match f with
  | Semantic.Leaf (view, Semantic.Table meta) ->
    let prefix = import state meta in
    let v = Namer.var state.namer ~ctx Namer.FR in
    bind state view v;
    ( [ X.For { var = v; source = X.call (prefix ^ ":" ^ meta.Metadata.table) [] } ],
      [ view ] )
  | Semantic.Leaf (view, Semantic.Derived query) ->
    let records, _ = gen_query_records state top query in
    let tempvar = Namer.tempvar state.namer ~ctx Namer.FR in
    let v = Namer.var state.namer ~ctx Namer.FR in
    bind state view v;
    ( [ X.Let { var = tempvar; value = X.elem "RECORDSET" [ records ] };
        X.For { var = v; source = X.path1 (X.var tempvar) "RECORD" } ],
      [ view ] )
  | Semantic.Inner (left, right, cond) ->
    (* the paper's "double for": a chain of for-clauses with the ON
       conditions as where-conjuncts *)
    let lc, lv = gen_from state ctx gctx left in
    let rc, rv = gen_from state ctx gctx right in
    let where =
      match cond with
      | None -> []
      | Some c -> [ X.Where (gen_pred state gctx ~polarity:true c) ]
    in
    (lc @ rc @ where, lv @ rv)
  | Semantic.Outer { left; right; cond; full; view } ->
    (* Materializes the outer-join tree into a let-bound RECORDSET whose
       RECORDs carry qualified column elements, then iterates it — the
       paper's Example 10 pattern generalized. *)
    let records = gen_outer_join state ctx gctx ~left ~right ~cond ~full view in
    let tempvar = Namer.tempvar state.namer ~ctx Namer.FR in
    let v = Namer.var state.namer ~ctx Namer.FR in
    bind state view v;
    ( [ X.Let { var = tempvar; value = X.elem "RECORDSET" [ records ] };
        X.For { var = v; source = X.path1 (X.var tempvar) "RECORD" } ],
      [ view ] )

(* RECORD elements for an outer join: the matched pairs, then the
   unmatched rows of the preserved side(s). *)
and gen_outer_join state ctx gctx ~left ~right ~cond ~full (view : Scope.view) =
  let lclauses, lviews = gen_from state ctx gctx left in
  (* The RECORD fields of [views]' columns, each named by its qualified
     copy in [cols] (the joined view's columns follow the sides' views
     in order); returns the copies left over. *)
  let fields_of_views views cols =
    let fields, rest =
      List.fold_left
        (fun (fields, cols) (v : Scope.view) ->
          List.fold_left
            (fun (fields, cols) (orig : Scope.vcol) ->
              match cols with
              | (q : Scope.vcol) :: cols ->
                ( optional_element state ~nullable:orig.Scope.nullable
                    ~elem:q.Scope.element (col_path state v orig)
                  :: fields,
                  cols )
              | [] -> invalid_arg "Generate: an outer join's view is too short")
            (fields, cols) v.Scope.cols)
        ([], cols) views
    in
    (List.rev fields, rest)
  in
  let lfields, rcols = fields_of_views lviews view.Scope.cols in
  let rclauses, rviews = gen_from state ctx gctx right in
  let on_pred = gen_pred state gctx ~polarity:true cond in
  let rfields, _ = fields_of_views rviews rcols in
  (* matched rows: left clauses, right clauses, ON where *)
  let matched =
    X.Flwor
      {
        X.clauses = lclauses @ rclauses @ [ X.Where on_pred ];
        X.return = X.elem "RECORD" (lfields @ rfields);
      }
  in
  (* rows of one side with no match: quantifier over the other side *)
  let unmatched clauses other fields =
    X.Flwor
      {
        X.clauses =
          clauses
          @ [ X.Where
                (X.call "fn:empty"
                   [ X.Flwor
                       {
                         X.clauses = other @ [ X.Where on_pred ];
                         X.return = X.int 1;
                       } ]) ];
        X.return = X.elem "RECORD" fields;
      }
  in
  X.Seq
    (matched
     :: unmatched lclauses rclauses lfields
     :: (if full then [ unmatched rclauses lclauses rfields ] else []))

(* ================================================================== *)
(* Query specs                                                        *)

(* Returns an expression yielding RECORD elements plus the output
   columns. [gctx] is the enclosing context correlated subqueries
   read. *)
and gen_query_records state gctx (q : A.query) : X.expr * Outcol.t list =
  match q with
  | A.Spec spec -> gen_spec_records state gctx spec
  | A.Set { op; all; left; right } ->
    gen_setop_records state gctx op all left right

(* [order]: the statement's ORDER BY, for a top-level spec that is
   neither grouped nor DISTINCT: its keys sort inside the spec's own
   FLWOR. *)
and gen_spec_records ?(order = []) state gctx (spec : A.query_spec) :
    X.expr * Outcol.t list =
  let r = Semantic.spec state.res spec in
  let ctx = Namer.fresh_ctx state.namer in
  let outer_keys =
    match gctx.group with
    | Some g -> g.key_vars @ gctx.outer_keys
    | None -> gctx.outer_keys
  in
  let gctx = { gctx with group = None; outer_keys } in
  (* FROM *)
  let clauses = List.concat_map (fun f -> fst (gen_from state ctx gctx f)) r.Semantic.from in
  (* WHERE *)
  let clauses =
    clauses
    @
    match spec.A.where with
    | None -> []
    | Some w -> [ X.Where (gen_pred state gctx ~polarity:true w) ]
  in
  let items = r.Semantic.items in
  let cols = List.map fst items in
  if r.Semantic.grouped then gen_grouped state ctx spec r gctx clauses
  else begin
    let order =
      List.map
        (fun (key, descending) ->
          let key_expr =
            match key with
            | Semantic.Output i -> snd (List.nth items i)
            | Semantic.Key e -> e
          in
          { X.key = gen_typed_operand state gctx key_expr; descending;
            empty = X.Empty_least })
        order
    in
    let records = build_return state gctx ~clauses ~items ~order in
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
        | A.Column _ when gctx.group = None ->
          let path = gen_column_path state gctx expr in
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
and gen_grouped state ctx (spec : A.query_spec) (r : Semantic.spec) gctx clauses :
    X.expr * Outcol.t list =
  let items = r.Semantic.items in
  let cols = List.map fst items in
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
  let note_expr e =
    A.fold_expr
      (fun () sub ->
        match sub with
        | A.Column _ -> note (Semantic.column state.res sub)
        | _ -> ())
      () e
  in
  List.iter (fun (_, e) -> note_expr e) items;
  Option.iter note_expr spec.A.having;
  List.iter note r.Semantic.group_by;
  (* naive style: carry every column of every view *)
  if state.style = Naive then
    List.iter
      (fun (v : Scope.view) ->
        List.iter
          (fun c -> note { Scope.res_view = v; res_col = c; res_depth = 0 })
          v.Scope.cols)
      r.Semantic.views;
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
        optional_element state ~nullable:c.Scope.nullable ~elem (col_path state v c))
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
  if spec.A.group_by = [] then begin
    (* implicit single group: aggregates range over the whole input,
       which handles the empty-input case correctly (count star = 0) *)
    let g =
      {
        partition_var = inter_var ^ "Rows";
        key_vars = [];
        inter_elem = inter;
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
        (fun (g : Scope.resolution) ->
          let elem = Option.get (find_col g inter) in
          let keyvar = Namer.var state.namer ~ctx Namer.GB in
          (g, elem, keyvar))
        r.Semantic.group_by
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
        inter_elem = inter;
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

and gen_setop_records state gctx op all left right : X.expr * Outcol.t list =
  let ctx = Namer.fresh_ctx state.namer in
  let lrecords, lcols = gen_query_records state gctx left in
  let rrecords, rcols = gen_query_records state gctx right in
  let out_cols = Semantic.set_columns lcols rcols in
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


(* ORDER BY over output columns sorts the finished records; an
   ungrouped, non-distinct spec sorts inside its own FLWOR instead. *)
let gen_statement state : output =
  let stmt = Semantic.statement state.res in
  let order = Semantic.order_by state.res in
  let records, cols =
    match stmt.A.body with
    | A.Spec spec
      when not ((Semantic.spec state.res spec).Semantic.grouped || spec.A.distinct) ->
      gen_spec_records ~order state top spec
    | body ->
      let records, cols = gen_query_records state top body in
      if order = [] then (records, cols)
      else begin
        let ctx = Namer.fresh_ctx state.namer in
        let order =
          List.map
            (function
              | Semantic.Output i, descending -> (i, descending)
              | Semantic.Key _, _ ->
                invalid_arg "Generate: an expression key over output columns")
            order
        in
        (order_output_records state ctx cols order records, cols)
      end
  in
  let body = X.elem "RECORDSET" [ records ] in
  { query = { X.prolog = { X.imports = state.imports }; body }; columns = cols }

let generate ?(style = Patterned) res : output =
  gen_statement (create_state ~style res)

let generate_lifted ~literals res =
  let state = create_state ~lift:literals res in
  let output = gen_statement state in
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
