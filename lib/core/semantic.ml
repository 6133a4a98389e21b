(* Stage two of the translation (paper section 3.4): semantic
   validation against metadata and computation of every (sub)query's
   output schema.  Wildcards are expanded here, aliases resolved,
   grouping rules enforced — the information the paper moves into
   "XQuery-relevant positions" of the AST is returned as a resolved
   statement, which stage three serializes without resolving again. *)

module A = Aqua_sql.Ast
module Sql_type = Aqua_relational.Sql_type
module Schema = Aqua_relational.Schema
module Metadata = Aqua_dsp.Metadata

let fail = Errors.raise_error

type env = {
  lookup_table : A.table_name -> A.pos -> Metadata.table;
}

let env_of_cache cache =
  {
    lookup_table =
      (fun (n : A.table_name) pos ->
        match
          Metadata.Cache.lookup cache ?catalog:n.A.catalog ?schema:n.A.schema
            n.A.table
        with
        | Ok t -> t
        | Error e ->
          fail ~pos Errors.Unknown_table "%s" (Metadata.error_to_string e));
  }

let env_of_application app =
  {
    lookup_table =
      (fun (n : A.table_name) pos ->
        match
          Metadata.lookup app ?catalog:n.A.catalog ?schema:n.A.schema n.A.table
        with
        | Ok t -> t
        | Error e ->
          fail ~pos Errors.Unknown_table "%s" (Metadata.error_to_string e));
  }

(* ------------------------------------------------------------------ *)
(* The resolved statement                                             *)

(* AST nodes by physical identity, as [Generate] keys literals; the
   hash looks at the first few values of a node only (a column's
   qualifier, name and position), not at a whole subquery. *)
module Node (T : sig type t end) = Hashtbl.Make (struct
  type t = T.t

  let equal = ( == )
  let hash = Hashtbl.hash_param 8 16
end)

module Exprs = Node (struct type t = A.expr end)
module Specs = Node (struct type t = A.query_spec end)

type source = Table of Metadata.table | Derived of A.query

type from =
  | Leaf of Scope.view * source
  | Inner of from * from * A.expr option
  | Outer of {
      left : from;
      right : from;
      cond : A.expr;
      full : bool;
      view : Scope.view;
    }

type spec = {
  from : from list;
  views : Scope.view list;
  scope : Scope.t;
  items : (Outcol.t * A.expr) list;
  grouped : bool;
  group_by : Scope.resolution list;
}

type order_key = Output of int | Key of A.expr

type t = {
  statement : A.statement;
  order_by : (order_key * bool) list;
  specs : spec Specs.t;
  resolutions : Scope.resolution Exprs.t;
  infos : Typer.info Exprs.t;
}

type state = {
  env : env;
  st_specs : spec Specs.t;
  st_resolutions : Scope.resolution Exprs.t;
  st_infos : Typer.info Exprs.t;
}

let state env =
  { env; st_specs = Specs.create 8; st_resolutions = Exprs.create 32;
    st_infos = Exprs.create 16 }

let spec t s = Specs.find t.specs s
let column t e = Exprs.find t.resolutions e

let info t (e : A.expr) =
  match e with
  | A.Lit lit -> Typer.literal lit
  | A.Column _ ->
    let c = (column t e).Scope.res_col in
    Typer.known c.Scope.ty c.Scope.nullable
  | _ -> Exprs.find t.infos e

(* ------------------------------------------------------------------ *)
(* Views                                                              *)

let table_view (meta : Metadata.table) ~alias : Scope.view =
  Scope.view
    ~alias:(Option.value alias ~default:meta.Metadata.table)
    (List.map
       (fun (c : Schema.column) ->
         Scope.col ~element:c.Schema.name ~ty:c.Schema.ty
           ~nullable:c.Schema.nullable c.Schema.name)
       meta.Metadata.columns)

let derived_view (cols : Outcol.t list) ~alias : Scope.view =
  Scope.view ~alias
    (List.map
       (fun (c : Outcol.t) ->
         Scope.col ~element:c.Outcol.element ~ty:c.Outcol.ty
           ~nullable:c.Outcol.nullable c.Outcol.label)
       cols)

(* The columns of one side of an outer join as the join's record
   carries them (qualified [T.C], nullable on a null-extended side), in
   record order and in lookup order. *)
let join_cols ~nullable views =
  List.fold_right
    (fun (v : Scope.view) (cols, lookup) ->
      let q = Scope.qualified_cols ~nullable v in
      let l =
        if v.Scope.lookup == v.Scope.cols then q
        else
          let copies = List.combine v.Scope.cols q in
          List.map (fun c -> List.assq c copies) v.Scope.lookup
      in
      (q @ cols, l @ lookup))
    views ([], [])

let rec leaves acc = function
  | Leaf (v, _) -> v :: acc
  | Inner (l, r, _) -> leaves (leaves acc r) l
  | Outer { left; right; _ } -> leaves (leaves acc right) left

(* The first alias, in FROM order (a join's aliases sorted), that a
   later one repeats. *)
let check_aliases from =
  let views =
    List.filter_map (function Leaf (v, _) -> Some v | _ -> None) from
    @ List.concat_map
        (function
          | Leaf _ -> []
          | tree ->
            List.sort
              (fun (a : Scope.view) (b : Scope.view) -> compare a.Scope.alias b.Scope.alias)
              (leaves [] tree))
        from
  in
  if List.compare_length_with views 1 > 0 then begin
    let count = Hashtbl.create 8 in
    List.iter
      (fun (v : Scope.view) ->
        Hashtbl.replace count v.Scope.alias_key
          (1 + Option.value (Hashtbl.find_opt count v.Scope.alias_key) ~default:0))
      views;
    match
      List.find_opt
        (fun (v : Scope.view) -> Hashtbl.find count v.Scope.alias_key > 1)
        views
    with
    | Some { Scope.alias = Some a; _ } ->
      fail Errors.Grouping "duplicate table alias %s in FROM" a
    | _ -> ()
  end

let is_grouped (spec : A.query_spec) =
  spec.A.group_by <> []
  || spec.A.having <> None
  || List.exists
       (function
         | A.Expr_item (e, _) -> A.contains_aggregate e
         | A.Star | A.Table_star _ -> false)
       spec.A.select

let unique_element used name =
  (* element names must be valid XML names: letters, digits, '_', '-',
     '.' and ':' (label text like EXPR$1 is sanitized) *)
  let name =
    String.map
      (fun c ->
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' | ':' -> c
        | _ -> '_')
      name
  in
  let name =
    if name = "" then "COL"
    else
      match name.[0] with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' -> name
      | _ -> "C_" ^ name
  in
  if not (Hashtbl.mem used name) then begin
    Hashtbl.add used name ();
    name
  end
  else begin
    let rec try_n n =
      let candidate = Printf.sprintf "%s_%d" name n in
      if Hashtbl.mem used candidate then try_n (n + 1)
      else begin
        Hashtbl.add used candidate ();
        candidate
      end
    in
    try_n 2
  end

(* ------------------------------------------------------------------ *)
(* Validation                                                         *)

let rec resolve_column st scope (e : A.expr) : Scope.resolution =
  match e with
  | A.Column { qualifier; name; pos } -> (
    match Scope.resolve scope ?qualifier name with
    | Ok r ->
      Exprs.replace st.st_resolutions e r;
      r
    | Error Scope.Not_found_in_scope ->
      fail ~pos Errors.Unknown_column "column %s does not exist"
        (match qualifier with Some q -> q ^ "." ^ name | None -> name)
    | Error (Scope.Ambiguous candidates) ->
      fail ~pos Errors.Ambiguous_column "column %s is ambiguous: %s" name
        (String.concat ", " candidates))
  | _ -> invalid_arg "Semantic.resolve_column"

and typer_env st scope : Typer.env =
  {
    Typer.column =
      (fun e ->
        let c = (resolve_column st scope e).Scope.res_col in
        Typer.known c.Scope.ty c.Scope.nullable);
    query_schema = (fun q -> fst (query_columns st ~parent:scope q));
    note = Exprs.replace st.st_infos;
  }

and infer st scope e = Typer.infer (typer_env st scope) e

and validate_condition st scope ~clause cond =
  if A.contains_aggregate cond then
    fail Errors.Grouping "aggregate functions are not allowed in %s" clause;
  ignore (infer st scope cond)

(* One FROM item: its tree and the views it binds, in the order stage
   three binds them — one per table or derived table under inner and
   cross joins, one flattened view per outer-join tree (paper Example
   10).  [parent] is the scope ON conditions correlate with. *)
and from_item st parent (tr : A.table_ref) : from * Scope.view list =
  match tr with
  | A.Primary (A.Table_ref_name { name; alias; pos }) ->
    let meta = st.env.lookup_table name pos in
    let v = table_view meta ~alias in
    (Leaf (v, Table meta), [ v ])
  | A.Primary (A.Derived { query; alias }) ->
    (* SQL-92: derived tables are not correlated with their siblings
       or the outer query *)
    let v = derived_view (snd (query_columns st ~parent:Scope.root query)) ~alias in
    (Leaf (v, Derived query), [ v ])
  | A.Join { kind = A.J_inner | A.J_cross; left; right; cond } ->
    let l, lviews = from_item st parent left in
    let r, rviews = from_item st parent right in
    let views = lviews @ rviews in
    Option.iter
      (validate_condition st (Scope.push parent views) ~clause:"ON")
      cond;
    (Inner (l, r, cond), views)
  | A.Join { kind = (A.J_left | A.J_right | A.J_full) as kind; left; right; cond } ->
    let l, lviews = from_item st parent left in
    let r, rviews = from_item st parent right in
    let cond =
      match cond with
      | Some c -> c
      | None -> fail Errors.Unsupported "outer join requires an ON condition"
    in
    validate_condition st (Scope.push parent (lviews @ rviews)) ~clause:"ON" cond;
    let lcols, llookup = join_cols ~nullable:(kind <> A.J_left) lviews in
    let rcols, rlookup = join_cols ~nullable:(kind <> A.J_right) rviews in
    let lookup = llookup @ rlookup in
    (* RIGHT OUTER JOIN is generated as LEFT with the sides swapped *)
    let left, right, cols =
      if kind = A.J_right then (r, l, rcols @ lcols) else (l, r, lcols @ rcols)
    in
    let view = Scope.view ~lookup cols in
    (Outer { left; right; cond; full = kind = A.J_full; view }, [ view ])

(* A grouped query's non-aggregated column references must be grouping
   columns (the paper's EMPNO/EMPNAME example). *)
and check_grouped st ~group_by ~context expr =
  let is_group_col (r : Scope.resolution) =
    List.exists
      (fun (g : Scope.resolution) ->
        g.Scope.res_view == r.Scope.res_view && g.Scope.res_col == r.Scope.res_col)
      group_by
  in
  (* Explicit recursion: stop at aggregates (their arguments may use
     any column) and at subqueries (they open their own scopes). *)
  let rec walk (e : A.expr) =
    match e with
    | A.Agg _ -> ()
    | A.Scalar_subquery _ | A.Exists _ -> ()
    | A.In_query { arg; _ } | A.Quantified { arg; _ } ->
      (* the comparison argument lives in this query's scope; the
         subquery opens its own *)
      walk arg
    | A.Column { name; pos; _ } ->
      if not (is_group_col (Exprs.find st.st_resolutions e)) then
        fail ~pos Errors.Grouping
          "column %s must appear in the GROUP BY clause or be used in an \
           aggregate function (%s)"
          name context
    | A.Lit _ | A.Param _ -> ()
    | A.Neg a | A.Not a | A.Cast (a, _) -> walk a
    | A.Arith (_, a, b) | A.Concat (a, b) | A.Cmp (_, a, b) | A.And (a, b)
    | A.Or (a, b) ->
      walk a;
      walk b
    | A.Is_null { arg; _ } -> walk arg
    | A.Between { arg; low; high; _ } ->
      walk arg;
      walk low;
      walk high
    | A.Like { arg; pattern; escape; _ } ->
      walk arg;
      walk pattern;
      Option.iter walk escape
    | A.In_list { arg; items; _ } ->
      walk arg;
      List.iter walk items
    | A.Func { args; _ } -> List.iter walk args
    | A.Case { operand; branches; else_ } ->
      Option.iter walk operand;
      List.iter
        (fun (w, t) ->
          walk w;
          walk t)
        branches;
      Option.iter walk else_
  in
  walk expr

and group_columns st scope (spec : A.query_spec) =
  List.map
    (fun g ->
      match g with
      | A.Column { name; pos; _ } ->
        let r = resolve_column st scope g in
        if r.Scope.res_depth > 0 then
          fail ~pos Errors.Grouping
            "GROUP BY column %s is not a column of this query's FROM clause"
            name;
        r
      | _ ->
        fail Errors.Grouping
          "GROUP BY items must be column references in SQL-92")
    spec.A.group_by

(* Expands wildcards and computes output columns; each output column is
   paired with the select expression that produces it (stars become
   explicit column references, resolved here). *)
and expand_select st scope (spec : A.query_spec) : (Outcol.t * A.expr) list =
  let used = Hashtbl.create 16 in
  let counter = ref 0 in
  let of_view_col ((v : Scope.view), (c : Scope.vcol)) =
    let qualifier =
      match c.Scope.qualifier with Some _ as q -> q | None -> v.Scope.alias
    in
    let expr = A.Column { qualifier; name = c.Scope.label; pos = A.no_pos } in
    Exprs.replace st.st_resolutions expr
      { Scope.res_view = v; res_col = c; res_depth = 0 };
    let element =
      unique_element used
        (match qualifier with
        | Some q -> q ^ "." ^ c.Scope.label
        | None -> c.Scope.label)
    in
    ( Outcol.make ~label:c.Scope.label ~element ~ty:c.Scope.ty
        ~nullable:c.Scope.nullable,
      expr )
  in
  List.concat_map
    (fun item ->
      incr counter;
      match item with
      | A.Star -> (
        match Scope.star_columns scope with
        | [] -> fail Errors.Unknown_column "SELECT * with an empty FROM scope"
        | cols -> List.map of_view_col cols)
      | A.Table_star alias -> (
        match Scope.qualified_star_columns scope alias with
        | [] ->
          fail Errors.Unknown_table "%s.* does not match any table in FROM"
            alias
        | cols -> List.map of_view_col cols)
      | A.Expr_item (expr, alias) ->
        let info = infer st scope expr in
        let label =
          match (alias, expr) with
          | Some a, _ -> a
          | None, A.Column { name; _ } -> name
          | None, _ -> Printf.sprintf "EXPR$%d" !counter
        in
        let element =
          match (alias, expr) with
          | Some a, _ -> unique_element used a
          | None, A.Column { qualifier = Some q; name; _ } ->
            unique_element used (q ^ "." ^ name)
          | None, A.Column { qualifier = None; name; _ } ->
            (* qualify with the resolved view's alias, as the paper
               does (<CUSTOMERS.CUSTOMERID>) *)
            let r = Exprs.find st.st_resolutions expr in
            let q =
              match
                (r.Scope.res_view.Scope.alias, r.Scope.res_col.Scope.qualifier)
              with
              | Some a, _ -> Some a
              | None, cq -> cq
            in
            unique_element used
              (match q with Some q -> q ^ "." ^ name | None -> name)
          | None, _ -> unique_element used label
        in
        [ ( Outcol.make ~label ~element ~ty:info.Typer.ty
              ~nullable:info.Typer.nullable,
            expr ) ])
    spec.A.select

and resolve_spec st ~parent (spec : A.query_spec) : spec =
  let from = List.map (from_item st parent) spec.A.from in
  let views = List.concat_map snd from in
  let from = List.map fst from in
  check_aliases from;
  let scope = Scope.push parent views in
  Option.iter (validate_condition st scope ~clause:"WHERE") spec.A.where;
  let items = expand_select st scope spec in
  let grouped = is_grouped spec in
  let group_by =
    if not grouped then []
    else begin
      let group_by = group_columns st scope spec in
      List.iter
        (fun (_, expr) -> check_grouped st ~group_by ~context:"in SELECT" expr)
        items;
      Option.iter
        (fun h ->
          ignore (infer st scope h);
          check_grouped st ~group_by ~context:"in HAVING" h)
        spec.A.having;
      group_by
    end
  in
  let r = { from; views; scope; items; grouped; group_by } in
  Specs.replace st.st_specs spec r;
  r

(* A query's output columns twice: as SQL types them (a set operation
   promotes numeric columns), which subqueries are typed by, and as the
   generated XQuery lays them out (a set operation keeps its left side's
   types), which derived tables and the statement's result read. *)
and query_columns st ~parent (q : A.query) : Outcol.t list * Outcol.t list =
  match q with
  | A.Spec spec ->
    let cols = List.map fst (resolve_spec st ~parent spec).items in
    (cols, cols)
  | A.Set { op = _; all = _; left; right } ->
    let lcols, llayout = query_columns st ~parent left in
    let rcols, rlayout = query_columns st ~parent right in
    if List.length lcols <> List.length rcols then
      fail Errors.Type_mismatch
        "set operation sides have different column counts (%d vs %d)"
        (List.length lcols) (List.length rcols);
    let sql =
      List.map2
        (fun (l : Outcol.t) (r : Outcol.t) ->
          if not (Sql_type.comparable l.Outcol.ty r.Outcol.ty) then
            fail Errors.Type_mismatch
              "set operation column %s: incompatible types %s and %s"
              l.Outcol.label
              (Sql_type.to_string l.Outcol.ty)
              (Sql_type.to_string r.Outcol.ty);
          let ty =
            if Sql_type.is_numeric l.Outcol.ty && Sql_type.is_numeric r.Outcol.ty
            then Option.value (Sql_type.promote l.Outcol.ty r.Outcol.ty) ~default:l.Outcol.ty
            else l.Outcol.ty
          in
          { l with Outcol.ty; nullable = l.Outcol.nullable || r.Outcol.nullable })
        lcols rcols
    in
    ( sql,
      List.map2
        (fun (l : Outcol.t) (r : Outcol.t) ->
          { l with Outcol.nullable = l.Outcol.nullable || r.Outcol.nullable })
        llayout rlayout )

(* ------------------------------------------------------------------ *)
(* ORDER BY                                                           *)

(* An unqualified column key naming an output label: the first such
   column. *)
let label_key (cols : Outcol.t list) (key : A.expr) =
  match key with
  | A.Column { qualifier = None; name; _ } ->
    let name = String.uppercase_ascii name in
    let rec go i = function
      | [] -> None
      | (c : Outcol.t) :: rest ->
        if String.uppercase_ascii c.Outcol.label = name then Some i
        else go (i + 1) rest
    in
    go 0 cols
  | _ -> None

let position_key ncols i =
  if i < 1 || i > ncols then
    fail Errors.Unknown_column "ORDER BY position %d is out of range (1..%d)"
      i ncols
  else Output (i - 1)

let first_aggregate (e : A.expr) =
  A.fold_expr
    (fun found e ->
      match (found, e) with
      | None, A.Agg { func; _ } -> Some func
      | _ -> found)
    None e

(* An ungrouped, non-distinct spec sorts inside its own FLWOR, by any
   expression over its scope; an output label takes precedence over
   underlying columns and names its select expression (which the SQL
   engine evaluates as it is, whatever order its own select list). *)
let plain_order_key st (r : spec) cols (o : A.order_item) =
  match o.A.key with
  | A.Ord_position i -> position_key (List.length cols) i
  | A.Ord_expr e -> (
    match label_key cols e with
    | Some i -> Key (snd (List.nth r.items i))
    | None ->
      ignore (infer st r.scope e);
      Option.iter
        (fun func ->
          fail Errors.Grouping "aggregate function %s outside a grouped query"
            (A.agg_func_name func))
        (first_aggregate e);
      Key e)

(* A grouped or DISTINCT spec sorts its finished records: a key names
   an output column by position, by label, or — for a column key — by
   resolving to the same column as a select item ("ORDER BY C.TIER" when
   "C.TIER" is in the select list). *)
let output_order_key st (r : spec) cols (o : A.order_item) =
  let same_column (target : Scope.resolution) (_, item) =
    match item with
    | A.Column _ ->
      let ir = Exprs.find st.st_resolutions item in
      ir.Scope.res_view == target.Scope.res_view
      && ir.Scope.res_col == target.Scope.res_col
    | _ -> false
  in
  let found =
    match o.A.key with
    | A.Ord_position i ->
      if i >= 1 && i <= List.length cols then Some (i - 1) else None
    | A.Ord_expr e -> (
      match (label_key cols e, e) with
      | (Some _ as i), _ -> i
      | None, A.Column { qualifier; name; _ } -> (
        match Scope.resolve r.scope ?qualifier name with
        | Ok target -> List.find_index (same_column target) r.items
        | Error _ -> None)
      | None, _ -> None)
  in
  match found with
  | Some i -> Output i
  | None ->
    fail Errors.Unknown_column
      "ORDER BY over a grouped or DISTINCT query must name an output column \
       or position"

(* A set operation's ORDER BY names output columns by position or
   label only. *)
let set_order_key cols (o : A.order_item) =
  match o.A.key with
  | A.Ord_position i -> position_key (List.length cols) i
  | A.Ord_expr e -> (
    match label_key cols e with
    | Some i -> Output i
    | None ->
      fail Errors.Unsupported
        "ORDER BY over a set operation must name an output column or \
         position")

(* ------------------------------------------------------------------ *)
(* Statement entry point                                              *)

let resolve env (stmt : A.statement) : t =
  let st = state env in
  let cols, _ = query_columns st ~parent:Scope.root stmt.A.body in
  let order_key =
    match stmt.A.body with
    | A.Spec spec ->
      let r = Specs.find st.st_specs spec in
      if r.grouped || spec.A.distinct then output_order_key st r cols
      else plain_order_key st r cols
    | A.Set _ -> set_order_key cols
  in
  let order_by =
    List.map (fun (o : A.order_item) -> (order_key o, o.A.descending)) stmt.A.order_by
  in
  { statement = stmt; order_by; specs = st.st_specs;
    resolutions = st.st_resolutions; infos = st.st_infos }

let select_items env scope spec =
  expand_select
    { env; st_specs = Specs.create 1; st_resolutions = Exprs.create 1;
      st_infos = Exprs.create 1 }
    scope spec

let statement t = t.statement
let order_by t = t.order_by
