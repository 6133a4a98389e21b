module A = Aqua_sql.Ast
module Value = Aqua_relational.Value
module Sql_type = Aqua_relational.Sql_type
module Schema = Aqua_relational.Schema
module Table = Aqua_relational.Table
module Rowset = Aqua_relational.Rowset
module Metadata = Aqua_dsp.Metadata
module Artifact = Aqua_dsp.Artifact
module Scope = Aqua_translator.Scope
module Semantic = Aqua_translator.Semantic
module Outcol = Aqua_translator.Outcol
module Errors = Aqua_translator.Errors
module Atomic = Aqua_xml.Atomic

let fail = Errors.raise_error
let type_error fmt = Format.kasprintf (fun s -> raise (Value.Type_error s)) fmt

(* Tuples: one value array per view, aligned with the view's columns. *)
type frame = (Scope.view * Value.t array) list

(* A subquery runs at most once per statement when it reads nothing of
   the query around it, on first use.  That is decided by watching the
   run: a subquery under evaluation is watched with the frames it was
   called under, and a column read that resolves into one of those
   frames marks it correlated.  A run that read no outer value would
   take the same path and return the same rows under any other outer
   tuple, so the rows of an unmarked run are kept for the statement,
   keyed by the subquery's node. *)
type watch = { w_outer : frame list; mutable w_correlated : bool }

type subqueries = {
  mutable watching : watch list;  (* innermost first *)
  mutable known : (A.query * (Outcol.t list * Value.t array list)) list;
}

type env = {
  app : Artifact.application;
  sem : Semantic.env;
  optimize : bool;
      (* use the hash equi-join fast path for inner joins; off = the
         pure nested-loop oracle *)
  subqueries : subqueries;  (* the statement's, fresh per statement *)
}

let no_subqueries () = { watching = []; known = [] }

let env_of_application ?(optimize = true) app =
  { app; sem = Semantic.env_of_application app; optimize;
    subqueries = no_subqueries () }

(* The catalog entry of a table reference and its backing physical
   table's rows at the statement's pinned version, kept on the table's
   snapshot. *)
let table_data env (n : A.table_name) pos =
  match
    Metadata.lookup env.app ?catalog:n.A.catalog ?schema:n.A.schema n.A.table
  with
  | Error e -> fail ~pos Errors.Unknown_table "%s" (Metadata.error_to_string e)
  | Ok meta -> (
    match Artifact.find_service_by_namespace env.app meta.Metadata.namespace with
    | None -> fail ~pos Errors.Unknown_table "no service for %s" n.A.table
    | Some ds -> (
      match Artifact.find_function ds meta.Metadata.table with
      | Some { Artifact.body = Artifact.Physical t; _ } -> (meta, Table.rows t)
      | Some { Artifact.body = Artifact.Logical _; _ } ->
        fail ~pos Errors.Unsupported
          "the baseline engine only reads physical tables (%s is logical)"
          n.A.table
      | None -> fail ~pos Errors.Unknown_table "%s" n.A.table))

(* ------------------------------------------------------------------ *)
(* Evaluation context: scope chain and the frame stack aligned with
   it; [group] holds the current group's frames when evaluating
   aggregates. *)
type ctx = {
  env : env;
  scope : Scope.t;
  frames : frame list;  (* innermost first, frames.(d) pairs scope depth d *)
  group : frame list option;
}

let col_index (view : Scope.view) (col : Scope.vcol) =
  let rec go i = function
    | [] -> type_error "internal: column %s not in view" col.Scope.label
    | c :: rest -> if c == col then i else go (i + 1) rest
  in
  go 0 view.Scope.cols

(* a read of the frames [depth] levels out marks every watched subquery
   whose outer frames it reaches *)
let note_read subs frames depth =
  let rec drop n l = if n = 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
  let read = drop depth frames in
  let rec reaches l = l == read || match l with [] -> false | _ :: t -> reaches t in
  List.iter
    (fun w -> if (not w.w_correlated) && reaches w.w_outer then w.w_correlated <- true)
    subs.watching

let lookup_value ctx (r : Scope.resolution) : Value.t =
  let subs = ctx.env.subqueries in
  if subs.watching <> [] then note_read subs ctx.frames r.Scope.res_depth;
  match List.nth_opt ctx.frames r.Scope.res_depth with
  | None -> type_error "internal: no frame at depth %d" r.Scope.res_depth
  | Some frame -> (
    match List.find_opt (fun (v, _) -> v == r.Scope.res_view) frame with
    | None -> type_error "internal: view missing from frame"
    | Some (_, values) -> values.(col_index r.Scope.res_view r.Scope.res_col))

(* ------------------------------------------------------------------ *)
(* Scalar semantics                                                   *)

let as_float name v =
  match v with
  | Value.Int i -> float_of_int i
  | Value.Num f -> f
  | _ -> type_error "%s: expected a number, got %s" name (Value.to_display v)

let as_string name v =
  match v with
  | Value.Str s -> s
  | _ -> type_error "%s: expected a string, got %s" name (Value.to_display v)

let as_int name v =
  match v with
  | Value.Int i -> i
  | Value.Num f -> int_of_float f
  | _ -> type_error "%s: expected an integer, got %s" name (Value.to_display v)

let arith op a b =
  match (a, b) with
  | Value.Null, _ | _, Value.Null -> Value.Null
  | _ -> (
    match (op, a, b) with
    | A.Add, Value.Int x, Value.Int y -> Value.Int (x + y)
    | A.Sub, Value.Int x, Value.Int y -> Value.Int (x - y)
    | A.Mul, Value.Int x, Value.Int y -> Value.Int (x * y)
    | A.Div, _, _ ->
      let y = as_float "/" b in
      if y = 0.0 then type_error "division by zero"
      else Value.Num (as_float "/" a /. y)
    | A.Add, _, _ -> Value.Num (as_float "+" a +. as_float "+" b)
    | A.Sub, _, _ -> Value.Num (as_float "-" a -. as_float "-" b)
    | A.Mul, _, _ -> Value.Num (as_float "*" a *. as_float "*" b))

let null_propagating_function name args f =
  if List.exists Value.is_null args then Value.Null
  else
    try f args
    with Failure _ -> type_error "error evaluating %s" name

let substring_sql s start len =
  (* SQL-92 / fn:substring semantics: 1-based, negative start shifts *)
  let n = String.length s in
  let from = max 1 start in
  let until =
    match len with
    | None -> n + 1
    | Some l -> start + l
  in
  let until = min (n + 1) until in
  if until <= from then "" else String.sub s (from - 1) (until - from)

let trim_sql which s =
  let n = String.length s in
  let start =
    if which = `Trailing then 0
    else begin
      let i = ref 0 in
      while !i < n && s.[!i] = ' ' do incr i done;
      !i
    end
  in
  let stop =
    if which = `Leading then n
    else begin
      let i = ref n in
      while !i > start && s.[!i - 1] = ' ' do decr i done;
      !i
    end
  in
  String.sub s start (stop - start)

let position_sql needle hay =
  let n = String.length needle and h = String.length hay in
  if n = 0 then 1
  else begin
    let rec go i =
      if i + n > h then 0
      else if String.sub hay i n = needle then i + 1
      else go (i + 1)
    in
    go 0
  end

let extract_sql field v =
  match (field, v) with
  | "YEAR", Value.Date d -> d.Atomic.year
  | "MONTH", Value.Date d -> d.Atomic.month
  | "DAY", Value.Date d -> d.Atomic.day
  | "YEAR", Value.Timestamp ts -> ts.Atomic.date.Atomic.year
  | "MONTH", Value.Timestamp ts -> ts.Atomic.date.Atomic.month
  | "DAY", Value.Timestamp ts -> ts.Atomic.date.Atomic.day
  | "HOUR", Value.Time t -> t.Atomic.hour
  | "MINUTE", Value.Time t -> t.Atomic.minute
  | "SECOND", Value.Time t -> t.Atomic.second
  | "HOUR", Value.Timestamp ts -> ts.Atomic.time.Atomic.hour
  | "MINUTE", Value.Timestamp ts -> ts.Atomic.time.Atomic.minute
  | "SECOND", Value.Timestamp ts -> ts.Atomic.time.Atomic.second
  | _ ->
    type_error "EXTRACT(%s FROM %s) is not defined" field (Value.to_display v)

(* CAST runs the xs: constructor the translator emits for the target
   type, so the oracle and the driver read text through one lexical
   space (DESIGN.md section 5). *)
let cast_sql ty v =
  if Value.is_null v then Value.Null
  else
    try Value.of_atomic (Atomic.cast (Sql_type.xquery_name ty) (Value.atomic v))
    with Atomic.Cast_error m -> type_error "%s" m

let function_sql name args =
  match (String.uppercase_ascii name, args) with
  | "COALESCE", _ -> (
    match List.find_opt (fun v -> not (Value.is_null v)) args with
    | Some v -> v
    | None -> Value.Null)
  | "NULLIF", [ a; b ] ->
    if Value.is_null a then Value.Null
    else if (not (Value.is_null b)) && snd (Value.compare3 a b) = 0 then
      Value.Null
    else a
  | up, _ ->
    null_propagating_function name args (fun args ->
        match (up, args) with
        | "CONCAT", _ ->
          Value.Str (String.concat "" (List.map (as_string "CONCAT") args))
        | ("UPPER" | "UCASE"), [ s ] ->
          Value.Str (String.uppercase_ascii (as_string "UPPER" s))
        | ("LOWER" | "LCASE"), [ s ] ->
          Value.Str (String.lowercase_ascii (as_string "LOWER" s))
        | ("LENGTH" | "CHAR_LENGTH" | "CHARACTER_LENGTH"), [ s ] ->
          Value.Int (String.length (as_string "LENGTH" s))
        | ("SUBSTRING" | "SUBSTR"), [ s; start ] ->
          Value.Str
            (substring_sql (as_string "SUBSTRING" s)
               (as_int "SUBSTRING" start) None)
        | ("SUBSTRING" | "SUBSTR"), [ s; start; len ] ->
          Value.Str
            (substring_sql (as_string "SUBSTRING" s)
               (as_int "SUBSTRING" start)
               (Some (as_int "SUBSTRING" len)))
        | ("POSITION" | "LOCATE"), [ needle; hay ] ->
          Value.Int
            (position_sql (as_string "POSITION" needle)
               (as_string "POSITION" hay))
        | "TRIM", [ s ] -> Value.Str (trim_sql `Both (as_string "TRIM" s))
        | "LTRIM", [ s ] -> Value.Str (trim_sql `Leading (as_string "LTRIM" s))
        | "RTRIM", [ s ] -> Value.Str (trim_sql `Trailing (as_string "RTRIM" s))
        | "ABS", [ Value.Int i ] -> Value.Int (abs i)
        | "ABS", [ v ] -> Value.Num (Float.abs (as_float "ABS" v))
        | "FLOOR", [ Value.Int i ] -> Value.Int i
        | "FLOOR", [ v ] -> Value.Num (Float.floor (as_float "FLOOR" v))
        | ("CEILING" | "CEIL"), [ Value.Int i ] -> Value.Int i
        | ("CEILING" | "CEIL"), [ v ] ->
          Value.Num (Float.ceil (as_float "CEILING" v))
        | "ROUND", [ Value.Int i ] -> Value.Int i
        | "ROUND", [ v ] ->
          Value.Num (Float.floor (as_float "ROUND" v +. 0.5))
        | "MOD", [ Value.Int x; Value.Int y ] ->
          if y = 0 then type_error "modulus by zero" else Value.Int (x mod y)
        | "MOD", [ x; y ] ->
          Value.Num (Float.rem (as_float "MOD" x) (as_float "MOD" y))
        | up, [ v ]
          when String.length up > 8 && String.sub up 0 8 = "EXTRACT_" ->
          Value.Int (extract_sql (String.sub up 8 (String.length up - 8)) v)
        | _ ->
          fail Errors.Unsupported "unknown function %s/%d" name
            (List.length args))

(* ------------------------------------------------------------------ *)
(* Expression evaluation                                              *)

let literal_value (lit : A.literal) : Value.t =
  match lit with
  | A.L_int i -> Value.Int i
  | A.L_num (f, _) -> Value.Num f
  | A.L_string s -> Value.Str s
  | A.L_bool b -> Value.Bool b
  | A.L_null -> Value.Null
  | A.L_date s -> Value.of_string Sql_type.Date s
  | A.L_time s -> Value.of_string Sql_type.Time s
  | A.L_timestamp s -> Value.of_string Sql_type.Timestamp s

type params = Value.t array  (* 0-indexed by parameter number - 1 *)

let rec eval_expr ?(params : params = [||]) ctx (e : A.expr) : Value.t =
  (* cooperative budget probe (fuel + amortized deadline), mirroring
     the xqeval evaluator: every scan/join/filter loop funnels through
     expression evaluation *)
  Aqua_resilience.Budget.step ();
  let eval = eval_expr ~params in
  match e with
  | A.Lit lit -> literal_value lit
  | A.Column { qualifier; name; pos } -> (
    match Scope.resolve ctx.scope ?qualifier name with
    | Ok r -> lookup_value ctx r
    | Error _ ->
      fail ~pos Errors.Unknown_column "column %s does not exist" name)
  | A.Param n ->
    if n - 1 < Array.length params then params.(n - 1)
    else type_error "parameter %d is not bound" n
  | A.Arith (op, a, b) -> arith op (eval ctx a) (eval ctx b)
  | A.Neg a -> (
    match eval ctx a with
    | Value.Null -> Value.Null
    | Value.Int i -> Value.Int (-i)
    | v -> Value.Num (-.as_float "-" v))
  | A.Concat (a, b) -> (
    match (eval ctx a, eval ctx b) with
    | Value.Null, _ | _, Value.Null -> Value.Null
    | x, y -> Value.Str (Value.to_string x ^ Value.to_string y))
  | A.Func { name; args } -> function_sql name (List.map (eval ctx) args)
  | A.Cast (a, ty) -> cast_sql ty (eval ctx a)
  | A.Case { operand; branches; else_ } -> (
    let matches (w, _) =
      match operand with
      | None -> Value.is_true (eval_pred ~params ctx w)
      | Some op ->
        let ov = eval ctx op and wv = eval ctx w in
        Value.is_true (Value.equal3 ov wv)
    in
    match List.find_opt matches branches with
    | Some (_, t) -> eval ctx t
    | None -> ( match else_ with Some e -> eval ctx e | None -> Value.Null))
  | A.Scalar_subquery q -> (
    let _, rows = subquery ~params ctx q in
    match rows with
    | [] -> Value.Null
    | [ row ] ->
      if Array.length row <> 1 then
        fail Errors.Cardinality "scalar subquery returned %d columns"
          (Array.length row)
      else row.(0)
    | _ -> type_error "scalar subquery returned more than one row")
  | A.Agg { func; distinct; arg } -> eval_aggregate ~params ctx func distinct arg
  | A.Cmp _ | A.And _ | A.Or _ | A.Not _ | A.Is_null _ | A.Between _
  | A.Like _ | A.In_list _ | A.In_query _ | A.Exists _ | A.Quantified _ -> (
    match eval_pred ~params ctx e with
    | Value.True -> Value.Bool true
    | Value.False | Value.Unknown -> Value.Bool false)

and eval_aggregate ?(params : params = [||]) ctx func distinct arg : Value.t =
  let group =
    match ctx.group with
    | Some g -> g
    | None -> fail Errors.Grouping "aggregate outside a grouped query"
  in
  let per_tuple f =
    List.map (fun frame -> f { ctx with frames = frame :: List.tl ctx.frames; group = None }) group
  in
  match (func, arg) with
  | A.A_count_star, _ -> Value.Int (List.length group)
  | _, None -> fail Errors.Unsupported "aggregate without argument"
  | func, Some arg ->
    let values =
      per_tuple (fun c -> eval_expr ~params c arg)
      |> List.filter (fun v -> not (Value.is_null v))
    in
    let values =
      if distinct then begin
        let seen = Hashtbl.create 16 in
        List.filter
          (fun v ->
            let k = Value.group_key v in
            if Hashtbl.mem seen k then false
            else begin
              Hashtbl.add seen k ();
              true
            end)
          values
      end
      else values
    in
    (match func with
    | A.A_count_star -> assert false
    | A.A_count -> Value.Int (List.length values)
    | A.A_sum ->
      if values = [] then Value.Null
      else if List.for_all (function Value.Int _ -> true | _ -> false) values
      then
        Value.Int
          (List.fold_left
             (fun acc v -> acc + as_int "SUM" v)
             0 values)
      else
        Value.Num
          (List.fold_left (fun acc v -> acc +. as_float "SUM" v) 0.0 values)
    | A.A_avg ->
      if values = [] then Value.Null
      else
        Value.Num
          (List.fold_left (fun acc v -> acc +. as_float "AVG" v) 0.0 values
          /. float_of_int (List.length values))
    | A.A_min -> (
      match values with
      | [] -> Value.Null
      | first :: rest ->
        List.fold_left
          (fun best v -> if Value.compare_sql v best < 0 then v else best)
          first rest)
    | A.A_max -> (
      match values with
      | [] -> Value.Null
      | first :: rest ->
        List.fold_left
          (fun best v -> if Value.compare_sql v best > 0 then v else best)
          first rest))

and eval_pred ?(params : params = [||]) ctx (e : A.expr) : Value.bool3 =
  let eval = eval_expr ~params in
  let pred = eval_pred ~params in
  match e with
  | A.And (a, b) -> Value.and3 (pred ctx a) (pred ctx b)
  | A.Or (a, b) -> Value.or3 (pred ctx a) (pred ctx b)
  | A.Not a -> Value.not3 (pred ctx a)
  | A.Cmp (op, a, b) -> (
    match Value.compare3 (eval ctx a) (eval ctx b) with
    | Value.Unknown, _ -> Value.Unknown
    | _, c -> Value.of_bool (cmp_result op c))
  | A.Is_null { arg; negated } ->
    let isnull = Value.is_null (eval ctx arg) in
    Value.of_bool (isnull <> negated)
  | A.Between { arg; low; high; negated } ->
    let v =
      Value.and3
        (pred ctx (A.Cmp (A.Ge, arg, low)))
        (pred ctx (A.Cmp (A.Le, arg, high)))
    in
    if negated then Value.not3 v else v
  | A.Like { arg; pattern; escape; negated } -> (
    let v = eval ctx arg and p = eval ctx pattern in
    let esc =
      match escape with
      | None -> None
      | Some e -> (
        match eval ctx e with
        | Value.Null -> Some Value.Null
        | v -> Some v)
    in
    match (v, p, esc) with
    | Value.Null, _, _ | _, Value.Null, _ | _, _, Some Value.Null ->
      Value.Unknown
    | _, _, _ ->
      let escape =
        match esc with
        | None -> None
        | Some e -> (
          match as_string "ESCAPE" e with
          | s when String.length s = 1 -> Some s.[0]
          | s -> type_error "ESCAPE must be one character, got %S" s)
      in
      let result =
        Aqua_xqeval.Functions.like_match ?escape
          ~pattern:(as_string "LIKE" p) (as_string "LIKE" v)
      in
      let result = if negated then not result else result in
      Value.of_bool result)
  | A.In_list { arg; items; negated } ->
    let v = eval ctx arg in
    let base =
      List.fold_left
        (fun acc item ->
          Value.or3 acc (Value.equal3 v (eval ctx item)))
        Value.False items
    in
    if negated then Value.not3 base else base
  | A.In_query { arg; query; negated } ->
    let v = eval ctx arg in
    let _, rows = subquery ~params ctx query in
    let base =
      List.fold_left
        (fun acc row -> Value.or3 acc (Value.equal3 v row.(0)))
        Value.False rows
    in
    if negated then Value.not3 base else base
  | A.Exists q ->
    let _, rows = subquery ~params ctx q in
    Value.of_bool (rows <> [])
  | A.Quantified { op; quantifier; arg; query } ->
    let v = eval ctx arg in
    let _, rows = subquery ~params ctx query in
    let fold init combine =
      List.fold_left
        (fun acc row ->
          let c =
            match Value.compare3 v row.(0) with
            | Value.Unknown, _ -> Value.Unknown
            | _, c -> Value.of_bool (cmp_result op c)
          in
          combine acc c)
        init rows
    in
    (match quantifier with
    | A.Q_any -> fold Value.False Value.or3
    | A.Q_all -> fold Value.True Value.and3)
  | _ -> (
    (* value expression used as a predicate *)
    match eval ctx e with
    | Value.Null -> Value.Unknown
    | Value.Bool b -> Value.of_bool b
    | v -> type_error "%s is not a boolean" (Value.to_display v))

(* A subquery's rows: kept for the statement once a run of it read no
   outer value (see [subqueries]). *)
and subquery ?(params : params = [||]) ctx (q : A.query) =
  let subs = ctx.env.subqueries in
  match List.assq_opt q subs.known with
  | Some r -> r
  | None ->
    let w = { w_outer = ctx.frames; w_correlated = false } in
    subs.watching <- w :: subs.watching;
    let r =
      match exec_query ~params ctx.env ctx.scope ctx.frames q with
      | r ->
        subs.watching <- List.tl subs.watching;
        r
      | exception e ->
        subs.watching <- List.tl subs.watching;
        raise e
    in
    if not w.w_correlated then subs.known <- (q, r) :: subs.known;
    r

and cmp_result (op : A.cmp_op) c =
  match op with
  | A.Eq -> c = 0
  | A.Neq -> c <> 0
  | A.Lt -> c < 0
  | A.Le -> c <= 0
  | A.Gt -> c > 0
  | A.Ge -> c >= 0

(* ------------------------------------------------------------------ *)
(* FROM evaluation                                                    *)

(* Returns the flattened view of a table-ref together with its rows
   (laid out in the view's column order). *)
and rows_of_table_ref ?(params : params = [||]) env outer_scope outer_frames
    (tr : A.table_ref) : Scope.view * Value.t array list =
  match tr with
  | A.Primary (A.Table_ref_name { name; alias; pos }) ->
    let module T = Aqua_core.Telemetry in
    T.with_span "engine.scan" @@ fun () ->
    Aqua_resilience.Failpoint.hit "engine.scan";
    let meta, rows = table_data env name pos in
    if T.enabled () then T.add T.c_engine_rows_scanned (List.length rows);
    Aqua_resilience.Budget.tick_items (List.length rows);
    (Semantic.table_view meta ~alias, rows)
  | A.Primary (A.Derived { query; alias }) ->
    let cols, rows = exec_query ~params env Scope.root [] query in
    (Semantic.derived_view cols ~alias, rows)
  | A.Join { kind; left; right; cond } ->
    let lview, lrows =
      rows_of_table_ref ~params env outer_scope outer_frames left
    in
    let rview, rrows =
      rows_of_table_ref ~params env outer_scope outer_frames right
    in
    let lwidth = List.length lview.Scope.cols in
    let rwidth = List.length rview.Scope.cols in
    let lcols =
      Scope.qualified_cols ~nullable:(kind = A.J_right || kind = A.J_full) lview
    in
    let rcols =
      Scope.qualified_cols ~nullable:(kind = A.J_left || kind = A.J_full) rview
    in
    let view = Scope.view (lcols @ rcols) in
    let join_scope = Scope.push outer_scope [ view ] in
    let on_holds lrow rrow =
      match cond with
      | None -> true
      | Some c ->
        let combined = Array.append lrow rrow in
        let ctx =
          {
            env;
            scope = join_scope;
            frames = [ (view, combined) ] :: outer_frames;
            group = None;
          }
        in
        Value.is_true (eval_pred ~params ctx c)
    in
    let nulls n = Array.make n Value.Null in
    (* Hash equi-join fast path (inner joins only): find a conjunct
       [lkey = rkey] of the ON condition whose column references
       resolve entirely to one input per side, build a hash table over
       the right input keyed by [Value.group_key], and probe with the
       left — O(n+m) instead of the O(n*m) scan.  Output stays in
       nested-loop order (left-major, right rows in input order), and
       matches are re-verified with [Value.equal3] so the join never
       trusts [group_key] beyond what three-valued equality grants
       (NULL keys never match: [x = NULL] is Unknown).  Classification
       is conservative: any subquery, aggregate or unresolvable column
       reference falls back to the nested loop. *)
    let join_ctx combined =
      {
        env;
        scope = join_scope;
        frames = [ (view, combined) ] :: outer_frames;
        group = None;
      }
    in
    let classify_side e =
      (* (uses_left_cols, uses_right_cols), or [None] to bail out *)
      let exception Bail in
      let l = ref false and r = ref false in
      let rec go (e : A.expr) =
        match e with
        | A.Lit _ | A.Param _ -> ()
        | A.Column { qualifier; name; _ } -> (
          match Scope.resolve join_scope ?qualifier name with
          | Error _ -> raise Bail
          | Ok res ->
            if res.Scope.res_depth > 0 then ()  (* outer correlation *)
            else if List.memq res.Scope.res_col lcols then l := true
            else r := true)
        | A.Arith (_, a, b) | A.Concat (a, b) | A.Cmp (_, a, b)
        | A.And (a, b) | A.Or (a, b) ->
          go a;
          go b
        | A.Neg a | A.Not a | A.Cast (a, _) -> go a
        | A.Is_null { arg; _ } -> go arg
        | A.Between { arg; low; high; _ } ->
          go arg;
          go low;
          go high
        | A.Like { arg; pattern; escape; _ } ->
          go arg;
          go pattern;
          Option.iter go escape
        | A.In_list { arg; items; _ } ->
          go arg;
          List.iter go items
        | A.Func { args; _ } -> List.iter go args
        | A.Case { operand; branches; else_ } ->
          Option.iter go operand;
          List.iter
            (fun (w, t) ->
              go w;
              go t)
            branches;
          Option.iter go else_
        | A.In_query _ | A.Exists _ | A.Scalar_subquery _ | A.Quantified _
        | A.Agg _ ->
          raise Bail
      in
      match go e with
      | () -> Some (!l, !r)
      | exception Bail -> None
    in
    let hash_inner_join c =
      let rec conjuncts = function
        | A.And (a, b) -> conjuncts a @ conjuncts b
        | e -> [ e ]
      in
      let rec pick seen = function
        | [] -> None
        | (A.Cmp (A.Eq, e1, e2) as cj) :: rest -> (
          let pair =
            match (classify_side e1, classify_side e2) with
            | Some (l1, r1), Some (l2, r2) ->
              if l1 && (not r1) && r2 && not l2 then Some (e1, e2)
              else if l2 && (not r2) && r1 && not l1 then Some (e2, e1)
              else None
            | _ -> None
          in
          match pair with
          | Some (lkey, rkey) -> Some (lkey, rkey, List.rev_append seen rest)
          | None -> pick (cj :: seen) rest)
        | cj :: rest -> pick (cj :: seen) rest
      in
      match pick [] (conjuncts c) with
      | None -> None
      | Some (lkey, rkey, residual) ->
        let residual_holds =
          match residual with
          | [] -> fun _ _ -> true
          | c0 :: more ->
            let rc = List.fold_left (fun acc e -> A.And (acc, e)) c0 more in
            fun lrow rrow ->
              Value.is_true
                (eval_pred ~params (join_ctx (Array.append lrow rrow)) rc)
        in
        let tbl = Hashtbl.create (max 16 (List.length rrows)) in
        List.iter
          (fun rrow ->
            match
              eval_expr ~params (join_ctx (Array.append (nulls lwidth) rrow))
                rkey
            with
            | Value.Null -> ()
            | rval -> Hashtbl.add tbl (Value.group_key rval) (rrow, rval))
          rrows;
        Some
          (List.concat_map
             (fun lrow ->
               match
                 eval_expr ~params (join_ctx (Array.append lrow (nulls rwidth)))
                   lkey
               with
               | Value.Null -> []
               | lval ->
                 List.filter_map
                   (fun (rrow, rval) ->
                     if
                       Value.is_true (Value.equal3 lval rval)
                       && residual_holds lrow rrow
                     then Some (Array.append lrow rrow)
                     else None)
                   (* find_all is most-recent-first; rev restores right
                      input order *)
                   (List.rev (Hashtbl.find_all tbl (Value.group_key lval))))
             lrows)
    in
    let rows =
      match kind with
      | A.J_inner | A.J_cross -> (
        let hashed =
          match (kind, cond) with
          | A.J_inner, Some c when env.optimize -> hash_inner_join c
          | _ -> None
        in
        match hashed with
        | Some rows -> rows
        | None ->
          List.concat_map
            (fun lrow ->
              List.filter_map
                (fun rrow ->
                  if on_holds lrow rrow then Some (Array.append lrow rrow)
                  else None)
                rrows)
            lrows)
      | A.J_left ->
        List.concat_map
          (fun lrow ->
            let matches =
              List.filter_map
                (fun rrow ->
                  if on_holds lrow rrow then Some (Array.append lrow rrow)
                  else None)
                rrows
            in
            if matches = [] then [ Array.append lrow (nulls rwidth) ]
            else matches)
          lrows
      | A.J_right ->
        List.concat_map
          (fun rrow ->
            let matches =
              List.filter_map
                (fun lrow ->
                  if on_holds lrow rrow then Some (Array.append lrow rrow)
                  else None)
                lrows
            in
            if matches = [] then [ Array.append (nulls lwidth) rrow ]
            else matches)
          rrows
      | A.J_full ->
        let matched_right = Hashtbl.create 16 in
        let left_part =
          List.concat_map
            (fun lrow ->
              let matches =
                List.concat
                  (List.mapi
                     (fun i rrow ->
                       if on_holds lrow rrow then begin
                         Hashtbl.replace matched_right i ();
                         [ Array.append lrow rrow ]
                       end
                       else [])
                     rrows)
              in
              if matches = [] then [ Array.append lrow (nulls rwidth) ]
              else matches)
            lrows
        in
        let right_part =
          List.concat
            (List.mapi
               (fun i rrow ->
                 if Hashtbl.mem matched_right i then []
                 else [ Array.append (nulls lwidth) rrow ])
               rrows)
        in
        left_part @ right_part
    in
    let module T = Aqua_core.Telemetry in
    if T.enabled () then T.add T.c_engine_rows_joined (List.length rows);
    Aqua_resilience.Budget.tick_items (List.length rows);
    (view, rows)

(* ------------------------------------------------------------------ *)
(* Query evaluation                                                   *)

and exec_spec ?(params : params = [||]) env outer_scope outer_frames
    (spec : A.query_spec) ~order_hook : Outcol.t list * Value.t array list =
  (* FROM: one view + row list per item; tuples = cartesian product *)
  let sources =
    List.map (rows_of_table_ref ~params env outer_scope outer_frames) spec.A.from
  in
  let views = List.map fst sources in
  let scope = Scope.push outer_scope views in
  let tuples =
    List.fold_left
      (fun acc (view, rows) ->
        List.concat_map
          (fun frame -> List.map (fun row -> frame @ [ (view, row) ]) rows)
          acc)
      [ [] ] sources
  in
  let mk_ctx ?group frame =
    { env; scope; frames = frame :: outer_frames; group }
  in
  (* WHERE *)
  let tuples =
    match spec.A.where with
    | None -> tuples
    | Some w ->
      let keep frame = Value.is_true (eval_pred ~params (mk_ctx frame) w) in
      List.filter keep tuples
  in
  let items = Semantic.select_items env.sem scope spec in
  let cols = List.map fst items in
  let project_tuple frame =
    Array.of_list
      (List.map (fun (_, expr) -> eval_expr ~params (mk_ctx frame) expr) items)
  in
  let rows =
    if Semantic.is_grouped spec then begin
      (* group tuples by the GROUP BY column values *)
      let groups =
        if spec.A.group_by = [] then
          (* implicit single group, present even over empty input *)
          [ tuples ]
        else begin
          let table = Hashtbl.create 16 in
          let order = ref [] in
          List.iter
            (fun frame ->
              let key =
                String.concat "\x01"
                  (List.map
                     (fun g ->
                       Value.group_key (eval_expr ~params (mk_ctx frame) g))
                     spec.A.group_by)
              in
              match Hashtbl.find_opt table key with
              | Some acc -> acc := frame :: !acc
              | None ->
                Hashtbl.add table key (ref [ frame ]);
                order := key :: !order)
            tuples;
          List.rev_map (fun k -> List.rev !(Hashtbl.find table k)) !order
          |> List.rev
        end
      in
      let groups =
        match spec.A.having with
        | None -> groups
        | Some h ->
          List.filter
            (fun group ->
              let frame = match group with f :: _ -> f | [] -> [] in
              Value.is_true
                (eval_pred ~params (mk_ctx ~group frame) h))
            groups
      in
      List.map
        (fun group ->
          let frame = match group with f :: _ -> f | [] -> [] in
          let ctx = mk_ctx ~group frame in
          Array.of_list
            (List.map (fun (_, expr) -> eval_expr ~params ctx expr) items))
        groups
    end
    else begin
      match order_hook with
      | None -> List.map project_tuple tuples
      | Some order ->
        (* sort by expression keys evaluated in tuple scope, then project;
           an output column's key is its select expression *)
        let order =
          List.map
            (fun (key, descending) ->
              match key with
              | Semantic.Output i -> (snd (List.nth items i), descending)
              | Semantic.Key e -> (e, descending))
            order
        in
        let keyed =
          List.map
            (fun frame ->
              let keys =
                List.map
                  (fun (key_expr, descending) ->
                    (eval_expr ~params (mk_ctx frame) key_expr, descending))
                  order
              in
              (keys, project_tuple frame))
            tuples
        in
        let compare_rows (ka, _) (kb, _) =
          let rec go = function
            | [] -> 0
            | ((va, desc), (vb, _)) :: rest ->
              let c = Value.compare_sql va vb in
              let c = if desc then -c else c in
              if c <> 0 then c else go rest
          in
          go (List.combine ka kb)
        in
        List.map snd (List.stable_sort compare_rows keyed)
    end
  in
  let rows =
    if spec.A.distinct then begin
      let seen = Hashtbl.create 16 in
      List.filter
        (fun row ->
          let k =
            String.concat "\x01"
              (Array.to_list (Array.map Value.group_key row))
          in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        rows
    end
    else rows
  in
  (cols, rows)

and exec_query ?(params : params = [||]) env outer_scope outer_frames
    (q : A.query) : Outcol.t list * Value.t array list =
  match q with
  | A.Spec spec ->
    exec_spec ~params env outer_scope outer_frames spec ~order_hook:None
  | A.Set { op; all; left; right } ->
    let lcols, lrows = exec_query ~params env outer_scope outer_frames left in
    let rcols, rrows = exec_query ~params env outer_scope outer_frames right in
    let key row =
      String.concat "\x01" (Array.to_list (Array.map Value.group_key row))
    in
    let count_table rows =
      let t = Hashtbl.create 16 in
      List.iter
        (fun row ->
          let k = key row in
          match Hashtbl.find_opt t k with
          | Some (n, r) -> Hashtbl.replace t k (n + 1, r)
          | None -> Hashtbl.add t k (1, row))
        rows;
      t
    in
    let dedup rows =
      let seen = Hashtbl.create 16 in
      List.filter
        (fun row ->
          let k = key row in
          if Hashtbl.mem seen k then false
          else begin
            Hashtbl.add seen k ();
            true
          end)
        rows
    in
    let rows =
      match (op, all) with
      | A.S_union, true -> lrows @ rrows
      | A.S_union, false -> dedup (lrows @ rrows)
      | A.S_intersect, false ->
        let rt = count_table rrows in
        dedup (List.filter (fun row -> Hashtbl.mem rt (key row)) lrows)
      | A.S_intersect, true ->
        let rt = count_table rrows in
        List.filter
          (fun row ->
            let k = key row in
            match Hashtbl.find_opt rt k with
            | Some (n, r) when n > 0 ->
              Hashtbl.replace rt k (n - 1, r);
              true
            | _ -> false)
          lrows
      | A.S_except, false ->
        let rt = count_table rrows in
        dedup (List.filter (fun row -> not (Hashtbl.mem rt (key row))) lrows)
      | A.S_except, true ->
        let rt = count_table rrows in
        List.filter
          (fun row ->
            let k = key row in
            match Hashtbl.find_opt rt k with
            | Some (n, r) when n > 0 ->
              Hashtbl.replace rt k (n - 1, r);
              false
            | _ -> true)
          lrows
    in
    (Semantic.set_columns lcols rcols, rows)

(* ------------------------------------------------------------------ *)
(* Statement: top-level ORDER BY                                      *)

(* A statement reads one state of the data, as through the DSP server. *)
let execute_with_params env (stmt : A.statement) (params : params) : Rowset.t =
  let env = { env with subqueries = no_subqueries () } in
  Artifact.read_view env.app @@ fun () ->
  (* stage-two validation gives coherent errors before evaluation, and
     the ORDER BY targets *)
  let order = Semantic.order_by (Semantic.resolve env.sem stmt) in
  let cols, rows =
    match stmt.A.body with
    | A.Spec spec
      when (not (Semantic.is_grouped spec))
           && (not spec.A.distinct)
           && order <> [] ->
      (* expression-capable ORDER BY path: keys evaluated per tuple *)
      exec_spec ~params env Scope.root [] spec ~order_hook:(Some order)
    | _ ->
      let cols, rows = exec_query ~params env Scope.root [] stmt.A.body in
      let rows =
        if order = [] then rows
        else begin
          let keys =
            List.map
              (function
                | Semantic.Output i, desc -> (i, desc)
                | Semantic.Key _, _ ->
                  invalid_arg "Engine: an expression key over output columns")
              order
          in
          let compare_rows a b =
            let rec go = function
              | [] -> 0
              | (i, desc) :: rest ->
                let c = Value.compare_sql a.(i) b.(i) in
                let c = if desc then -c else c in
                if c <> 0 then c else go rest
            in
            go keys
          in
          List.stable_sort compare_rows rows
        end
      in
      (cols, rows)
  in
  Rowset.make (Outcol.to_schema cols) rows

let execute env stmt = execute_with_params env stmt [||]

let execute_sql env sql =
  let stmt =
    try Aqua_sql.Parser.parse sql
    with Aqua_sql.Parser.Parse_error { pos; message } ->
      raise
        (Errors.Error { Errors.kind = Errors.Syntax; message; pos = Some pos })
  in
  execute env stmt
