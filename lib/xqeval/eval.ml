module Atomic = Aqua_xml.Atomic
module Item = Aqua_xml.Item
module Node = Aqua_xml.Node
module X = Aqua_xquery.Ast
module Telemetry = Aqua_core.Telemetry
module Budget = Aqua_resilience.Budget
module Failpoint = Aqua_resilience.Failpoint

module Env = Map.Make (String)

type external_fn = Item.sequence list -> Item.sequence

type context = {
  vars : Item.sequence Env.t;
  resolve : string -> external_fn option;
  node_fns : string -> bool;
}

let context ?(resolve = fun _ -> None) ?(node_fns = fun _ -> false) () =
  { vars = Env.empty; resolve; node_fns }
let bind ctx name seq = { ctx with vars = Env.add name seq ctx.vars }

let fail = Error.fail

let lookup_var ctx name =
  match Env.find_opt name ctx.vars with
  | Some seq -> seq
  | None -> fail "undefined variable $%s" name

(* ------------------------------------------------------------------ *)
(* Comparison helpers                                                 *)

let cmp_holds (op : X.cmp) c =
  match op with
  | X.Eq -> c = 0
  | X.Ne -> c <> 0
  | X.Lt -> c < 0
  | X.Le -> c <= 0
  | X.Gt -> c > 0
  | X.Ge -> c >= 0

let general_compare op left right =
  (* existential semantics over atomized operands *)
  let latoms = Item.atomize left and ratoms = Item.atomize right in
  List.exists
    (fun a ->
      List.exists (fun b -> cmp_holds op (Atomic.compare_values a b)) ratoms)
    latoms

let value_compare op left right =
  match (Item.atomize left, Item.atomize right) with
  | [], _ | _, [] -> []
  | [ a ], [ b ] -> Item.of_bool (cmp_holds op (Atomic.compare_values a b))
  | _ -> fail "value comparison requires singleton operands"

let arith_atomic (op : X.arith) a b =
  let untype = function
    | Atomic.Untyped s -> (
      (* untyped operands are cast to xs:double in arithmetic *)
      match Atomic.untyped_number s with
      | Some f -> Atomic.Double f
      | None -> fail "cannot use %S in arithmetic" s)
    | v -> v
  in
  let a = untype a and b = untype b in
  match (a, b, op) with
  | Atomic.Integer x, Atomic.Integer y, X.Add -> Atomic.Integer (x + y)
  | Atomic.Integer x, Atomic.Integer y, X.Sub -> Atomic.Integer (x - y)
  | Atomic.Integer x, Atomic.Integer y, X.Mul -> Atomic.Integer (x * y)
  | Atomic.Integer x, Atomic.Integer y, X.Idiv ->
    if y = 0 then fail "integer division by zero" else Atomic.Integer (x / y)
  | Atomic.Integer x, Atomic.Integer y, X.Mod ->
    if y = 0 then fail "modulus by zero" else Atomic.Integer (x mod y)
  | Atomic.Integer x, Atomic.Integer y, X.Div ->
    if y = 0 then fail "division by zero"
    else Atomic.Decimal (float_of_int x /. float_of_int y)
  | _ ->
    let x = Atomic.cast_double a and y = Atomic.cast_double b in
    let promote v =
      (* decimal arithmetic stays decimal; anything double is double *)
      match (a, b) with
      | (Atomic.Double _, _ | _, Atomic.Double _) -> Atomic.Double v
      | _ -> Atomic.Decimal v
    in
    (match op with
    | X.Add -> promote (x +. y)
    | X.Sub -> promote (x -. y)
    | X.Mul -> promote (x *. y)
    | X.Div ->
      if y = 0.0 then fail "division by zero" else promote (x /. y)
    | X.Idiv ->
      if y = 0.0 then fail "integer division by zero"
      else Atomic.Integer (int_of_float (Float.trunc (x /. y)))
    | X.Mod ->
      if y = 0.0 then fail "modulus by zero" else promote (Float.rem x y))

(* ------------------------------------------------------------------ *)
(* Element construction                                               *)

let normalize_content = Functions.normalize_content

(* ------------------------------------------------------------------ *)
(* Path navigation                                                    *)

let step_matches step_name el_name =
  step_name = "*"
  || el_name = step_name
  || Node.local_name el_name = Node.local_name step_name

let children_matching name (item : Item.t) : Item.sequence =
  match item with
  | Item.Atomic _ -> fail "path step applied to an atomic value"
  | Item.Node (Node.Text _) -> []
  | Item.Node (Node.Element e) ->
    List.filter_map
      (function
        | Node.Element c when step_matches name c.name ->
          Some (Item.Node (Node.Element c))
        | Node.Element _ | Node.Text _ -> None)
      e.children

(* ------------------------------------------------------------------ *)
(* The evaluator                                                      *)

let rec eval ctx (e : X.expr) : Item.sequence =
  (* cooperative budget probe: one fuel step per AST node evaluated,
     with an amortized deadline check — a runaway query cannot evaluate
     anything without passing through here *)
  Budget.step ();
  match e with
  | X.Literal a -> [ Item.Atomic a ]
  | X.Var v -> lookup_var ctx v
  | X.Context_item -> lookup_var ctx "."
  | X.Seq es -> List.concat_map (eval ctx) es
  | X.Flwor f -> eval_flwor ctx f
  | X.Path (base, steps) ->
    List.fold_left
      (fun seq (step : X.step) ->
        let widened = List.concat_map (children_matching step.name) seq in
        List.fold_left (apply_predicate ctx) widened step.predicates)
      (eval ctx base) steps
  | X.Call (name, args) -> (
    let argv = List.map (eval ctx) args in
    match Functions.lookup name with
    | Some impl -> impl argv
    | None -> (
      match ctx.resolve name with
      | Some impl -> impl argv
      | None -> fail "unknown function %s" name))
  | X.Elem { name; content } ->
    let body = List.concat_map (eval_content ctx) content in
    [ Item.Node (Node.Element { name; attrs = []; children = normalize_content body }) ]
  | X.Text s -> Item.of_string s
  | X.If (c, t, e) ->
    if Item.effective_boolean_value (eval ctx c) then eval ctx t
    else eval ctx e
  | X.Binop (op, a, b) -> (
    match op with
    | X.B_and ->
      Item.of_bool
        (Item.effective_boolean_value (eval ctx a)
        && Item.effective_boolean_value (eval ctx b))
    | X.B_or ->
      Item.of_bool
        (Item.effective_boolean_value (eval ctx a)
        || Item.effective_boolean_value (eval ctx b))
    | X.B_general cmp ->
      Item.of_bool (general_compare cmp (eval ctx a) (eval ctx b))
    | X.B_value cmp -> value_compare cmp (eval ctx a) (eval ctx b)
    | X.B_arith op -> (
      match (Item.atomize (eval ctx a), Item.atomize (eval ctx b)) with
      | [], _ | _, [] -> []
      | [ x ], [ y ] -> [ Item.Atomic (arith_atomic op x y) ]
      | _ -> fail "arithmetic requires singleton operands"))
  | X.Neg a -> (
    match Item.atomize (eval ctx a) with
    | [] -> []
    | [ Atomic.Integer i ] -> Item.of_int (-i)
    | [ v ] -> [ Item.Atomic (Atomic.Double (-.Atomic.cast_double v)) ]
    | _ -> fail "unary minus requires a singleton operand")
  | X.Quantified { every; bindings; satisfies } ->
    Item.of_bool (eval_quantified ctx every bindings satisfies)
  | X.Filter (base, pred) -> apply_predicate ctx (eval ctx base) pred

and eval_content ctx (e : X.expr) : Item.sequence =
  (* Inside a constructor, literal [Text] stays text even if it looks
     numeric; everything else evaluates normally. *)
  match e with
  | X.Text s -> if s = "" then [] else [ Item.Node (Node.Text s) ]
  | _ -> eval ctx e

and apply_predicate ctx (items : Item.sequence) (pred : X.expr) =
  let n = List.length items in
  List.filteri
    (fun i item ->
      let ctx = bind ctx "." [ item ] in
      ignore n;
      let result = eval ctx pred in
      match result with
      | [ Item.Atomic a ] when Atomic.is_numeric a ->
        (* positional predicate *)
        Atomic.cast_double a = float_of_int (i + 1)
      | _ -> Item.effective_boolean_value result)
    items

and eval_quantified ctx every bindings satisfies =
  let rec go ctx = function
    | [] -> Item.effective_boolean_value (eval ctx satisfies)
    | (var, src) :: rest ->
      let items = eval ctx src in
      let test item = go (bind ctx var [ item ]) rest in
      if every then List.for_all test items else List.exists test items
  in
  go ctx bindings

(* FLWOR: clauses transform a stream of variable environments.  The
   stream is a lazy [Seq.t], so a chain of for/let/where clauses (and
   hash joins) runs tuple-at-a-time without materializing intermediate
   cross products; only the [group by] and [order by] barriers snapshot
   the stream to a list, mirroring the compile-time slot model. *)
and eval_flwor ctx (f : X.flwor) : Item.sequence =
  (* Telemetry: when enabled, each clause's output stream is wrapped
     with a per-clause row counter (resolved once per FLWOR evaluation,
     not per tuple).  Labels read like plan nodes; positional suffixes
     keep same-kind clauses of one pipeline distinct. *)
  let instrument = Telemetry.enabled () in
  let count_rows i clause envs =
    if not instrument then envs
    else begin
      let label =
        match clause with
        | X.For { var; _ } -> "for $" ^ var
        | X.Let { var; _ } -> "let $" ^ var
        | X.Where _ -> Printf.sprintf "where@%d" i
        | X.Group { partition; _ } -> "group by -> $" ^ partition
        | X.Order_by _ -> Printf.sprintf "order-by@%d" i
        | X.Hash_join { var; _ } -> "hash-join $" ^ var
      in
      let c = Telemetry.clause_counter label in
      Seq.map
        (fun env ->
          Telemetry.incr c;
          Telemetry.incr Telemetry.c_rows_emitted;
          env)
        envs
    end
  in
  (* Resilience: each clause is a failpoint site, and when a budget is
     installed every tuple leaving a clause costs one budget step — so
     a deadline cancels the pipeline between tuples, never mid-clause. *)
  let governed = Budget.active () in
  let govern envs =
    if not governed then envs
    else
      Seq.map
        (fun env ->
          Budget.step ();
          env)
        envs
  in
  let apply envs clause =
    Failpoint.hit "xqeval.clause";
    (match clause with X.Hash_join _ -> Failpoint.hit "xqeval.hashjoin" | _ -> ());
    govern @@
    match clause with
        | X.For { var; source } ->
          Seq.concat_map
            (fun env ->
              List.to_seq (eval { ctx with vars = env } source)
              |> Seq.map (fun item -> Env.add var [ item ] env))
            envs
        | X.Let { var; value } ->
          Seq.map
            (fun env -> Env.add var (eval { ctx with vars = env } value) env)
            envs
        | X.Where cond ->
          Seq.filter
            (fun env ->
              Item.effective_boolean_value (eval { ctx with vars = env } cond))
            envs
        | X.Group { grouped; partition; keys } ->
          List.to_seq (eval_group ctx (List.of_seq envs) grouped partition keys)
        | X.Order_by specs -> List.to_seq (eval_order ctx (List.of_seq envs) specs)
        | X.Hash_join { var; source; build_key; probe_key; value_cmp } ->
          (* Build side hashed once, on first demand (if the incoming
             stream is empty the source is never evaluated, matching
             the nested loop).  Recognition guarantees [source] does
             not depend on pipeline bindings, so the FLWOR's entry
             context is the right evaluation environment. *)
          let table =
            lazy
              (Join_table.build (Array.of_list (eval ctx source))
                 ~key_of:(fun item ->
                   eval { ctx with vars = Env.add var [ item ] ctx.vars }
                     build_key)
                 ~value_cmp)
          in
          Seq.concat_map
            (fun env ->
              let t = Lazy.force table in
              let probe_atoms =
                Item.atomize (eval { ctx with vars = env } probe_key)
              in
              Join_table.probe t ~value_cmp probe_atoms
              |> List.to_seq
              |> Seq.map (fun k -> Env.add var [ t.Join_table.items.(k) ] env))
            envs
  in
  let _, stream =
    List.fold_left
      (fun (i, envs) clause -> (i + 1, count_rows i clause (apply envs clause)))
      (0, Seq.return ctx.vars) f.clauses
  in
  List.of_seq
    (Seq.concat_map
       (fun env -> List.to_seq (eval { ctx with vars = env } f.return))
       stream)

and eval_group ctx envs grouped partition keys =
  (* Partition the tuple stream by the grouping keys.  The output
     stream binds only the key variables and the partition variable,
     which accumulates the grouped variable's items across the group
     (BEA group-by extension semantics, paper section 3.5). *)
  let table : (string, Item.sequence list ref * Item.sequence list) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  List.iter
    (fun env ->
      let ctx = { ctx with vars = env } in
      let key_values = List.map (fun (k, _) -> eval ctx k) keys in
      let key_string = Group_key.composite key_values in
      let grouped_items =
        match Env.find_opt grouped env with
        | Some seq -> seq
        | None -> fail "group clause: undefined variable $%s" grouped
      in
      match Hashtbl.find_opt table key_string with
      | Some (acc, _) -> acc := grouped_items :: !acc
      | None ->
        Hashtbl.add table key_string (ref [ grouped_items ], key_values);
        order := key_string :: !order)
    envs;
  (* Output tuples keep the FLWOR's enclosing environment (so outer
     lets and correlated variables stay visible) and bind only the key
     variables plus the partition on top of it — same-FLWOR bindings
     from before the group clause do not survive. *)
  List.rev_map
    (fun key_string ->
      let acc, key_values = Hashtbl.find table key_string in
      let env =
        List.fold_left2
          (fun env (_, var) value -> Env.add var value env)
          ctx.vars keys key_values
      in
      Env.add partition (List.concat (List.rev !acc)) env)
    !order

and eval_order ctx envs specs =
  let keyed =
    List.map
      (fun env ->
        let keys =
          List.map
            (fun (s : X.order_spec) ->
              (Item.atomize (eval { ctx with vars = env } s.key), s))
            specs
        in
        (keys, env))
      envs
  in
  let compare_key (a, (s : X.order_spec)) (b, _) =
    let c =
      match (a, b) with
      | [], [] -> 0
      | [], _ -> ( match s.empty with X.Empty_least -> -1 | X.Empty_greatest -> 1)
      | _, [] -> ( match s.empty with X.Empty_least -> 1 | X.Empty_greatest -> -1)
      | x :: _, y :: _ -> Atomic.compare_values x y
    in
    if s.descending then -c else c
  in
  let compare_env (ka, _) (kb, _) =
    let rec go = function
      | [] -> 0
      | (a, b) :: rest ->
        let c = compare_key a b in
        if c <> 0 then c else go rest
    in
    go (List.combine ka kb)
  in
  List.map snd (List.stable_sort compare_env keyed)

(* ------------------------------------------------------------------ *)
(* Public entry points                                                *)

(* The scoping check and the optimizer each walk the AST once per
   [eval] entry (never per tuple): the recursive evaluator above is
   reached only through these wrappers from the outside. *)

let check_scoping ctx e =
  let bound =
    Env.fold (fun v _ s -> Optimize.Vars.add v s) ctx.vars Optimize.Vars.empty
  in
  match Optimize.scoping_hazard ~bound e with
  | Some v -> fail "where clause references $%s before it is bound" v
  | None -> ()

let eval ?(optimize = true) ?(scan_cache = true) ctx (e : X.expr) =
  check_scoping ctx e;
  (* The optimized path executes through the compiled engine; the
     interpreter above is the reference semantics ([~optimize:false])
     and the fallback for any expression the compiler rejects.  Only
     compile-time rejection falls back: dynamic errors from the
     compiled code propagate, as they carry the same SQLSTATE mapping
     either way. *)
  if not optimize then eval ctx e
  else
    let bindings = Env.bindings ctx.vars in
    match
      Compile.compile_expr ~scan_cache ~resolve:ctx.resolve
        ~node_fns:ctx.node_fns ~vars:(List.map fst bindings) e
    with
    | compiled -> Compile.run ~bindings compiled
    | exception Compile.Compile_error _ ->
      eval ctx
        (fst (Optimize.expr ~share_scans:scan_cache ~node_fns:ctx.node_fns e))

let eval_query ?optimize ?scan_cache ctx (q : X.query) =
  eval ?optimize ?scan_cache ctx q.body
