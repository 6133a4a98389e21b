(* Logical optimizer over the XQuery AST, run before evaluation or
   compilation.  Three rewrites, scoped to FLWOR blocks and applied
   bottom-up in one traversal — constructor fusion first at each FLWOR,
   so the clause lists it splices still get pushdown and join
   recognition:

   1. Constructor fusion (see its section below): the translator's
      [let $t := <RECORDSET>{B}</RECORDSET> for $v in $t/RECORD] is
      unnested into B's clauses, reads of [$v/C] go through the record
      constructor, and group kernels read their columns through it.

   2. Predicate pushdown: conjunctive [where] clauses are split into
      their conjuncts and each conjunct is hoisted to the earliest
      clause position at which all of its free variables are bound.
      [group] clauses are barriers (filtering before grouping changes
      the groups); [order by] is not (filtering commutes with a stable
      sort).

   3. Hash equi-join recognition: a [for $b in SRC] whose source does
      not depend on earlier same-FLWOR bindings, followed by a
      [where P eq/= B] where one side depends exactly on [$b] and the
      other only on earlier bindings, becomes a [Hash_join] physical
      operator.  The build side hashes SRC once by [Atomic.hash_key];
      each incoming tuple probes instead of rescanning, turning the
      O(n*m) nested loop into O(n+m).

      A *leading* [for] (nothing of its FLWOR bound before it) is a
      correlated probe when P reads a variable of an enclosing binder
      and none of its own FLWOR's: the FLWOR runs once per outer tuple
      with a single incoming tuple, so the rewrite pays only because
      the compiled engines reuse the build table across invocations —
      it fires only when [reusable_build] holds, the same test the
      compiler applies before reusing a table.

   A repeated data-service call is left in place: every call of a
   table in one statement returns the rows of the version the
   statement's read view pinned, served from the DSP scan cache.

   A scoping check ([scoping_hazard]) is shared by both evaluators: it
   rejects [where] clauses that reference a variable bound only by a
   later clause of the same FLWOR — the naive clause fold would
   otherwise silently filter everything out.

   The pass is purely structural: it never evaluates expressions, so it
   is safe to run on queries with unresolved external functions. *)

module X = Aqua_xquery.Ast
module Vars = Set.Make (String)

type report = {
  pushed_predicates : int;  (** conjuncts moved earlier in a pipeline *)
  hash_joins : int;         (** [For]+[Where] pairs fused into [Hash_join] *)
  correlated_probes : int;  (** of which correlated probes (leading [for]) *)
  shared_scans : int;
      (** always 0: kept only because perfbench/perfbench.ml reads it;
          the benchmark's next change (ROADMAP item 2) deletes it *)
  fusions : int;            (** constructor fusions (unnest, navigate, inline) *)
  hoisted : int;            (** closed subexpressions hoisted *)
  semi_joins : int;         (** of their uses, semi-join probes *)
  anti_joins : int;         (** anti-join probes *)
  setop_probes : int;       (** set operations' match probes *)
  notes : string list;      (** human-readable one-liners, newest first *)
}

type acc = {
  externals : Vars.t Lazy.t;  (** free variables of the whole plan *)
  node_fns : string -> bool;  (** external functions returning only nodes *)
  mutable pushed : int;
  mutable joins : int;
  mutable correlated : int;
  mutable fused : int;
  mutable loops : int;
      (* nested FLWORs, quantifiers and predicates the rewrite left in
         the plan, over-counted: with none, nothing can be hoisted *)
  mutable hoists : int;
  mutable semis : int;
  mutable antis : int;
  mutable setops : int;
  mutable notes : string list;
}

(* ------------------------------------------------------------------ *)
(* Precise free variables                                             *)

(* [ast.ml]'s [free_vars] is deliberately conservative (it includes
   bound variables); the optimizer needs the real thing, including the
   context item "." treated as a variable and the scoping quirk of the
   BEA group clause (pre-group bindings do not survive grouping). *)

let rec fv bound acc (e : X.expr) : Vars.t =
  match e with
  | X.Literal _ | X.Text _ -> acc
  | X.Var v -> if Vars.mem v bound then acc else Vars.add v acc
  | X.Context_item -> if Vars.mem "." bound then acc else Vars.add "." acc
  | X.Seq es -> List.fold_left (fv bound) acc es
  | X.Flwor f -> fv_flwor bound acc f
  | X.Path (base, steps) ->
    let acc = fv bound acc base in
    let bound_dot = Vars.add "." bound in
    List.fold_left
      (fun acc (s : X.step) -> List.fold_left (fv bound_dot) acc s.predicates)
      acc steps
  | X.Call (_, args) -> List.fold_left (fv bound) acc args
  | X.Elem { content; _ } -> List.fold_left (fv bound) acc content
  | X.If (c, t, e) -> fv bound (fv bound (fv bound acc c) t) e
  | X.Binop (_, a, b) -> fv bound (fv bound acc a) b
  | X.Neg e -> fv bound acc e
  | X.Quantified { bindings; satisfies; _ } ->
    let bound, acc =
      List.fold_left
        (fun (bound, acc) (v, src) -> (Vars.add v bound, fv bound acc src))
        (bound, acc) bindings
    in
    fv bound acc satisfies
  | X.Filter (base, pred) ->
    fv (Vars.add "." bound) (fv bound acc base) pred

and fv_flwor bound acc (f : X.flwor) : Vars.t =
  let entry_bound = bound in
  let bound, acc =
    List.fold_left
      (fun (bound, acc) clause ->
        match clause with
        | X.For { var; source } -> (Vars.add var bound, fv bound acc source)
        | X.Let { var; value } -> (Vars.add var bound, fv bound acc value)
        | X.Where cond -> (bound, fv bound acc cond)
        | X.Group { grouped; partition; keys } ->
          (* the clause *reads* the grouped variable (its values feed
             the partition) — counting that use is what lets the
             required-columns analysis keep the grouped column alive
             up to the barrier *)
          let acc =
            if Vars.mem grouped bound then acc else Vars.add grouped acc
          in
          let acc =
            List.fold_left (fun acc (k, _) -> fv bound acc k) acc keys
          in
          (* after grouping only the FLWOR's entry environment plus the
             key variables and the partition remain bound *)
          let bound' =
            List.fold_left
              (fun b (_, kv) -> Vars.add kv b)
              (Vars.add partition entry_bound)
              keys
          in
          (bound', acc)
        | X.Order_by specs ->
          (bound, List.fold_left (fun acc s -> fv bound acc s.X.key) acc specs)
        | X.Hash_join { var; source; build_key; probe_key; _ } ->
          let acc = fv bound acc source in
          let acc = fv bound acc probe_key in
          let acc = fv (Vars.add var bound) acc build_key in
          (Vars.add var bound, acc))
      (bound, acc) f.clauses
  in
  fv bound acc f.return

let free_vars e = fv Vars.empty Vars.empty e

(* Variables a clause binds for the clauses after it. *)
let clause_binds = function
  | X.For { var; _ } | X.Let { var; _ } | X.Hash_join { var; _ } -> [ var ]
  | X.Where _ | X.Order_by _ -> []
  | X.Group { partition; keys; _ } ->
    partition :: List.map snd keys

let free_vars_all es =
  List.fold_left (fun s e -> Vars.union s (free_vars e)) Vars.empty es

(* Variables a clause reads from the tuple it receives (a group reads
   its grouped variable whole). *)
let clause_reads = function
  | X.For { source = e; _ } | X.Let { value = e; _ } | X.Where e ->
    free_vars e
  | X.Order_by specs ->
    free_vars_all (List.map (fun (s : X.order_spec) -> s.X.key) specs)
  | X.Group { grouped; keys; _ } ->
    Vars.add grouped (free_vars_all (List.map fst keys))
  | X.Hash_join { var; source; build_key; probe_key; _ } ->
    Vars.union
      (free_vars_all [ source; probe_key ])
      (Vars.remove var (free_vars build_key))

(* [List.assoc_opt] on string keys, without polymorphic compare: the
   analyses probe at every variable read of the plan *)
let rec assoc_str k = function
  | [] -> None
  | (k', v) :: rest -> if String.equal k k' then Some v else assoc_str k rest

(* clauses that see the whole tuple stream at once *)
let reorders = function X.Group _ | X.Order_by _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Constructor fusion                                                 *)

(* Stage three emits every derived table, GROUP BY and ORDER BY over
   finished records as

     let $t := <RECORDSET>{B}</RECORDSET> for $v in $t/RECORD ...

   and the section 4 wrapper adds one more layer of the same shape, so
   every intermediate row is built as element nodes and then navigated
   straight back into atomics.  Three exact rewrites undo that:

   F1 (unnest) splices B's clauses in place of the let/for pair and
   binds [let $v := <RECORD>...</RECORD>], the constructor B returns.
   A sequence of such FLWORs (outer-join halves, UNION ALL) is
   distributed over the continuation when that has no barrier.

   F2 (navigate) reads [$v/C] through that constructor: the step
   becomes the matching field ([<C>{E}</C>] or the translator's guarded
   [if (fn:empty(G)) then () else <C>{E}</C>]), [fn:data] of it the
   content atomization [aqua:content-data(E)] ({!Functions.content_data}),
   and fn:empty/fn:exists/fn:count of a guarded field its guard.  A let
   nobody reads any more is dropped when its value cannot raise, and a
   [return $w] of a let read nowhere else is inlined.  Whole-record
   reads ([$v], [$v/*], [fn:string($v)]) keep the constructor.

   F3 (kernels) is [group_kernels ~record]: when the grouped variable
   is such a let, each [$p/C] kernel takes F2's per-tuple argument, so
   the columnar engine folds column values and never builds the record.

   Each rewrite is exact: a RECORDSET's RECORD children are exactly the
   records B returned, in order, and the string-value of a constructed
   element is what content normalization stores. *)

(* [Eval]'s child-step test: exact name, same local name, or "*" *)
let step_matches step name =
  step = "*"
  || step = name
  || Aqua_xml.Node.local_name step = Aqua_xml.Node.local_name name

type field = {
  f_name : string;
  f_guard : X.expr option;  (** [G] of [if (fn:empty(G)) then () else <C/>] *)
  f_content : X.expr list;
}

(* The fields of a direct constructor whose content is nothing but
   (optionally guarded) element constructors. *)
let record_fields (e : X.expr) : field list option =
  match e with
  | X.Elem { content; _ } ->
    let rec go acc = function
      | [] -> Some (List.rev acc)
      | X.Seq es :: rest -> go acc (es @ rest)
      | X.Elem { name; content } :: rest ->
        go ({ f_name = name; f_guard = None; f_content = content } :: acc) rest
      | X.If (X.Call ("fn:empty", [ g ]), X.Seq [], X.Elem { name; content })
        :: rest ->
        go ({ f_name = name; f_guard = Some g; f_content = content } :: acc)
          rest
      | _ -> None
    in
    go [] content
  | _ -> None

let seq_of = function [ e ] -> e | es -> X.Seq es
let guarded g e = X.If (X.Call ("fn:empty", [ g ]), X.Seq [], e)

let field_part f =
  let el = X.Elem { name = f.f_name; content = f.f_content } in
  match f.f_guard with None -> el | Some g -> guarded g el

(* [fn:data] of a field without building it; literal text content is a
   text node, not an atomic, so it stays unfused *)
let field_data f =
  if List.exists (function X.Text _ -> true | _ -> false) f.f_content then
    None
  else
    let d =
      match f.f_content with
      | [ (X.Call (n, [ _ ]) as inner) ] when n = Functions.content_data_name ->
        inner
      | content -> X.Call (Functions.content_data_name, [ seq_of content ])
    in
    Some (match f.f_guard with None -> d | Some g -> guarded g d)

let matching fields step =
  List.filter (fun f -> step_matches step f.f_name) fields

(* [fn:data($v/step)] through the fields *)
let nav_data fields step =
  let parts = List.map field_data (matching fields step) in
  if List.mem None parts then None
  else Some (seq_of (List.filter_map Fun.id parts))

(* [fn:empty] / [fn:exists] / [fn:count] of [$v/step] *)
let nav_test fn fields step =
  let empty g = X.Call ("fn:empty", [ g ]) in
  match (fn, matching fields step) with
  | "fn:empty", [] -> Some (X.Call ("fn:true", []))
  | "fn:exists", [] -> Some (X.Call ("fn:false", []))
  | "fn:count", [] -> Some (X.int 0)
  | "fn:empty", [ { f_guard = None; _ } ] -> Some (X.Call ("fn:false", []))
  | "fn:exists", [ { f_guard = None; _ } ] -> Some (X.Call ("fn:true", []))
  | "fn:count", [ { f_guard = None; _ } ] -> Some (X.int 1)
  | "fn:empty", [ { f_guard = Some g; _ } ] -> Some (empty g)
  | "fn:exists", [ { f_guard = Some g; _ } ] -> Some (X.Call ("fn:exists", [ g ]))
  | "fn:count", [ { f_guard = Some g; _ } ] ->
    Some (X.If (empty g, X.int 0, X.int 1))
  | _ -> None

(* Expressions cheap enough to re-evaluate at every read: variable and
   column accesses, atomization and emptiness tests. *)
let rec cheap (e : X.expr) =
  match e with
  | X.Literal _ | X.Var _ | X.Text _ | X.Context_item -> true
  | X.Seq es -> List.for_all cheap es
  | X.Elem { content; _ } -> List.for_all cheap content
  | X.If (c, t, e) -> cheap c && cheap t && cheap e
  | X.Path (base, steps) ->
    cheap base && List.for_all (fun (s : X.step) -> s.X.predicates = []) steps
  | X.Call
      ( ("fn:data" | "fn:empty" | "fn:exists" | "fn:count" | "fn:true"
        | "fn:false"),
        args ) ->
    List.for_all cheap args
  | X.Call (n, [ a ]) when n = Functions.content_data_name -> cheap a
  | _ -> false

(* [cannot_fail ~nodes e]: evaluating [e] can raise no dynamic error,
   given that every variable in [nodes] holds only nodes (a child step
   over an atomic is the one error a column access can raise). *)
let rec cannot_fail ~nodes (e : X.expr) =
  match e with
  | X.Literal _ | X.Var _ | X.Text _ -> true
  | X.Seq es -> List.for_all (cannot_fail ~nodes) es
  | X.Elem { content; _ } -> List.for_all (cannot_fail ~nodes) content
  | X.If ((X.Call (("fn:empty" | "fn:exists"), [ _ ]) as c), t, e) ->
    cannot_fail ~nodes c && cannot_fail ~nodes t && cannot_fail ~nodes e
  | X.Call (("fn:data" | "fn:empty" | "fn:exists" | "fn:count"), [ a ]) ->
    cannot_fail ~nodes a
  | X.Call (("fn:true" | "fn:false"), []) -> true
  | X.Call (n, [ a ]) when n = Functions.content_data_name ->
    cannot_fail ~nodes a
  | X.Path _ -> node_valued ~nodes e
  | _ -> false

and node_valued ~nodes (e : X.expr) =
  match e with
  | X.Var v -> Vars.mem v nodes
  | X.Elem _ -> cannot_fail ~nodes e
  | X.Seq es -> List.for_all (node_valued ~nodes) es
  | X.Path (base, steps) ->
    List.for_all (fun (s : X.step) -> s.X.predicates = []) steps
    && node_valued ~nodes base
  | X.If ((X.Call (("fn:empty" | "fn:exists"), [ _ ]) as c), t, e) ->
    cannot_fail ~nodes c && node_valued ~nodes t && node_valued ~nodes e
  | _ -> false

(* A for/let source that yields only nodes: a call of a function
   [node_fns] vouches for (a physical data-service scan returns row
   elements; a logical service evaluates a body that may return
   atomics), or a node-valued expression. *)
let node_source ~node_fns ~nodes (e : X.expr) =
  match e with
  | X.Call (name, _) -> node_fns name
  | _ -> node_valued ~nodes e

(* The node-valued variables after [clause], given those before it and
   those of the FLWOR's entry (restored by a group clause). *)
let nodes_after ~node_fns ~entry nodes = function
  | X.For { var; source } | X.Hash_join { var; source; _ } ->
    if node_source ~node_fns ~nodes source then Vars.add var nodes
    else Vars.remove var nodes
  | X.Let { var; value } ->
    if node_valued ~nodes value then Vars.add var nodes
    else Vars.remove var nodes
  | X.Group { partition; keys; _ } ->
    List.fold_left
      (fun s (_, k) -> Vars.remove k s)
      (Vars.remove partition entry) keys
  | X.Where _ | X.Order_by _ -> nodes

(* [map_reads ~var ~avoid ~visit e] rebuilds [e], offering each read of
   [$var] that resolves to the binding in scope at the top of [e] to
   [visit ~nested read], which returns a replacement or [None] to keep
   it.  A read is offered in its largest recognized shape:
   [fn:data|fn:empty|fn:exists|fn:count($var/...)], then [$var/...],
   then the bare [$var].  Descent stops under a binder of [var] or of a
   name in [avoid] (the free variables of a replacement); in a nested
   FLWOR it resumes after that FLWOR's next group, which restores the
   FLWOR's entry environment and so the binding.  [nested] is
   set where the read may run more than once per binding of [var]:
   inside a nested FLWOR, quantifier or predicate, and after a later
   for of the binding FLWOR.  [own] marks that FLWOR's remainder, whose
   group clause ends the binding's scope.  Also returns whether every
   read was offered (descent never stopped at a binder of [avoid]). *)
let map_reads ~var ~avoid ~visit ~own clauses return =
  let complete = ref true in
  let blocks v = v = var || Vars.mem v avoid in
  let blocked v =
    let b = v <> var && Vars.mem v avoid in
    if b then complete := false;
    blocks v
  in
  let replace ~nested e k =
    match visit ~nested e with Some r -> r | None -> k ()
  in
  let rec go ~nested (e : X.expr) : X.expr =
    match e with
    | X.Call
        ( (("fn:data" | "fn:empty" | "fn:exists" | "fn:count") as fn),
          [ (X.Path (X.Var v, _) as p) ] )
      when v = var ->
      replace ~nested e (fun () -> X.Call (fn, [ go ~nested p ]))
    | X.Path (X.Var v, steps) when v = var ->
      replace ~nested e (fun () -> X.Path (X.Var v, steps_of steps))
    | X.Var v when v = var -> replace ~nested e (fun () -> e)
    | X.Literal _ | X.Var _ | X.Context_item | X.Text _ -> e
    | X.Seq es -> X.Seq (List.map (go ~nested) es)
    | X.Flwor f ->
      let clauses, return = flwor ~own:false ~nested:true f.clauses f.return in
      X.Flwor { clauses; return }
    | X.Path (base, steps) -> X.Path (go ~nested base, steps_of steps)
    | X.Call (n, args) -> X.Call (n, List.map (go ~nested) args)
    | X.Elem { name; content } ->
      X.Elem { name; content = List.map (go ~nested) content }
    | X.If (c, t, e) -> X.If (go ~nested c, go ~nested t, go ~nested e)
    | X.Binop (op, a, b) -> X.Binop (op, go ~nested a, go ~nested b)
    | X.Neg a -> X.Neg (go ~nested a)
    | X.Quantified { every; bindings; satisfies } ->
      let rec bind acc = function
        | [] -> (List.rev acc, false)
        | (v, src) :: rest ->
          let b = (v, go ~nested:true src) in
          if blocked v then (List.rev_append acc (b :: rest), true)
          else bind (b :: acc) rest
      in
      let bindings, blocked = bind [] bindings in
      X.Quantified
        {
          every;
          bindings;
          satisfies =
            (if blocked then satisfies else go ~nested:true satisfies);
        }
    | X.Filter (base, pred) ->
      X.Filter
        (go ~nested base, if blocked "." then pred else go ~nested:true pred)
  and steps_of steps =
    if List.for_all (fun (s : X.step) -> s.X.predicates = []) steps then steps
    else if blocked "." then steps
    else
      List.map
        (fun (s : X.step) ->
          { s with X.predicates = List.map (go ~nested:true) s.X.predicates })
        steps
  and clause ~nested (c : X.clause) : X.clause =
    match c with
    | X.For { var = w; source } -> X.For { var = w; source = go ~nested source }
    | X.Let { var = w; value } -> X.Let { var = w; value = go ~nested value }
    | X.Where cond -> X.Where (go ~nested cond)
    | X.Group { grouped; partition; keys } ->
      (* the group reads the grouped variable whole *)
      if grouped = var then ignore (visit ~nested (X.Var var));
      X.Group
        {
          grouped;
          partition;
          keys = List.map (fun (k, kv) -> (go ~nested k, kv)) keys;
        }
    | X.Order_by specs ->
      X.Order_by
        (List.map
           (fun (s : X.order_spec) -> { s with X.key = go ~nested s.X.key })
           specs)
    | X.Hash_join { var = w; source; build_key; probe_key; value_cmp } ->
      X.Hash_join
        {
          var = w;
          source = go ~nested source;
          build_key = (if blocked w then build_key else go ~nested build_key);
          probe_key = go ~nested probe_key;
          value_cmp;
        }
  and flwor ~own ~nested clauses return =
    let rec loop ~nested acc = function
      | [] -> (List.rev acc, go ~nested return)
      | c :: rest ->
        let c' = clause ~nested c in
        let nested =
          nested || match c with X.For _ | X.Hash_join _ -> true | _ -> false
        in
        if own && match c with X.Group _ -> true | _ -> false then
          (List.rev_append acc (c' :: rest), return)
        else if List.exists blocked (clause_binds c) then
          if own then (List.rev_append acc (c' :: rest), return)
          else shadowed ~nested (c' :: acc) rest
        else loop ~nested (c' :: acc) rest
    (* a nested FLWOR's rebinding lasts up to its next group, which puts
       the FLWOR's entry environment — and with it the binding — back *)
    and shadowed ~nested acc = function
      | [] -> (List.rev acc, return)
      | (X.Group _ as g) :: rest ->
        if List.exists blocked (clause_binds g) then
          shadowed ~nested (g :: acc) rest
        else loop ~nested (g :: acc) rest
      | c :: rest -> shadowed ~nested (c :: acc) rest
    in
    loop ~nested [] clauses
  in
  let clauses, return = flwor ~own ~nested:false clauses return in
  (clauses, return, !complete)

(* The direct record constructor [var] is let-bound to by [before] (the
   clauses preceding a use, in order), with the clauses after that let:
   [None] when the last binding of [var] is anything else, or a later
   clause rebinds one of the constructor's free variables, or a group
   clause ends its scope. *)
let record_binding (before : X.clause list) var =
  List.fold_left
    (fun found (c : X.clause) ->
      match c with
      | X.Let { var = w; value } when w = var ->
        if record_fields value = None then None else Some (value, [])
      | X.Group _ -> None
      | _ -> (
        match found with
        | Some (value, later) ->
          let fvs = free_vars value in
          if List.exists (fun b -> b = var || Vars.mem b fvs) (clause_binds c)
          then None
          else Some (value, later @ [ c ])
        | None -> None))
    None before

(* F2 for the let [var := value] over the remainder of its FLWOR:
   rewrite every read it may, returning the new remainder. *)
let navigate acc var value fields rest return =
  let avoid = free_vars value in
  (* which field reads may be duplicated: a cheap field always, an
     expensive one only when read once, outside any loop *)
  let disallowed =
    match List.filter (fun f -> not (cheap (field_part f))) fields with
    | [] -> []
    | expensive ->
      let reads = ref [] in
      ignore
        (map_reads ~var ~avoid ~own:true rest return ~visit:(fun ~nested r ->
             (* declining every shape, each read reaches its path once *)
             (match r with
             | X.Path (_, { X.name; _ } :: _) ->
               reads := (name, nested) :: !reads
             | _ -> ());
             None));
      List.filter
        (fun f ->
          match List.filter (fun (s, _) -> step_matches s f.f_name) !reads with
          | [ (_, false) ] -> false
          | _ -> true)
        expensive
  in
  let allowed f = not (List.memq f disallowed) in
  let fused = ref 0 and kept = ref false in
  let through step k =
    let ms = matching fields step in
    if step = "*" || not (List.for_all allowed ms) then None
    else
      let out = k ms in
      if out <> None then incr fused;
      out
  in
  let visit ~nested:_ (r : X.expr) =
    let out =
      match r with
      | X.Call (fn, [ X.Path (_, [ { X.name; predicates = [] } ]) ]) ->
        through name (fun _ ->
            if fn = "fn:data" then nav_data fields name
            else nav_test fn fields name)
      | X.Path (_, { X.name; predicates = [] } :: steps) ->
        through name (fun ms ->
            let base = seq_of (List.map field_part ms) in
            Some (if steps = [] then base else X.Path (base, steps)))
      | _ -> None
    in
    (* a declined call shape is offered again as its path; a declined
       path or bare read leaves the variable read *)
    (match (out, r) with None, (X.Var _ | X.Path _) -> kept := true | _ -> ());
    out
  in
  let rest, return, complete =
    map_reads ~var ~avoid ~visit ~own:true rest return
  in
  if !fused > 0 then begin
    acc.fused <- acc.fused + 1;
    acc.notes <-
      ("constructor fusion: " ^ string_of_int !fused ^ " read(s) of $" ^ var
     ^ " navigate through its constructor")
      :: acc.notes
  end;
  (rest, return, !kept || not complete)

(* F2 over one FLWOR's own lets, then dead-let removal and [return $w]
   inlining. *)
let fuse_lets acc (f : X.flwor) : X.flwor =
  (* record lets whose every read was fused away *)
  let unread = ref [] in
  let rec lets before clauses return =
    match clauses with
    | [] -> (List.rev before, return)
    | (X.Let { var; value } as c) :: rest -> (
      match record_fields value with
      | Some fields ->
        let rest, return, read = navigate acc var value fields rest return in
        if not read then unread := c :: !unread;
        lets (c :: before) rest return
      | None -> lets (c :: before) rest return)
    | c :: rest -> lets (c :: before) rest return
  in
  let clauses, return = lets [] f.X.clauses f.X.return in
  (* node-valued variables in scope before each clause *)
  let nodes_before =
    lazy
      (let _, out =
         List.fold_left
           (fun (nodes, out) c ->
             (nodes_after ~node_fns:acc.node_fns ~entry:Vars.empty nodes c,
              nodes :: out))
           (Vars.empty, []) clauses
       in
       Array.of_list (List.rev out))
  in
  (* a record nothing reads any more is dropped when building it
     cannot raise *)
  let clauses =
    if !unread = [] then clauses
    else
      List.filteri
        (fun i c ->
          match c with
          | X.Let { var; value }
            when List.memq c !unread
                 && cannot_fail ~nodes:(Lazy.force nodes_before).(i) value ->
            acc.notes <-
              ("constructor fusion: $" ^ var ^ " is never read; record not built")
              :: acc.notes;
            false
          | _ -> true)
        clauses
  in
  (* [let $w := <C>..</C> ... return $w] with only order-by (or, when
     the constructor cannot raise, where) clauses in between: the
     constructor moves into the return *)
  match return with
  | X.Var w -> (
    let rec split after = function
      | X.Let { var; value = X.Elem _ as value } :: before when var = w ->
        Some (value, before, after)
      | ((X.Order_by _ | X.Where _) as c) :: before -> split (c :: after) before
      | _ -> None
    in
    match split [] (List.rev clauses) with
    | Some (value, before, after)
      when (not
              (Vars.mem w
                 (free_vars (X.Flwor { clauses = after; return = X.Seq [] }))))
           && List.for_all
                (function
                  | X.Order_by _ -> true
                  | _ ->
                    cannot_fail
                      ~nodes:
                        (List.fold_left
                           (nodes_after ~node_fns:acc.node_fns ~entry:Vars.empty)
                           Vars.empty (List.rev before))
                      value)
                after ->
      acc.fused <- acc.fused + 1;
      acc.notes <- ("constructor fusion: return $" ^ w ^ " inlined") :: acc.notes;
      { X.clauses = List.rev_append before after; return = value }
    | _ -> { X.clauses; return })
  | _ -> { X.clauses; return }

let rec strip_seq = function X.Seq [ e ] -> strip_seq e | e -> e

(* The FLWORs making up a RECORDSET's content, each with the record
   constructor it returns, when every one returns a direct constructor
   matched by [step]. *)
let record_branches step content =
  let rec go acc = function
    | [] -> Some (List.rev acc)
    | X.Seq es :: rest -> go acc (es @ rest)
    | X.Flwor { clauses = _ :: _ as clauses; return } :: rest -> (
      match strip_seq return with
      | X.Elem { name; _ } as r when step_matches step name ->
        go ((clauses, r) :: acc) rest
      | _ -> None)
    | _ -> None
  in
  match go [] content with Some (_ :: _ as bs) -> Some bs | _ -> None

(* What [rewrite] counts in [acc.loops]: a nested FLWOR, quantifier or
   predicate in a position that may run more than once per run, where
   [hoist_closed] may find something.  Not counted, since nothing in
   them can be closed and worth hoisting: a FLWOR led by a correlated
   probe (its source is a bare scan, its probe reads the enclosing
   tuple), and a positional predicate on a variable ([$p[1]]). *)
let probe_led = function X.Hash_join _ :: _ -> true | _ -> false
let constant_pred = function X.Literal _ -> true | _ -> false

(* F1 over one FLWOR (whose subexpressions are already rewritten), then
   F2; [finish ~nested] runs the remaining FLWOR rewrites on the result
   and on every FLWOR distribution creates. *)
let rec fuse_flwor acc ~finish ~nested (f : X.flwor) : X.expr =
  let cont rest = free_vars (X.Flwor { clauses = rest; return = f.X.return }) in
  let rec scan pre = function
    | (X.Let { var = t; value = X.Elem { content; _ } } as lc)
      :: (X.For
            { var = v;
              source = X.Path (X.Var t', [ { X.name = step; predicates = [] } ])
            } as fc)
      :: rest
      when t' = t -> (
      let cont = cont rest in
      let unnestable (clauses, _) =
        (* no binding of B may capture a name the continuation reads *)
        List.for_all
          (fun c ->
            List.for_all
              (fun b -> b = v || not (Vars.mem b cont))
              (clause_binds c))
          clauses
      in
      let note s =
        acc.fused <- acc.fused + 1;
        acc.notes <-
          ("constructor fusion: $" ^ t ^ "/" ^ step ^ " unnested into $" ^ v ^ s)
          :: acc.notes
      in
      let skip () = scan (fc :: lc :: pre) rest in
      match record_branches step content with
      | Some bs when (not (Vars.mem t cont)) && List.for_all unnestable bs -> (
        match bs with
        | [ (clauses, r) ] when pre = [] || not (List.exists reorders clauses)
          ->
          (* B's barriers see the same tuple stream only when nothing
             precedes them *)
          note "";
          scan (X.Let { var = v; value = r } :: List.rev_append clauses pre) rest
        | _ when not (List.exists reorders rest) ->
          note
            (", distributed over " ^ string_of_int (List.length bs)
           ^ " branches");
          let arms =
            List.map
              (fun (clauses, r) ->
                fuse_flwor acc ~finish ~nested:(nested || pre <> [])
                  { X.clauses = clauses @ (X.Let { var = v; value = r } :: rest);
                    return = f.X.return })
              bs
          in
          `Done
            (if pre = [] then seq_of arms
             else finish ~nested { X.clauses = List.rev pre; return = seq_of arms })
        | _ -> skip ())
      | _ -> skip ())
    | c :: rest -> scan (c :: pre) rest
    | [] -> `Clauses (List.rev pre)
  in
  match scan [] f.X.clauses with
  | `Done e -> e
  | `Clauses clauses -> finish ~nested (fuse_lets acc { f with X.clauses })

(* ------------------------------------------------------------------ *)
(* Aggregation-kernel recognition (columnar GROUP BY)                 *)

(* The columnar engine can fold the translator's aggregate shapes
   incrementally per grouped tuple (see Kernels) instead of
   materializing the whole partition sequence per group.  A partition
   use is kernelizable when it is exactly one of the shapes the
   generator emits:

     fn:count($p)            fn:count($p/COL)
     fn:sum($p/COL)          if (fn:empty($p/COL)) then () else fn:sum($p/COL)
     fn:avg / fn:min / fn:max ($p/COL)
     fn:min / fn:max (for $x in $p/COL return xs:string($x))
     fn:empty($p) / fn:exists($p)   (and the /COL variants)

   [group_kernels] rewrites every such use in the post-group remainder
   into a read of a synthetic '#agg:' variable and returns the kernel
   inventory; any other use of the partition (or a rebinding of its
   name) bails the whole group back to the materializing path, so the
   rewrite is all-or-nothing and the oracle semantics are preserved
   exactly. *)

type kernel_spec = {
  k_kind : Kernels.kind;
  k_step : string option;
      (** [None] = the whole partition; [Some name] = the child-step
          column [$p/name] *)
  k_var : string;  (** the synthetic variable the rewrite binds *)
  k_arg : X.expr;
      (** the per-tuple input, evaluated before the group: [$g] or
          [$g/name], or read through [$g]'s record constructor *)
}

let spec_label s =
  match s.k_step with
  | None -> Kernels.name s.k_kind
  | Some col -> Printf.sprintf "%s(%s)" (Kernels.name s.k_kind) col

exception Not_kernelizable

let group_kernels ?record ~grouped ~partition (clauses : X.clause list)
    (return_ : X.expr) : (kernel_spec list * X.clause list * X.expr) option =
  let specs = ref [] in
  let nspecs = ref 0 in
  let fields = Option.bind record record_fields in
  (* F3: through a record constructor, a column kernel folds the field's
     content atomization — one item per element, as the child step
     would give — and a whole-partition count one item per tuple *)
  let arg kind step =
    match (step, fields) with
    | None, Some _
      when List.mem kind Kernels.[ K_count; K_empty; K_exists ] ->
      X.int 1
    | Some name, Some fs -> (
      match nav_data fs name with
      | Some d when name <> "*" -> d
      | _ -> X.path1 (X.Var grouped) name)
    | None, _ -> X.Var grouped
    | Some name, None -> X.path1 (X.Var grouped) name
  in
  let spec ?(cast = Fun.id) kind step =
    let a = cast (arg kind step) in
    match
      List.find_opt
        (fun s -> s.k_kind = kind && s.k_step = step && s.k_arg = a)
        !specs
    with
    | Some s -> s.k_var
    | None ->
      let v = Printf.sprintf "#agg:%s:%d" partition !nspecs in
      incr nspecs;
      specs := { k_kind = kind; k_step = step; k_var = v; k_arg = a } :: !specs;
      v
  in
  let kind_of = function
    | "fn:count" -> Some Kernels.K_count
    | "fn:sum" -> Some Kernels.K_sum
    | "fn:avg" -> Some Kernels.K_avg
    | "fn:min" -> Some Kernels.K_min
    | "fn:max" -> Some Kernels.K_max
    | "fn:empty" -> Some Kernels.K_empty
    | "fn:exists" -> Some Kernels.K_exists
    | _ -> None
  in
  (* a kernelizable column read: the partition itself or one
     unpredicated child step over it *)
  let column = function
    | X.Var v when v = partition -> Some None
    | X.Path (X.Var v, [ { X.name; predicates = [] } ]) when v = partition ->
      Some (Some name)
    | _ -> None
  in
  let rebind v = if v = partition then raise Not_kernelizable in
  let rec rw (e : X.expr) : X.expr =
    match e with
    (* the translator's SQL NULL shape for SUM, fused into one kernel:
       SUM over the empty set is NULL, not 0 *)
    | X.If (X.Call ("fn:empty", [ g ]), X.Seq [], X.Call ("fn:sum", [ s ]))
      when g = s && column g <> None ->
      X.Var (spec Kernels.K_sum_null (Option.get (column g)))
    | X.Call (name, [ arg ]) when kind_of name <> None && column arg <> None ->
      X.Var (spec (Option.get (kind_of name)) (Option.get (column arg)))
    (* the translator's character MIN/MAX: each tuple's input is cast
       to xs:string before the group *)
    | X.Call
        ( (("fn:min" | "fn:max") as name),
          [ X.Flwor
              ({ clauses = [ X.For { var; source } ];
                 return = X.Call ("xs:string", [ X.Var x ]) } as f) ] )
      when x = var && column source <> None ->
      let cast a = X.Flwor { f with clauses = [ X.For { var; source = a } ] } in
      X.Var (spec ~cast (Option.get (kind_of name)) (Option.get (column source)))
    | X.Var v when v = partition -> raise Not_kernelizable
    | X.Literal _ | X.Var _ | X.Context_item | X.Text _ -> e
    | X.Seq es -> X.Seq (List.map rw es)
    | X.Flwor f ->
      X.Flwor { clauses = List.map rw_clause f.clauses; return = rw f.return }
    | X.Path (base, steps) ->
      X.Path
        ( rw base,
          List.map
            (fun (s : X.step) ->
              { s with X.predicates = List.map rw s.predicates })
            steps )
    | X.Call (name, args) -> X.Call (name, List.map rw args)
    | X.Elem { name; content } -> X.Elem { name; content = List.map rw content }
    | X.If (c, t, e) -> X.If (rw c, rw t, rw e)
    | X.Binop (op, a, b) -> X.Binop (op, rw a, rw b)
    | X.Neg e -> X.Neg (rw e)
    | X.Quantified { every; bindings; satisfies } ->
      List.iter (fun (v, _) -> rebind v) bindings;
      X.Quantified
        {
          every;
          bindings = List.map (fun (v, e) -> (v, rw e)) bindings;
          satisfies = rw satisfies;
        }
    | X.Filter (base, pred) -> X.Filter (rw base, rw pred)
  and rw_clause = function
    | X.For { var; source } ->
      rebind var;
      X.For { var; source = rw source }
    | X.Let { var; value } ->
      rebind var;
      X.Let { var; value = rw value }
    | X.Where cond -> X.Where (rw cond)
    | X.Group { grouped; partition = p2; keys } ->
      (* a nested group collecting or rebinding our partition is a
         non-kernel use *)
      rebind grouped;
      rebind p2;
      List.iter (fun (_, kv) -> rebind kv) keys;
      X.Group { grouped; partition = p2; keys = List.map (fun (k, v) -> (rw k, v)) keys }
    | X.Order_by specs ->
      X.Order_by
        (List.map (fun (s : X.order_spec) -> { s with X.key = rw s.X.key }) specs)
    | X.Hash_join { var; source; build_key; probe_key; value_cmp } ->
      rebind var;
      X.Hash_join
        {
          var;
          source = rw source;
          build_key = rw build_key;
          probe_key = rw probe_key;
          value_cmp;
        }
  in
  match (List.map rw_clause clauses, rw return_) with
  | clauses', return' -> Some (List.rev !specs, clauses', return')
  | exception Not_kernelizable -> None

(* ------------------------------------------------------------------ *)
(* Per-clause binding bookkeeping                                     *)

let is_barrier = function X.Group _ -> true | _ -> false

(* ------------------------------------------------------------------ *)
(* Predicate pushdown                                                 *)

let rec split_conjuncts e =
  match e with
  | X.Binop (X.B_and, a, b) -> split_conjuncts a @ split_conjuncts b
  | _ -> [ e ]

(* Rebuild a clause list with every [where] conjunct placed directly
   after the latest of: the last clause (at or before its original
   position) binding one of its free variables, and the last barrier
   before its original position.  Conjuncts that reference a variable
   bound only *later* in the same FLWOR stay put — the scoping check
   turns those into a clear error at evaluation time. *)
let push_predicates acc clauses =
  let arr = Array.of_list clauses in
  let n = Array.length arr in
  (* buckets.(j) = wheres to emit right after clause j-1 (j=0: first) *)
  let buckets = Array.make (n + 1) [] in
  Array.iteri
    (fun i clause ->
      match clause with
      | X.Where cond ->
        List.iter
          (fun conjunct ->
            let fvs = fv Vars.empty Vars.empty conjunct in
            let later =
              (* vars first bound after position i *)
              let rec collect j s =
                if j >= n then s
                else
                  collect (j + 1)
                    (List.fold_left
                       (fun s v -> Vars.add v s)
                       s
                       (clause_binds arr.(j)))
              in
              collect (i + 1) Vars.empty
            in
            let target = ref 0 in
            let hazard = ref false in
            for j = 0 to i - 1 do
              if is_barrier arr.(j) then target := max !target (j + 1);
              List.iter
                (fun v -> if Vars.mem v fvs then target := max !target (j + 1))
                (clause_binds arr.(j))
            done;
            (* a free var not bound by any clause up to i but bound by a
               later clause: leave the conjunct in place *)
            Vars.iter
              (fun v ->
                let bound_before =
                  let rec any j =
                    j < i
                    && (List.mem v (clause_binds arr.(j)) || any (j + 1))
                  in
                  any 0
                in
                if (not bound_before) && Vars.mem v later then hazard := true)
              fvs;
            let place = if !hazard then i else !target in
            if place < i then acc.pushed <- acc.pushed + 1;
            buckets.(place) <- X.Where conjunct :: buckets.(place))
          (split_conjuncts cond)
      | _ -> ())
    arr;
  let out = ref [] in
  for j = n downto 0 do
    (* non-where clause at position j (none for j = n) *)
    (match if j < n then Some arr.(j) else None with
    | Some (X.Where _) | None -> ()
    | Some c -> out := c :: !out);
    (* buckets hold wheres in reverse insertion order; rev_append
       restores original relative order *)
    out := List.rev_append buckets.(j) !out
  done;
  !out

(* ------------------------------------------------------------------ *)
(* Hash equi-join recognition                                         *)

(* A build table is reusable across invocations when it is a pure
   function of the materialized source sequence: the source reads no
   variable and the build key reads nothing but the join variable. *)
let reusable_build ~var ~source ~build_key =
  Vars.is_empty (free_vars source)
  && Vars.subset (free_vars build_key) (Vars.singleton var)

(* Pipeline-relative free variables: the subset of [e]'s free vars that
   are bound by this FLWOR's earlier clauses (given in [pipeline]). *)
let pipeline_fv pipeline e = Vars.inter (free_vars e) pipeline

(* [nested]: the FLWOR sits inside a binder (a clause of an enclosing
   FLWOR, a quantifier, a predicate), so a leading for may be a
   correlated probe.  Its comparand must read a variable that no
   clause here binds and that is not an external of the whole plan —
   hence one bound by an enclosing binder.  A prepared parameter is
   external, so a top-level comparison against it is never a
   correlated probe. *)
let recognize_joins acc ~nested clauses =
  let own =
    lazy
      (List.fold_left
         (fun s c -> List.fold_left (fun s v -> Vars.add v s) s (clause_binds c))
         Vars.empty clauses)
  in
  let rec scan bound_before = function
    | [] -> []
    | (X.For { var; source } as forc) :: rest
      when Vars.is_empty (pipeline_fv bound_before source)
           && (nested || not (Vars.is_empty bound_before)) -> (
      let leading = Vars.is_empty bound_before in
      let pipeline = Vars.add var bound_before in
      let build_ok b =
        Vars.equal (pipeline_fv pipeline b) (Vars.singleton var)
        && ((not leading) || reusable_build ~var ~source ~build_key:b)
      in
      (* the comparand reads earlier bindings of this FLWOR, or — for a
         leading for — enclosing variables that no clause here rebinds *)
      let probe_ok p =
        if leading then
          let f = free_vars p in
          (not (Vars.is_empty f))
          && Vars.is_empty (Vars.inter f (Lazy.force own))
          && not (Vars.subset f (Lazy.force acc.externals))
        else
          let s = pipeline_fv pipeline p in
          (not (Vars.mem var s)) && not (Vars.is_empty s)
      in
      (* look through the run of consecutive wheres following the for *)
      let rec find_eq seen = function
        | (X.Where (X.Binop (((X.B_general X.Eq | X.B_value X.Eq) as op), l, r))
           as w)
          :: tail ->
          let value_cmp = match op with X.B_value _ -> true | _ -> false in
          if probe_ok r && build_ok l then
            Some (l, r, value_cmp, List.rev seen, tail)
          else if probe_ok l && build_ok r then
            Some (r, l, value_cmp, List.rev seen, tail)
          else find_eq (w :: seen) tail
        | (X.Where _ as w) :: tail -> find_eq (w :: seen) tail
        | _ -> None
      in
      match find_eq [] rest with
      | Some (build_key, probe_key, value_cmp, kept_wheres, tail) ->
        acc.joins <- acc.joins + 1;
        if leading then acc.correlated <- acc.correlated + 1;
        acc.notes <-
          Printf.sprintf "hash equi-join on $%s (%s comparison%s)" var
            (if value_cmp then "value" else "general")
            (if leading then ", correlated probe" else "")
          :: acc.notes;
        let hj =
          X.Hash_join { var; source; build_key; probe_key; value_cmp }
        in
        hj :: kept_wheres @ scan pipeline tail
      | None -> forc :: scan pipeline rest)
    | clause :: rest ->
      let bound_before =
        match clause with
        | X.Group { partition; keys; _ } ->
          (* pre-group bindings do not survive the group clause *)
          List.fold_left
            (fun b (_, kv) -> Vars.add kv b)
            (Vars.singleton partition)
            keys
        | _ ->
          List.fold_left
            (fun b v -> Vars.add v b)
            bound_before (clause_binds clause)
      in
      clause :: scan bound_before rest
  in
  scan Vars.empty clauses

(* ------------------------------------------------------------------ *)
(* Bottom-up rewrite                                                  *)

(* [rep]: [e] may run more than once per run (it sits after a [for]
   of a FLWOR, in a quantifier or a predicate), for [acc.loops] *)
let rec rewrite acc ~nested ~rep (e : X.expr) : X.expr =
  match e with
  | X.Literal _ | X.Var _ | X.Context_item | X.Text _ -> e
  | X.Seq es -> X.Seq (List.map (rewrite acc ~nested ~rep) es)
  | X.Flwor f ->
    let iterated = ref rep in
    let clauses =
      List.map
        (fun c ->
          let c' = rewrite_clause acc ~rep:!iterated c in
          (match c with
          | X.For _ | X.Hash_join _ | X.Group _ -> iterated := true
          | X.Let _ | X.Where _ | X.Order_by _ -> ());
          c')
        f.clauses
    in
    let return = rewrite acc ~nested:true ~rep:!iterated f.return in
    (* constructor fusion first, so the clause lists it splices still
       get pushdown and join recognition *)
    let e' =
      fuse_flwor acc ~nested { clauses; return } ~finish:(fun ~nested f ->
          let clauses = push_predicates acc f.X.clauses in
          X.Flwor
            { clauses = recognize_joins acc ~nested clauses; return = f.X.return })
    in
    (match e' with
    | X.Flwor { clauses; _ } when probe_led clauses -> ()
    | _ -> if rep then acc.loops <- acc.loops + 1);
    e'
  | X.Path (base, steps) ->
    X.Path
      ( rewrite acc ~nested ~rep base,
        List.map
          (fun (s : X.step) ->
            if s.X.predicates = [] then s
            else begin
              if rep && not (List.for_all constant_pred s.X.predicates) then
                acc.loops <- acc.loops + 1;
              { s with
                X.predicates =
                  List.map (rewrite acc ~nested:true ~rep:true) s.predicates }
            end)
          steps )
  | X.Call (name, args) -> X.Call (name, List.map (rewrite acc ~nested ~rep) args)
  | X.Elem { name; content } ->
    X.Elem { name; content = List.map (rewrite acc ~nested ~rep) content }
  | X.If (c, t, e) ->
    X.If
      ( rewrite acc ~nested ~rep c,
        rewrite acc ~nested ~rep t,
        rewrite acc ~nested ~rep e )
  | X.Binop (op, a, b) ->
    X.Binop (op, rewrite acc ~nested ~rep a, rewrite acc ~nested ~rep b)
  | X.Neg e -> X.Neg (rewrite acc ~nested ~rep e)
  | X.Quantified { every; bindings; satisfies } ->
    if rep then acc.loops <- acc.loops + 1;
    X.Quantified
      {
        every;
        bindings =
          List.mapi
            (fun i (v, e) -> (v, rewrite acc ~nested:true ~rep:(rep || i > 0) e))
            bindings;
        satisfies = rewrite acc ~nested:true ~rep:true satisfies;
      }
  | X.Filter (base, pred) ->
    (match (base, pred) with
    | X.Var _, X.Literal _ -> ()
    | _ -> if rep then acc.loops <- acc.loops + 1);
    X.Filter
      (rewrite acc ~nested ~rep base, rewrite acc ~nested:true ~rep:true pred)

(* every subexpression of a clause sits inside the FLWOR's binders *)
and rewrite_clause acc ~rep = function
  | X.For { var; source } ->
    X.For { var; source = rewrite acc ~nested:true ~rep source }
  | X.Let { var; value } -> X.Let { var; value = rewrite acc ~nested:true ~rep value }
  | X.Where cond -> X.Where (rewrite acc ~nested:true ~rep cond)
  | X.Group { grouped; partition; keys } ->
    X.Group
      {
        grouped;
        partition;
        keys = List.map (fun (k, v) -> (rewrite acc ~nested:true ~rep k, v)) keys;
      }
  | X.Order_by specs ->
    X.Order_by
      (List.map
         (fun (s : X.order_spec) ->
           { s with X.key = rewrite acc ~nested:true ~rep s.X.key })
         specs)
  | X.Hash_join { var; source; build_key; probe_key; value_cmp } ->
    X.Hash_join
      {
        var;
        source = rewrite acc ~nested:true ~rep source;
        build_key = rewrite acc ~nested:true ~rep:true build_key;
        probe_key = rewrite acc ~nested:true ~rep probe_key;
        value_cmp;
      }

(* ------------------------------------------------------------------ *)
(* Closed-subexpression hoisting                                      *)

(* Stage three nests an uncorrelated subquery, and the right input of a
   set operation, inside the outer FLWOR (paper section 3.4): an [IN]
   as [x = (for .. return <RECORD>..</RECORD>)/C], a scalar subquery as
   [fn:zero-or-one(fn:data((let .. return <RECORD>..</RECORD>)/E))],
   [NOT IN]/[ANY]/[ALL] as quantifiers over such a FLWOR, and
   [INTERSECT]/[EXCEPT] as a matches FLWOR over a let-bound RECORDSET
   run once per group.  Each evaluation of such an expression yields the
   same value, since it reads no variable the loop binds, yet the
   engines evaluate it once per outer tuple.

   The pass wraps each maximal closed subexpression that sits where it
   may run more than once per run (after a for of its FLWOR, in a
   quantifier or a predicate) and does work (it holds a FLWOR, a
   quantifier, a path over a variable or a data-service call) in
   [aqua:hoisted(E)].
   "Closed" means it reads no variable but the plan's externals and
   variables let-bound to closed values, whose every evaluation yields
   the same value too; a data-service call reads the statement's pinned
   read view, so it is closed.  A bare data-service call is left alone:
   the scan memo already serves its rows.  The mark changes no value:
   [aqua:hoisted(E)] is [E] ({!Functions.hoisted_name}).  The compiled
   engine evaluates it where it stands, on first demand, at most once
   per run, and memoizes its value or its error in the run's own
   state, never in the plan; so a subquery no tuple reaches is never
   evaluated, and an error surfaces where the interpreter raises it.

   One bottom-up walk: each node reports the scope levels of the
   variables it reads (run constants excluded) as a bit mask, and
   whether it does work; a parent that is not itself hoisted wraps its
   closed, working children in repeated positions. *)

let hoisted_name = Functions.hoisted_name

let is_hoisted (e : X.expr) =
  match e with X.Call (n, [ _ ]) -> String.equal n hoisted_name | _ -> false

(* [$var/C]: one unpredicated, named child step of [var] *)
let var_step var (e : X.expr) =
  match e with
  | X.Path (X.Var v, [ { X.name; predicates = [] } ])
    when String.equal v var && name <> "*" ->
    Some name
  | _ -> None

type semi_join = {
  sj_probe : X.expr;  (** the comparand evaluated per tuple *)
  sj_set : X.expr;  (** the hoisted sequence *)
  sj_set_right : bool;  (** the hoisted operand is the right one *)
}

let semi_join (e : X.expr) =
  match e with
  | X.Binop (X.B_general X.Eq, l, r) when is_hoisted r && not (is_hoisted l) ->
    Some { sj_probe = l; sj_set = r; sj_set_right = true }
  | X.Binop (X.B_general X.Eq, l, r) when is_hoisted l && not (is_hoisted r) ->
    Some { sj_probe = r; sj_set = l; sj_set_right = false }
  | _ -> None

type quantified_probe = {
  qp_every : bool;  (** [every .. satisfies L != $w/C]: the anti-join *)
  qp_var : string;
  qp_set : X.expr;  (** the hoisted binding sequence *)
  qp_probe : X.expr;  (** [L], which does not read [qp_var] *)
  qp_step : string;  (** [C] *)
  qp_probe_left : bool;  (** [L] is the left operand *)
}

let quantified_probe (e : X.expr) =
  match e with
  | X.Quantified
      { every; bindings = [ (w, set) ]; satisfies = X.Binop (X.B_general op, l, r) }
    when is_hoisted set && if every then op = X.Ne else op = X.Eq -> (
    let probe p step left =
      if Vars.mem w (free_vars p) then None
      else
        Some
          { qp_every = every; qp_var = w; qp_set = set; qp_probe = p;
            qp_step = step; qp_probe_left = left }
    in
    match (var_step w r, var_step w l) with
    | Some step, _ -> probe l step true
    | None, Some step -> probe r step false
    | None, None -> None)
  | _ -> None

type setop_probe = {
  sp_var : string;
  sp_source : X.expr;  (** the hoisted sequence of right-hand records *)
  sp_keys : (string * string) list;
      (** per column: the key variable [K] and the step [C] of
          [K = $r/C or fn:empty(K) and fn:empty($r/C)] *)
}

(* [K = $r/C or fn:empty(K) and fn:empty($r/C)]: the set operations'
   null-safe column match *)
let null_safe_eq var (e : X.expr) =
  match e with
  | X.Binop
      ( X.B_or,
        X.Binop (X.B_general X.Eq, X.Var k, p),
        X.Binop
          ( X.B_and,
            X.Call ("fn:empty", [ X.Var k' ]),
            X.Call ("fn:empty", [ p' ]) ) )
    when String.equal k k' && not (String.equal k var) -> (
    match (var_step var p, var_step var p') with
    | Some c, Some c' when String.equal c c' -> Some (k, c)
    | _ -> None)
  | _ -> None

let setop_probe (f : X.flwor) =
  match f.X.clauses with
  | X.For { var; source } :: (_ :: _ as rest) when is_hoisted source ->
    let rec keys acc = function
      | [] -> Some { sp_var = var; sp_source = source; sp_keys = List.rev acc }
      | X.Where c :: rest ->
        let rec conj acc = function
          | [] -> keys acc rest
          | c :: cs -> (
            match null_safe_eq var c with
            | Some k -> conj (k :: acc) cs
            | None -> None)
        in
        conj acc (split_conjuncts c)
      | _ -> None
    in
    keys [] rest
  | _ -> None

(* A short description for notes, by the expression's head: e.g.
   [fn:zero-or-one(fn:data(FLWOR/EXPR_1))] or [FLWOR over ns1:ORDERS()]. *)
let rec summary (e : X.expr) =
  match e with
  | X.Var v -> "$" ^ v
  | X.Path (b, steps) ->
    List.fold_left (fun acc (s : X.step) -> acc ^ "/" ^ s.X.name) (summary b) steps
  | X.Call (n, [ a ]) -> n ^ "(" ^ summary a ^ ")"
  | X.Call (n, args) -> n ^ if args = [] then "()" else "(..)"
  | X.Flwor { clauses; _ } -> (
    match
      List.find_map
        (function X.For { source = X.Call (n, []); _ } -> Some n | _ -> None)
        clauses
    with
    | Some n -> "FLWOR over " ^ n ^ "()"
    | None -> "FLWOR")
  | X.Quantified { every; _ } -> if every then "every .." else "some .."
  | _ -> "expression"

(* A child as its parent's [finish] sees it. *)
type hkid = {
  k_e : X.expr;  (* rewritten *)
  k_orig : X.expr;
  k_cand : bool;  (* closed, working, in a repeated position *)
  k_mask : int;
  k_work : bool;
}

(* worth a memo of its own: not a bare data-service scan, not hoisted *)
let hoistable (e : X.expr) =
  match e with X.Call (_, []) -> false | e -> not (is_hoisted e)

(* a call of no built-in: every built-in lives in one of these
   namespaces ([Functions]) *)
let service_call n =
  String.length n = 0
  ||
  match String.unsafe_get n 0 with
  | 'f' | 'x' | 'a' ->
    not
      (String.starts_with ~prefix:"fn:" n
      || String.starts_with ~prefix:"xs:" n
      || String.starts_with ~prefix:"fn-bea:" n
      || String.starts_with ~prefix:"aqua:" n)
  | _ -> true

(* A path walks a variable's nodes, or filters: a path over a literal
   or the empty sequence does no work of its own. *)
let path_work (base : X.expr) steps =
  (match base with X.Var _ -> true | _ -> false)
  || List.exists
       (fun (s : X.step) -> match s.X.predicates with [] -> false | _ -> true)
       steps

(* The scope levels [hoist_closed] tracks, as bits of an int: levels
   from 62 up share the last bit, which no filter clears below them. *)
let level_bit l = 1 lsl (if l > 62 then 62 else l)
let below depth m = if depth >= 62 then m else m land ((1 lsl depth) - 1)

(* the bit of a variable read ([env]: innermost first, a run constant
   at level -1; an unbound name is an external of the plan) *)
let read_level env v =
  match assoc_str v env with Some l when l >= 0 -> level_bit l | _ -> 0

let hoist_closed acc (e : X.expr) : X.expr =
  let read = read_level in
  (* what [go] last returned: the levels read, whether it does work *)
  let mask = ref 0 and work = ref false in
  let wrap e =
    acc.hoists <- acc.hoists + 1;
    acc.notes <-
      ("hoisted closed subexpression: " ^ summary e
     ^ " (evaluated at most once per run, on first demand)")
      :: acc.notes;
    X.Call (hoisted_name, [ e ])
  in
  let count e =
    (match semi_join e with
    | Some _ ->
      acc.semis <- acc.semis + 1;
      acc.notes <- "semi-join probe: a hash set over the hoisted value" :: acc.notes
    | None -> ());
    match quantified_probe e with
    | Some q ->
      if q.qp_every then begin
        acc.antis <- acc.antis + 1;
        acc.notes <-
          ("anti-join probe: every $" ^ q.qp_var ^ " satisfies != $" ^ q.qp_var ^ "/"
         ^ q.qp_step)
          :: acc.notes
      end
      else begin
        acc.semis <- acc.semis + 1;
        acc.notes <-
          ("semi-join probe: some $" ^ q.qp_var ^ " satisfies = $" ^ q.qp_var ^ "/"
         ^ q.qp_step)
          :: acc.notes
      end
    | None -> ()
  in
  (* [go ~rep env depth e]: [e] rewritten, [rep] when it may run more
     than once per run.  Each node lists its children as kids, each with
     its own [rep]; [finish] rebuilds it from them. *)
  let rec go ~rep env depth (e : X.expr) : X.expr =
    match e with
    | X.Literal _ | X.Text _ ->
      mask := 0;
      work := false;
      e
    | X.Var v ->
      mask := read env v;
      work := false;
      e
    | X.Context_item ->
      mask := read env ".";
      work := false;
      e
    | X.Seq es ->
      let ks = List.map (kid ~rep env depth) es in
      finish ~rep depth e ks (fun es -> X.Seq es)
    | X.Call (n, args) ->
      let ks = List.map (kid ~rep env depth) args in
      finish ~rep ~w:(service_call n) depth e ks (fun args -> X.Call (n, args))
    | X.Elem { name; content } ->
      let ks = List.map (kid ~rep env depth) content in
      finish ~rep depth e ks (fun content -> X.Elem { name; content })
    | X.If (c, t, f) ->
      let ks = [ kid ~rep env depth c; kid ~rep env depth t; kid ~rep env depth f ] in
      finish ~rep depth e ks (function
        | [ c; t; f ] -> X.If (c, t, f)
        | _ -> assert false)
    | X.Binop (op, a, b) ->
      let ks = [ kid ~rep env depth a; kid ~rep env depth b ] in
      let e' =
        finish ~rep depth e ks (function
          | [ a; b ] -> X.Binop (op, a, b)
          | _ -> assert false)
      in
      count e';
      e'
    | X.Neg a ->
      let ks = [ kid ~rep env depth a ] in
      finish ~rep depth e ks (function [ a ] -> X.Neg a | _ -> assert false)
    | X.Path (base, steps) ->
      let kb = kid ~rep env depth base in
      let env', depth' = ((".", depth) :: env, depth + 1) in
      let kps =
        List.map
          (fun (s : X.step) -> List.map (kid ~rep:true env' depth') s.X.predicates)
          steps
      in
      finish ~rep ~w:(path_work base steps) depth e
        (kb :: List.concat kps)
        (function
          | base :: preds ->
            let rest = ref preds in
            X.Path
              ( base,
                List.map
                  (fun (s : X.step) ->
                    let ps =
                      List.map
                        (fun _ ->
                          match !rest with
                          | p :: r ->
                            rest := r;
                            p
                          | [] -> assert false)
                        s.X.predicates
                    in
                    { s with X.predicates = ps })
                  steps )
          | [] -> assert false)
    | X.Filter (base, pred) ->
      let kb = kid ~rep env depth base in
      let kp = kid ~rep:true ((".", depth) :: env) (depth + 1) pred in
      finish ~rep ~w:true depth e [ kb; kp ] (function
        | [ b; p ] -> X.Filter (b, p)
        | _ -> assert false)
    | X.Quantified { every; bindings; satisfies } ->
      let env = ref env and d = ref depth and first = ref true in
      let kbs =
        List.map
          (fun (v, src) ->
            let k = kid ~rep:(rep || not !first) !env !d src in
            first := false;
            env := (v, !d) :: !env;
            incr d;
            k)
          bindings
      in
      let ks = kid ~rep:true !env !d satisfies in
      let e' =
        finish ~rep ~w:true depth e (kbs @ [ ks ]) (fun es ->
            let rec split bs es =
              match (bs, es) with
              | [], [ s ] -> ([], s)
              | (v, _) :: bs, src :: es ->
                let bs, s = split bs es in
                ((v, src) :: bs, s)
              | _ -> assert false
            in
            let bindings, satisfies = split bindings es in
            X.Quantified { every; bindings; satisfies })
      in
      count e';
      e'
    | X.Flwor { clauses; return } ->
      let env = ref env and d = ref depth and iter = ref false in
      let entry = !env in
      let bind v =
        env := (v, !d) :: !env;
        incr d
      in
      (* per clause, its expressions' kids *)
      let kcs =
        List.map
          (fun (c : X.clause) ->
            let r = rep || !iter in
            match c with
            | X.For { var; source } ->
              let k = kid ~rep:r !env !d source in
              bind var;
              iter := true;
              [ k ]
            | X.Let { var; value } ->
              let k = kid ~rep:r !env !d value in
              (* a let of a closed value is a run constant *)
              if k.k_mask = 0 then env := (var, -1) :: !env else bind var;
              [ k ]
            | X.Where cond -> [ kid ~rep:r !env !d cond ]
            | X.Order_by specs ->
              List.map (fun (s : X.order_spec) -> kid ~rep:r !env !d s.X.key) specs
            | X.Group { grouped; keys; partition } ->
              let gv = X.Var grouped in
              let g = { k_e = gv; k_orig = gv; k_cand = false;
                        k_mask = read !env grouped; k_work = false } in
              let ks = List.map (fun (k, _) -> kid ~rep:r !env !d k) keys in
              env := entry;
              List.iter (fun (_, kv) -> bind kv) keys;
              bind partition;
              iter := true;
              g :: ks
            | X.Hash_join { var; source; probe_key; build_key; _ } ->
              let ks = kid ~rep:r !env !d source in
              let kp = kid ~rep:r !env !d probe_key in
              let kb = kid ~rep:true ((var, !d) :: !env) (!d + 1) build_key in
              bind var;
              iter := true;
              [ ks; kp; kb ])
          clauses
      in
      let kr = kid ~rep:(rep || !iter) !env !d return in
      let e' =
        finish ~rep ~w:true depth e (List.concat kcs @ [ kr ]) (fun es ->
            let rest = ref es in
            let next () =
              match !rest with
              | x :: r ->
                rest := r;
                x
              | [] -> assert false
            in
            let clauses =
              List.map
                (fun (c : X.clause) ->
                  match c with
                  | X.For { var; _ } -> X.For { var; source = next () }
                  | X.Let { var; _ } -> X.Let { var; value = next () }
                  | X.Where _ -> X.Where (next ())
                  | X.Order_by specs ->
                    X.Order_by
                      (List.map (fun (s : X.order_spec) -> { s with X.key = next () }) specs)
                  | X.Group g ->
                    ignore (next ());
                    X.Group { g with keys = List.map (fun (_, kv) -> (next (), kv)) g.keys }
                  | X.Hash_join h ->
                    let source = next () in
                    let probe_key = next () in
                    let build_key = next () in
                    X.Hash_join { h with source; probe_key; build_key })
                clauses
            in
            X.Flwor { clauses; return = next () })
      in
      (match e' with
      | X.Flwor f -> (
        match setop_probe f with
        | Some p ->
          acc.setops <- acc.setops + 1;
          acc.notes <-
            ("set-op probe: $" ^ p.sp_var ^ " matched on a "
            ^ string_of_int (List.length p.sp_keys)
            ^ "-column null-safe key")
            :: acc.notes
        | None -> ())
      | _ -> ());
      e'
  and kid ~rep env depth c =
    match c with
    | X.Literal _ | X.Text _ ->
      { k_e = c; k_orig = c; k_cand = false; k_mask = 0; k_work = false }
    | X.Var v ->
      { k_e = c; k_orig = c; k_cand = false; k_mask = read env v; k_work = false }
    | _ ->
      let c' = go ~rep env depth c in
      let m = !mask and w = !work in
      { k_e = c'; k_orig = c; k_cand = rep && m = 0 && w && hoistable c';
        k_mask = m; k_work = w }
  (* the node's mask and work from its kids; wraps the candidates
     unless the node itself is one *)
  and finish ~rep ?(w = false) depth e ks rebuild =
    let rec fold m w cand changed = function
      | [] -> (m, w, cand, changed)
      | k :: rest ->
        fold (m lor k.k_mask) (w || k.k_work) (cand || k.k_cand)
          (changed || k.k_e != k.k_orig) rest
    in
    let m, w, cand, changed = fold 0 w false false ks in
    let m = below depth m in
    let self = rep && m = 0 && w in
    mask := m;
    work := w;
    if (cand && not self) || changed then
      rebuild
        (List.map (fun k -> if k.k_cand && not self then wrap k.k_e else k.k_e) ks)
    else e
  in
  go ~rep:false [] 0 e

(* ------------------------------------------------------------------ *)
(* Scan column projection                                             *)

(* A binding over a physical scan — a call of a function [node_fns]
   vouches for — holds flat row elements, and
   every translated column access is the child step [$v/COL].  The
   columnar engine reads those from per-column vectors memoized with
   the scan; this analysis decides which reads qualify and rewrites
   them into reads of synthetic column variables bound with [$v]. *)

let column_prefix = "#col:"
let column_var var step = column_prefix ^ var ^ "/" ^ step

let scan_source ~node_fns (e : X.expr) =
  match e with X.Call (name, []) -> node_fns name | _ -> false

type projection = {
  p_index : int;  (** clause position of the binding for or hash join *)
  p_var : string;
  p_cols : (string * string) list;  (** (step name, column variable) *)
}


(* A [where] that keeps few rows: some conjunct is an equality against
   a constant (the classic selectivity heuristic; a range or a join
   predicate keeps a large share).  An expression is constant when it
   reads no variable but the plan's externals [consts], which hold one
   value for the whole run, as a literal does. *)
let point_lookup ~consts cond =
  let constant e = Vars.subset (free_vars e) consts in
  List.exists
    (function
      | X.Binop ((X.B_general X.Eq | X.B_value X.Eq), a, b) ->
        constant a || constant b
      | _ -> false)
    (split_conjuncts cond)

type candidate = {
  c_index : int;
  c_var : string;
  mutable c_ok : bool;
  mutable c_steps : string list;  (** newest first *)
}

(* One FLWOR: a collecting pass over the clauses from the first
   candidate on, for all candidates at once, then one rewriting pass.
   A candidate is dropped when its name is rebound anywhere in its
   scope (a later clause, a nested FLWOR, a quantifier) or read past a
   group of this FLWOR, which restores the entry environment — so a
   rewritten read always resolves to the candidate's binding, and the
   column variables, bound at the same clause, scope exactly like it.
   Projection stops at the first point lookup of this FLWOR after the
   binding: the condition's own reads see every row and are projected,
   but a column read only past it is read for the few rows that pass,
   and projecting it would build the whole column for a few reads
   whenever the scan is freshly materialized. *)
let scan_projections ~node_fns ~consts (clauses : X.clause list)
    (return_ : X.expr) =
  let binder = function
    | (X.For { var; source } | X.Hash_join { var; source; _ })
      when scan_source ~node_fns source ->
      Some var
    | _ -> None
  in
  let binders = List.map binder clauses in
  if List.for_all Option.is_none binders then ([], clauses, return_)
  else begin
    let active = ref [] and closed = ref [] and cands = ref [] in
    (* whether the clause being scanned holds a candidate read: the
       rewriting pass leaves every other clause physically alone *)
    let touched = ref false in
    let kill v l =
      match assoc_str v l with Some c -> c.c_ok <- false | None -> ()
    in
    let rec scan (e : X.expr) =
      match e with
      | X.Path (X.Var v, [ { X.name; predicates = [] } ]) when name <> "*" -> (
        match assoc_str v !active with
        | Some c ->
          touched := true;
          if not (List.exists (String.equal name) c.c_steps) then
            c.c_steps <- name :: c.c_steps
        | None -> kill v !closed)
      | X.Var v -> kill v !closed
      | X.Literal _ | X.Context_item | X.Text _ -> ()
      | X.Seq es -> List.iter scan es
      | X.Flwor f ->
        List.iter
          (fun c ->
            scan_clause c;
            List.iter (fun v -> kill v !active) (clause_binds c))
          f.clauses;
        scan f.return
      | X.Path (base, steps) ->
        scan base;
        List.iter (fun (s : X.step) -> List.iter scan s.X.predicates) steps
      | X.Call (_, args) -> List.iter scan args
      | X.Elem { content; _ } -> List.iter scan content
      | X.If (c, t, e) -> scan c; scan t; scan e
      | X.Binop (_, a, b) -> scan a; scan b
      | X.Neg a -> scan a
      | X.Quantified { bindings; satisfies; _ } ->
        List.iter (fun (v, src) -> kill v !active; scan src) bindings;
        scan satisfies
      | X.Filter (base, pred) -> scan base; scan pred
    and scan_clause = function
      | X.For { source = e; _ } | X.Let { value = e; _ } | X.Where e -> scan e
      | X.Order_by specs -> List.iter (fun (s : X.order_spec) -> scan s.X.key) specs
      | X.Group { grouped; keys; _ } ->
        scan (X.Var grouped);
        List.iter (fun (k, _) -> scan k) keys
      | X.Hash_join { source; build_key; probe_key; _ } ->
        scan source; scan probe_key; scan build_key
    in
    let touched_at =
      List.mapi
        (fun i (c, b) ->
          touched := false;
          if !cands <> [] then begin
            scan_clause c;
            List.iter (fun v -> kill v !active) (clause_binds c)
          end;
          (match b with
          | Some v ->
            let cand = { c_index = i; c_var = v; c_ok = true; c_steps = [] } in
            active := (v, cand) :: !active;
            cands := cand :: !cands
          | None -> ());
          (match c with
          | X.Group _ ->
            closed := !active @ !closed;
            active := []
          | X.Where cond when point_lookup ~consts cond -> active := []
          | _ -> ());
          !touched)
        (List.combine clauses binders)
    in
    touched := false;
    scan return_;
    let projs =
      List.filter_map
        (fun c ->
          if c.c_ok && c.c_steps <> [] then
            Some
              { p_index = c.c_index; p_var = c.c_var;
                p_cols =
                  List.rev_map (fun s -> (s, column_var c.c_var s)) c.c_steps }
          else None)
        (List.rev !cands)
    in
    if projs = [] then ([], clauses, return_)
    else begin
      let proj = ref [] in
      let rec rw (e : X.expr) : X.expr =
        match e with
        | X.Path (X.Var v, [ { X.name; predicates = [] } ]) -> (
          match assoc_str v !proj with
          | Some cols -> (
            match assoc_str name cols with
            | Some col -> X.Var col
            | None -> e)
          | None -> e)
        | X.Literal _ | X.Var _ | X.Context_item | X.Text _ -> e
        | X.Seq es -> X.Seq (List.map rw es)
        | X.Flwor f ->
          X.Flwor { clauses = List.map rw_clause f.clauses; return = rw f.return }
        | X.Path (base, steps) ->
          X.Path
            ( rw base,
              List.map
                (fun (s : X.step) ->
                  if s.X.predicates = [] then s
                  else { s with X.predicates = List.map rw s.X.predicates })
                steps )
        | X.Call (n, args) -> X.Call (n, List.map rw args)
        | X.Elem { name; content } -> X.Elem { name; content = List.map rw content }
        | X.If (c, t, e) -> X.If (rw c, rw t, rw e)
        | X.Binop (op, a, b) -> X.Binop (op, rw a, rw b)
        | X.Neg a -> X.Neg (rw a)
        | X.Quantified q ->
          X.Quantified
            { q with
              bindings = List.map (fun (v, src) -> (v, rw src)) q.bindings;
              satisfies = rw q.satisfies }
        | X.Filter (base, pred) -> X.Filter (rw base, rw pred)
      and rw_clause (c : X.clause) : X.clause =
        match c with
        | X.For { var; source } -> X.For { var; source = rw source }
        | X.Let { var; value } -> X.Let { var; value = rw value }
        | X.Where cond -> X.Where (rw cond)
        | X.Order_by specs ->
          X.Order_by
            (List.map (fun (s : X.order_spec) -> { s with X.key = rw s.X.key }) specs)
        | X.Group g ->
          X.Group { g with keys = List.map (fun (k, kv) -> (rw k, kv)) g.keys }
        | X.Hash_join h ->
          X.Hash_join
            { h with
              source = rw h.source;
              build_key = rw h.build_key;
              probe_key = rw h.probe_key }
      in
      let clauses =
        List.mapi
          (fun i (c, touched) ->
            let c = if touched && !proj <> [] then rw_clause c else c in
            (match List.find_opt (fun p -> p.p_index = i) projs with
            | Some p -> proj := (p.p_var, p.p_cols) :: !proj
            | None -> ());
            (match c with
            | X.Group _ -> proj := []
            | X.Where cond when point_lookup ~consts cond -> proj := []
            | _ -> ());
            c)
          (List.combine clauses touched_at)
      in
      let return_ = if !touched && !proj <> [] then rw return_ else return_ in
      (projs, clauses, return_)
    end
  end

(* ------------------------------------------------------------------ *)
(* Derived cell columns                                               *)

(* A projected column's cell is one immutable child sequence of one
   flat row, so an expression whose only free variable is that column
   variable, built from atomization, emptiness tests, xs: casts,
   conditionals, literals and comparisons, is a pure function of the
   cell: the columnar engine evaluates it once per scan row and memoizes
   the result beside the column.  Derivation is applied where the plan
   evaluates such an expression per row: kernel inputs, group keys,
   hash-join probe keys and [where] operands (a comparison's operands,
   not the comparison, so lookups of different constants share one
   column).  A bare column read is the column itself and is left alone. *)

let cell_var = "#cell"
let cell_prefix = "#cell:"
let row_var v = "#row:" ^ v

exception Not_cell

(* The column variable a cell expression reads ([None]: not a cell
   expression, a bare column read, or no column read at all). *)
let cell_column (e : X.expr) =
  let col = ref None in
  let rec go (e : X.expr) =
    match e with
    | X.Literal _ -> ()
    | X.Var v when String.starts_with ~prefix:column_prefix v -> (
      match !col with
      | None -> col := Some v
      | Some w -> if not (String.equal v w) then raise Not_cell)
    | X.Seq es -> List.iter go es
    | X.Call
        ( ("fn:data" | "aqua:content-data" | "fn:empty" | "fn:exists"
          | "fn:true" | "fn:false"),
          args ) ->
      List.iter go args
    | X.Call (n, [ a ])
      when String.starts_with ~prefix:"xs:" n && Functions.lookup n <> None ->
      go a
    | X.If (c, t, e) -> go c; go t; go e
    | X.Binop ((X.B_general _ | X.B_value _), a, b) -> go a; go b
    | _ -> raise Not_cell
  in
  match (e, go e) with
  | X.Var _, () -> None
  | _, () -> !col
  | exception Not_cell -> None

(* [e] with the column variable [col] renamed to [cell_var]: the memo
   key, equal across statements that bind the scan under other names *)
let rec over_cell col (e : X.expr) : X.expr =
  match e with
  | X.Var v when String.equal v col -> X.Var cell_var
  | X.Literal _ | X.Var _ -> e
  | X.Seq es -> X.Seq (List.map (over_cell col) es)
  | X.Call (n, args) -> X.Call (n, List.map (over_cell col) args)
  | X.If (c, t, e) -> X.If (over_cell col c, over_cell col t, over_cell col e)
  | X.Binop (op, a, b) -> X.Binop (op, over_cell col a, over_cell col b)
  | _ -> e

type use = Input of Kernels.kind | Key | Probe | Where

type derived = {
  d_index : int;  (** clause position of the binding *)
  d_binding : string;  (** the scan variable [$v] *)
  d_var : string;  (** the synthetic ['#cell:'] variable bound with [$v] *)
  d_step : string;  (** the projected column it is derived from *)
  d_expr : X.expr;  (** the cell expression over [$#cell] *)
  mutable d_uses : use list;  (** its consumers, newest first *)
}

type deriver = {
  dv_cols : (string * (int * string * string)) list;
      (* column variable -> (binding position, binding, step) *)
  mutable dv_cells : derived list;  (* newest first *)
}

let deriver projs =
  { dv_cols =
      List.concat_map
        (fun p ->
          List.map (fun (step, cv) -> (cv, (p.p_index, p.p_var, step))) p.p_cols)
        projs;
    dv_cells = [] }

let derive dv ~use (e : X.expr) : X.expr =
  let col =
    match cell_column e with
    | Some cv -> Option.map (fun b -> (cv, b)) (assoc_str cv dv.dv_cols)
    | None -> None
  in
  match col with
  | None -> e
  | Some (cv, (index, binding, step)) ->
    let expr = over_cell cv e in
    let d =
      match
        List.find_opt
          (fun d -> d.d_index = index && d.d_step = step && compare d.d_expr expr = 0)
          dv.dv_cells
      with
      | Some d -> d
      | None ->
        let k = List.length (List.filter (fun d -> d.d_index = index) dv.dv_cells) in
        let d =
          { d_index = index; d_binding = binding;
            d_var = cell_prefix ^ binding ^ "/" ^ string_of_int k;
            d_step = step; d_expr = expr; d_uses = [] }
        in
        dv.dv_cells <- d :: dv.dv_cells;
        d
    in
    if not (List.mem use d.d_uses) then d.d_uses <- use :: d.d_uses;
    X.Var d.d_var

let rec derive_cond dv (e : X.expr) : X.expr =
  match e with
  | X.Binop ((X.B_and | X.B_or) as op, a, b) ->
    X.Binop (op, derive_cond dv a, derive_cond dv b)
  | X.Binop ((X.B_general _ | X.B_value _) as op, a, b) ->
    X.Binop (op, derive dv ~use:Where a, derive dv ~use:Where b)
  | e -> derive dv ~use:Where e

let derive_keys dv (keys : (X.expr * string) list) =
  List.map (fun (k, kv) -> (derive dv ~use:Key k, kv)) keys

let derive_clause dv (c : X.clause) : X.clause =
  match c with
  | X.Where cond -> X.Where (derive_cond dv cond)
  | X.Hash_join h ->
    X.Hash_join
      { h with probe_key = derive dv ~use:Probe h.probe_key }
  | X.Group g -> X.Group { g with keys = derive_keys dv g.keys }
  | X.For _ | X.Let _ | X.Order_by _ -> c

let derive_specs dv specs =
  List.map (fun s -> { s with k_arg = derive dv ~use:(Input s.k_kind) s.k_arg }) specs

let derived dv = List.rev dv.dv_cells

let derived_label d =
  let uses = List.rev d.d_uses in
  let kinds =
    List.filter_map (function Input k -> Some (Kernels.name k) | _ -> None) uses
  in
  let other = function
    | Key -> Some ("key " ^ d.d_step)
    | Probe -> Some ("probe " ^ d.d_step)
    | Where -> Some ("where " ^ d.d_step)
    | Input _ -> None
  in
  String.concat " & "
    ((if kinds = [] then []
      else [ Printf.sprintf "%s(%s) input" (String.concat "/" kinds) d.d_step ])
    @ List.filter_map other uses)

let expr ?(node_fns = fun _ -> false) e =
  let acc =
    {
      externals = lazy (free_vars e);
      node_fns;
      pushed = 0;
      joins = 0;
      correlated = 0;
      fused = 0;
      loops = 0;
      hoists = 0;
      semis = 0;
      antis = 0;
      setops = 0;
      notes = [];
    }
  in
  let e = rewrite acc ~nested:false ~rep:false e in
  (* a closed subexpression worth hoisting holds a loop of its own or
     sits in one (a path over a let-bound RECORDSET: the set
     operations), so a plan the rewrite left no nested loop in has
     none *)
  let e = if acc.loops > 0 then hoist_closed acc e else e in
  let module T = Aqua_core.Telemetry in
  T.add T.c_pushdown_rewrites acc.pushed;
  T.add T.c_hash_join_rewrites acc.joins;
  ( e,
    {
      pushed_predicates = acc.pushed;
      hash_joins = acc.joins;
      correlated_probes = acc.correlated;
      shared_scans = 0;
      fusions = acc.fused;
      hoisted = acc.hoists;
      semi_joins = acc.semis;
      anti_joins = acc.antis;
      setop_probes = acc.setops;
      notes = List.rev acc.notes;
    } )

let query ?node_fns (q : X.query) =
  let body, report = expr ?node_fns q.X.body in
  ({ q with X.body }, report)

(* ------------------------------------------------------------------ *)
(* Scoping hazard check                                               *)

(* Returns [Some v] when some [where] clause references [$v] before the
   clause of the same FLWOR that binds it — the naive clause fold would
   silently filter every tuple out (or worse, resolve an outer
   shadowed binding).  [bound] seeds the statically-known outer
   bindings.  Purely syntactic; never evaluates anything. *)
let scoping_hazard ~bound e =
  let hazard = ref None in
  let note v = if !hazard = None then hazard := Some v in
  let rec walk bound (e : X.expr) =
    match e with
    | X.Literal _ | X.Var _ | X.Context_item | X.Text _ -> ()
    | X.Seq es -> List.iter (walk bound) es
    | X.Flwor f -> walk_flwor bound f
    | X.Path (base, steps) ->
      walk bound base;
      let bound = Vars.add "." bound in
      List.iter
        (fun (s : X.step) -> List.iter (walk bound) s.X.predicates)
        steps
    | X.Call (_, args) -> List.iter (walk bound) args
    | X.Elem { content; _ } -> List.iter (walk bound) content
    | X.If (c, t, e) ->
      walk bound c;
      walk bound t;
      walk bound e
    | X.Binop (_, a, b) ->
      walk bound a;
      walk bound b
    | X.Neg e -> walk bound e
    | X.Quantified { bindings; satisfies; _ } ->
      let bound =
        List.fold_left
          (fun bound (v, src) ->
            walk bound src;
            Vars.add v bound)
          bound bindings
      in
      walk bound satisfies
    | X.Filter (base, pred) ->
      walk bound base;
      walk (Vars.add "." bound) pred
  and walk_flwor bound (f : X.flwor) =
    let arr = Array.of_list f.X.clauses in
    let n = Array.length arr in
    let binds_at j = clause_binds arr.(j) in
    (* wheres: flag free vars bound only by later clauses *)
    Array.iteri
      (fun i clause ->
        match clause with
        | X.Where cond ->
          let bound_now =
            let rec go j b =
              if j >= i then b
              else
                go (j + 1)
                  (List.fold_left (fun b v -> Vars.add v b) b (binds_at j))
            in
            go 0 bound
          in
          Vars.iter
            (fun v ->
              if not (Vars.mem v bound_now) then
                let rec bound_later j =
                  j < n && (List.mem v (binds_at j) || bound_later (j + 1))
                in
                if bound_later (i + 1) then note v)
            (free_vars cond)
        | _ -> ())
      arr;
    (* recurse into subexpressions with a conservative bound set (every
       variable the FLWOR binds anywhere) — only the where check above
       is position-sensitive *)
    let all_bound =
      Array.fold_left
        (fun b c -> List.fold_left (fun b v -> Vars.add v b) b (clause_binds c))
        bound arr
    in
    Array.iter
      (fun clause ->
        match clause with
        | X.For { source; _ } -> walk all_bound source
        | X.Let { value; _ } -> walk all_bound value
        | X.Where cond -> walk all_bound cond
        | X.Group { keys; _ } -> List.iter (fun (k, _) -> walk all_bound k) keys
        | X.Order_by specs ->
          List.iter (fun (s : X.order_spec) -> walk all_bound s.X.key) specs
        | X.Hash_join { source; build_key; probe_key; _ } ->
          walk all_bound source;
          walk all_bound build_key;
          walk all_bound probe_key)
      arr;
    walk all_bound f.X.return
  in
  walk bound e;
  !hazard
