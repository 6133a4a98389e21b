module Item = Aqua_xml.Item
module Table = Aqua_relational.Table
module X = Aqua_xquery.Ast
module Eval = Aqua_xqeval.Eval
module Compile = Aqua_xqeval.Compile
module Budget = Aqua_resilience.Budget
module Breaker = Aqua_resilience.Breaker
module Retry = Aqua_resilience.Retry
module Failpoint = Aqua_resilience.Failpoint
module Sqlstate = Aqua_resilience.Sqlstate

let fail = Aqua_xqeval.Error.fail

type t = {
  app : Artifact.application;
  optimize : bool;
  retry : Retry.policy;
  breakers : Breaker.registry;
  scan_cache : Scan_cache.t;
}

let create ?(optimize = true) ?(retry = Retry.default_policy)
    ?(breaker = Breaker.default_config) ?(scan_cache = true) ?cache app =
  let cache =
    match cache with
    | Some c -> c
    | None -> Scan_cache.create ~enabled:scan_cache app
  in
  {
    app;
    optimize;
    retry;
    breakers = Breaker.registry ~config:breaker ();
    scan_cache = cache;
  }

let application t = t.app
let breakers t = Breaker.all t.breakers
let scan_cache t = t.scan_cache

(* Recursion guard: logical services may call each other; a cycle in
   .ds definitions must not hang the server. *)
let max_call_depth = 64

let split_qname name =
  match String.index_opt name ':' with
  | Some i ->
    ( String.sub name 0 i,
      String.sub name (i + 1) (String.length name - i - 1) )
  | None -> ("", name)

let physical_fns app (imports : X.schema_import list) qname =
  let prefix, local = split_qname qname in
  match
    List.find_opt (fun (i : X.schema_import) -> i.X.prefix = prefix) imports
  with
  | None -> false
  | Some i -> (
    match Artifact.find_service_by_namespace app i.X.namespace with
    | None -> false
    | Some ds -> (
      match Artifact.find_function ds local with
      | Some { Artifact.body = Artifact.Physical _; _ } -> true
      | _ -> false))

(* Exceptions that say nothing about the invoked function's health:
   budget cancellations, structural errors already carrying a SQLSTATE,
   and rejections from breakers further down the chain. *)
let count_failure = function
  | Budget.Exceeded _ | Sqlstate.Error _ | Breaker.Open_circuit _ -> false
  | _ -> true

(* [chain] is the invocation path, most recent call first; its length
   is the call depth. *)
let rec resolver t (imports : X.schema_import list) chain :
    string -> Eval.external_fn option =
  let by_prefix = List.map (fun (i : X.schema_import) -> (i.prefix, i.namespace)) imports in
  fun qname ->
    let prefix, local = split_qname qname in
    match List.assoc_opt prefix by_prefix with
    | None -> None
    | Some namespace -> (
      match Artifact.find_service_by_namespace t.app namespace with
      | None -> fail "no data service for namespace %s" namespace
      | Some ds -> (
        match Artifact.find_function ds local with
        | None ->
          fail "data service %s has no function %s" namespace local
        | Some f -> Some (invoke t ds f chain)))

and invoke t (ds : Artifact.data_service) (f : Artifact.ds_function) chain :
    Eval.external_fn =
  fun args ->
  Aqua_core.Telemetry.with_span ("dsp.call." ^ f.Artifact.fn_name) @@ fun () ->
  let label = Artifact.sql_schema_of_service ds ^ ":" ^ f.Artifact.fn_name in
  let chain = label :: chain in
  if List.length chain > max_call_depth then
    Sqlstate.error ~sqlstate:Sqlstate.statement_too_complex
      ~condition:"call depth exceeded"
      "data service call depth %d exceeded (cycle in logical services?); \
       call chain: %s"
      max_call_depth
      (String.concat " -> " (List.rev chain));
  if List.length args <> List.length f.Artifact.params then
    fail "function %s expects %d argument(s), got %d" f.Artifact.fn_name
      (List.length f.Artifact.params)
      (List.length args);
  let run () =
    Failpoint.hit "dsp.invoke";
    match f.Artifact.body with
    | Artifact.Physical table -> List.map Item.node (Table.to_flat_xml table)
    | Artifact.Logical { imports; body } ->
      let bindings =
        List.mapi (fun i arg -> (Printf.sprintf "p%d" (i + 1), arg)) args
      in
      evaluate t imports chain ~bindings body
  in
  let br = Breaker.get t.breakers label in
  let guarded () = Breaker.call ~count_failure br run in
  (* Retry only at the root of the invocation chain: retrying at every
     nesting level would multiply the attempts exponentially. *)
  let serve () =
    match chain with
    | [ _ ] -> Retry.with_retry ~policy:t.retry guarded
    | _ -> guarded ()
  in
  (* Parameterless calls are pure in the data revision: serve them
     from the materialized scan cache.  A hit bypasses the failpoint /
     breaker / retry chain entirely — in particular a fallback rerun
     after an optimized-plan crash reuses the scans the crashed run
     already materialized.

     Physical scans are evaluator-independent, so the optimized and
     fallback servers sharing one cache also share those entries.  A
     logical body, however, is *evaluated* (by whichever pipeline
     [t.optimize] selects), so its entries carry the flag in the key:
     the graceful-degradation rerun must recompute logical scans
     rather than inherit results the suspect optimized evaluator
     produced. *)
  if args = [] then begin
    let key =
      match f.Artifact.body with
      | Artifact.Physical _ -> label
      | Artifact.Logical _ ->
        (* the evaluator: an interpreter server sharing the cache must
           not inherit rows the compiled engine produced, or a
           differential run would compare an engine against its own
           cached output *)
        label ^ if t.optimize then "|opt" else "|unopt"
    in
    let seq =
      match Scan_cache.find t.scan_cache key with
      | Some seq -> seq
      | None ->
        let seq = serve () in
        Scan_cache.store t.scan_cache key seq;
        seq
    in
    (* The materialization toll, charged at serve time whether the
       rows were fetched or found resident: warm and cold runs of one
       query must see identical item-governor accounting (a cached
       logical serve still skips its nested serves' charges, exactly
       as it skips their work). *)
    if Budget.active () then Budget.tick_items (List.length seq);
    seq
  end
  else serve ()

(* The engine is chosen once, from the server's flag: the compiled
   engine over the optimized plan, or the interpreter over the plan as
   written.  A compile-time rejection (an unknown function or variable,
   a [where] before its binding) raises the dynamic error the
   interpreter raises for it, so both flavors fail with one class. *)
and evaluate t imports chain ~bindings body =
  let resolve = resolver t imports chain in
  if t.optimize then
    match
      Compile.compile_expr ~scan_cache:(Scan_cache.enabled t.scan_cache)
        ~resolve ~node_fns:(physical_fns t.app imports)
        ~vars:(List.map fst bindings) body
    with
    | compiled -> Compile.run ~bindings compiled
    | exception Compile.Compile_error msg -> fail "%s" msg
  else
    Eval.eval
      (List.fold_left
         (fun ctx (name, seq) -> Eval.bind ctx name seq)
         (Eval.context ~resolve ()) bindings)
      body

let execute ?(bindings = []) t (q : X.query) =
  evaluate t q.prolog.imports [] ~bindings q.body

let execute_text ?bindings t src =
  execute ?bindings t (Aqua_xquery.Parser.parse_query src)

let execute_to_xml ?bindings t q =
  Aqua_xml.Serialize.sequence_to_string (execute ?bindings t q)

let execute_to_text ?bindings t q =
  let buf = Buffer.create 1024 in
  List.iter
    (fun item ->
      match item with
      | Item.Atomic a -> Buffer.add_string buf (Aqua_xml.Atomic.to_lexical a)
      | Item.Node _ ->
        fail "text transport expected a string result, got a node")
    (execute ?bindings t q);
  Buffer.contents buf

type prepared = Compile.compiled

let prepare ?(vars = []) t (q : X.query) =
  Compile.compile ~optimize:t.optimize
    ~scan_cache:(Scan_cache.enabled t.scan_cache)
    ~resolve:(resolver t q.X.prolog.X.imports [])
    ~node_fns:(physical_fns t.app q.X.prolog.X.imports)
    ~vars q

let execute_prepared ?bindings prepared = Compile.run ?bindings prepared

let call_function t ~path ~name ~fn args =
  match Artifact.find_service t.app ~path ~name with
  | None -> fail "no data service %s/%s" path name
  | Some ds -> (
    match Artifact.find_function ds fn with
    | None -> fail "data service %s/%s has no function %s" path name fn
    | Some f -> invoke t ds f [] args)
