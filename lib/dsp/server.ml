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
    ?(breaker = Breaker.default_config) ?(scan_cache = true) app =
  {
    app;
    optimize;
    retry;
    breakers = Breaker.registry ~config:breaker ();
    scan_cache = Scan_cache.create ~enabled:scan_cache app;
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

(* Query errors are answers: the interpreter would give the same one
   (and after running out of memory, only run out again).  They include
   the cast and type errors that code both engines share raises for a
   query's values, e.g. EXTRACT from a string that is not a date.
   Anything else is a fault of the compiled engine itself. *)
let engine_fault = function
  | Aqua_xqeval.Error.Dynamic_error _ | Aqua_xml.Atomic.Cast_error _
  | Aqua_relational.Value.Type_error _ | Sqlstate.Error _ | Budget.Exceeded _
  | Breaker.Open_circuit _ | Out_of_memory ->
    false
  | Failpoint.Injected { site; _ } -> String.starts_with ~prefix:"xqeval." site
  | _ -> true

(* Only an injected fault that is not an engine fault is transient: an
   engine fault must reach the statement's rerun on the interpreter
   untouched, not be retried on the engine that raised it. *)
let retry_classify e =
  match e with
  | Failpoint.Injected _ when not (engine_fault e) -> Retry.Transient
  | _ -> Retry.Fatal

(* A physical function's row elements for the table's rows after its
   first [since], with the version they bring it to: the version the
   statement's read view pinned. *)
let scan ?since table =
  let snap = Table.snapshot table in
  ( Table.snapshot_version snap,
    List.map Item.node (Table.flat_xml_since ?since table snap) )

(* The materialization toll, charged at serve time whether the rows
   were fetched or found resident: warm and cold runs of one query must
   see identical item-governor accounting (a cached logical serve still
   skips its nested serves' charges, exactly as it skips their work). *)
let charge seq =
  if Budget.active () then Budget.tick_items (List.length seq);
  seq

(* The engine evaluating a statement, and every logical body it calls:
   the compiled engine over the optimized plan, or the interpreter over
   the plan as written. *)
type engine = Compiled | Interpreter

(* [chain] is the invocation path, most recent call first; its length
   is the call depth. *)
let rec resolver t engine (imports : X.schema_import list) chain :
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
        | Some f -> Some (invoke t engine ds f chain)))

and invoke t engine (ds : Artifact.data_service) (f : Artifact.ds_function)
    chain : Eval.external_fn =
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
  let br = Breaker.get t.breakers label in
  (* One attempt at producing the function's result: the failpoint, the
     breaker and, at the root of the invocation chain only (retrying at
     every nesting level would multiply the attempts exponentially),
     the retry policy. *)
  let attempt produce =
    let run () =
      Failpoint.hit "dsp.invoke";
      produce ()
    in
    let guarded () = Breaker.call ~count_failure br run in
    match chain with
    | [ _ ] -> Retry.with_retry ~policy:t.retry ~classify:retry_classify guarded
    | _ -> guarded ()
  in
  let evaluate_body imports body =
    let bindings =
      List.mapi (fun i arg -> (Printf.sprintf "p%d" (i + 1), arg)) args
    in
    evaluate t engine imports chain ~bindings body
  in
  (* Parameterless calls are pure in the tables they read: serve them
     from the materialized scan cache.  A hit bypasses the failpoint /
     breaker / retry chain entirely; a miss, an extension included, runs
     it as a fresh call does.  A physical table is served once per
     statement, resident or not; later calls reuse that list.  Physical
     scans are engine-independent, so
     an interpreter rerun reuses those the faulted run materialized; a
     logical body's entries are keyed by the engine evaluating it, so
     the rerun never inherits rows the suspect compiled engine
     produced. *)
  match f.Artifact.body with
  | Artifact.Physical table when args <> [] ->
    attempt (fun () -> snd (scan table))
  | Artifact.Logical { imports; body } when args <> [] ->
    attempt (fun () -> evaluate_body imports body)
  | Artifact.Physical table ->
    let seq =
      Scan_cache.scan t.scan_cache table @@ fun () ->
      match Scan_cache.lookup t.scan_cache label with
      | Scan_cache.Hit seq -> seq
      | Scan_cache.Miss ->
        let version, seq = attempt (fun () -> scan table) in
        Scan_cache.store t.scan_cache label (Scan_cache.Scan (table, version)) seq;
        seq
      | Scan_cache.Stale { seq = prefix; version = since; bytes } ->
        (* the table only grew: build elements for the new rows alone,
           behind the stale scan's own items *)
        let version, fresh = attempt (fun () -> scan ~since table) in
        let seq = prefix @ fresh in
        Scan_cache.store
          ~bytes:(bytes + Scan_cache.sequence_bytes fresh)
          t.scan_cache label
          (Scan_cache.Scan (table, version))
          seq;
        seq
    in
    charge seq
  | Artifact.Logical { imports; body } ->
    let key =
      match engine with
      | Compiled -> label ^ "|opt"
      | Interpreter -> label ^ "|unopt"
    in
    let seq =
      match Scan_cache.lookup t.scan_cache key with
      | Scan_cache.Hit seq -> seq
      | Scan_cache.Stale _ | Scan_cache.Miss ->
        let seq, source =
          Scan_cache.collect (fun () ->
              attempt (fun () -> evaluate_body imports body))
        in
        Scan_cache.store t.scan_cache key source seq;
        seq
    in
    charge seq

(* A compile-time rejection (an unknown function or variable, a [where]
   before its binding) raises the dynamic error the interpreter raises
   for it, so both engines fail with one class. *)
and evaluate t engine imports chain ~bindings body =
  let resolve = resolver t engine imports chain in
  match engine with
  | Compiled -> (
    match
      Compile.compile_expr ~resolve ~node_fns:(physical_fns t.app imports)
        ~vars:(List.map fst bindings) body
    with
    | compiled -> Compile.run ~bindings compiled
    | exception Compile.Compile_error msg -> fail "%s" msg)
  | Interpreter ->
    Eval.eval
      (List.fold_left
         (fun ctx (name, seq) -> Eval.bind ctx name seq)
         (Eval.context ~resolve ()) bindings)
      body

let reruns = Atomic.make 0
let fallbacks () = Atomic.get reruns

(* Graceful degradation: [run Compiled], and on an engine fault anywhere
   in it (nested logical bodies included) rerun the whole statement
   once with [run Interpreter]. *)
let degrade run =
  try run Compiled
  with e when engine_fault e ->
    Atomic.incr reruns;
    let module T = Aqua_core.Telemetry in
    T.incr T.c_fallbacks_unoptimized;
    if T.enabled () then
      T.trace_event "fallback"
        [ ("reason", Printexc.to_string e); ("plan", "unoptimized") ];
    run Interpreter

(* A statement, its rerun included, reads one state of the data, and
   is served one list per physical table it scans. *)
let read_view t f = Artifact.read_view t.app (fun () -> Scan_cache.statement f)

(* The engine is chosen once per statement, from the server's flag. *)
let statement t run =
  read_view t @@ fun () ->
  if t.optimize then degrade run else run Interpreter

let execute ?(bindings = []) t (q : X.query) =
  statement t (fun engine ->
      evaluate t engine q.prolog.imports [] ~bindings q.body)

let execute_text ?bindings t src =
  execute ?bindings t (Aqua_xquery.Parser.parse_query src)

let execute_to_xml ?bindings t q =
  Aqua_xml.Serialize.sequence_to_string (execute ?bindings t q)

let text_of_sequence items =
  let text_of = function
    | Item.Atomic a -> Aqua_xml.Atomic.to_lexical a
    | Item.Node _ -> fail "text transport expected a string result, got a node"
  in
  match items with
  | [ item ] -> text_of item (* the wrapper's one string, as is *)
  | items ->
    let buf = Buffer.create 1024 in
    List.iter (fun item -> Buffer.add_string buf (text_of item)) items;
    Buffer.contents buf

let execute_to_text ?bindings t q = text_of_sequence (execute ?bindings t q)

type prepared = {
  srv : t;
  query : X.query;
  vars : string list;
  interpret : bool;  (* runs as [execute] does on a non-optimizing server *)
  plan : Compile.compiled option Atomic.t;  (* compiled on first use *)
}

(* A prepared plan's nested logical bodies run on the server's engine,
   as under [execute]. *)
let compile_plan p =
  let t = p.srv and imports = p.query.X.prolog.X.imports in
  let engine = if t.optimize then Compiled else Interpreter in
  Compile.compile ~optimize:t.optimize ~resolve:(resolver t engine imports [])
    ~node_fns:(physical_fns t.app imports) ~vars:p.vars p.query

let prepare ?(vars = []) t (q : X.query) =
  let p =
    { srv = t; query = q; vars; interpret = false; plan = Atomic.make None }
  in
  Atomic.set p.plan (Some (compile_plan p));
  p

let prepare_lazy ?(vars = []) t (q : X.query) =
  { srv = t; query = q; vars; interpret = not t.optimize;
    plan = Atomic.make None }

(* Two domains may both compile a fresh plan; either result serves. *)
let compiled p =
  match Atomic.get p.plan with
  | Some c -> c
  | None ->
    let c = compile_plan p in
    Atomic.set p.plan (Some c);
    c

let shape p = Compile.shape (compiled p)

(* An optimizing server's prepared plan degrades like [execute], a
   deferred compile included (its compile error is the dynamic error
   [execute] raises); on an [~optimize:false] server a [prepare]d plan
   is the compiled engine over the plan as written, run as is, and a
   [prepare_lazy] one runs on the interpreter, as [execute] would. *)
let execute_prepared ?(bindings = []) p =
  let interpret () =
    evaluate p.srv Interpreter p.query.X.prolog.X.imports [] ~bindings
      p.query.X.body
  in
  let compiled_run () =
    match compiled p with
    | c -> Compile.run ~bindings c
    | exception Compile.Compile_error msg -> fail "%s" msg
  in
  read_view p.srv @@ fun () ->
  if p.interpret then interpret ()
  else if not p.srv.optimize then compiled_run ()
  else
    degrade (function
      | Compiled -> compiled_run ()
      | Interpreter -> interpret ())

let call_function t ~path ~name ~fn args =
  match Artifact.find_service t.app ~path ~name with
  | None -> fail "no data service %s/%s" path name
  | Some ds -> (
    match Artifact.find_function ds fn with
    | None -> fail "data service %s/%s has no function %s" path name fn
    | Some f -> statement t (fun engine -> invoke t engine ds f [] args))
