(** A compiling evaluator: lowers an XQuery AST once into OCaml
    closures over slot-based environments, so repeated executions skip
    AST dispatch and name lookups — the counterpart of the DSP
    server's query compilation step (the interpreter {!Eval} is the
    reference semantics; the test suite checks both agree, and the
    engine shares its comparison and arithmetic helpers).

    FLWOR pipelines are lowered to a push-based columnar batch engine:
    clauses exchange fixed-capacity batches ({!Batch.size} rows) laid
    out as struct-of-arrays — one value vector per bound variable
    ({!Batch.columns}) under a selection vector — with required-column
    pruning (expanders and barriers copy only the columns the rest of
    the pipeline reads) and vectorized aggregation kernels (group-by
    clauses whose post-group reads are all translator aggregate shapes
    never materialize the partition; see {!Optimize.group_kernels} and
    {!Kernels}).  Single-step column accesses over physical scans read
    per-column vectors memoized with the scan
    ({!Optimize.scan_projections}); the memo is domain-local, keyed by
    the physical identity of the scan's sequence, and bounded by entry
    count and by {!projected_cells_max}.  The section-4 wrapper's
    [fn:string-join(F, "")] over delimiter-and-cell rows is lowered to
    a text writer that appends each row's escaped cells to one buffer
    per invocation (DESIGN.md section 16); the text is byte for byte
    the interpreter's.

    Variable scoping is resolved at compile time; referencing an
    undefined variable (including bindings dropped by the group-by
    clause) is a {!Compile_error}. *)

type compiled
(** A compiled query, executable any number of times. *)

exception Compile_error of string

type resolver = string -> Eval.external_fn option
(** External function resolver, as {!Eval.context} takes it (the DSP
    server passes the same closure to whichever engine it runs). *)

val compile :
  ?optimize:bool ->
  ?resolve:resolver ->
  ?node_fns:(string -> bool) ->
  ?vars:string list ->
  Aqua_xquery.Ast.query ->
  compiled
(** Resolves function names (built-ins first, then [resolve]) and
    variable slots now; dynamic errors remain dynamic.  [vars] names
    external bindings (e.g. prepared-statement parameters) supplied at
    run time.  With [optimize] (the default) the {!Optimize} pass runs
    before lowering, enabling predicate pushdown and hash equi-joins.
    [node_fns] names the external functions that return only nodes
    (default: none); the optimizer and the engine skip a dead [let]
    only when its value provably cannot raise, which a child step over
    such a function's rows cannot, and the engine projects scan
    columns only over such functions.
    @raise Compile_error on unknown functions or variables, and on a
    [where] clause referencing a variable bound only by a later clause
    of the same FLWOR. *)

val compile_expr :
  ?optimize:bool ->
  ?resolve:resolver ->
  ?node_fns:(string -> bool) ->
  ?vars:string list ->
  Aqua_xquery.Ast.expr ->
  compiled
(** Compiles a bare expression; [vars] names external bindings that
    must be supplied at run time (in the same order).  Each holds one
    value for the whole run, so the lowering treats it as it treats a
    literal: a [where] equality against it is a point lookup, and no
    pipeline carries it per row. *)

val run :
  ?bindings:(string * Aqua_xml.Item.sequence) list ->
  compiled ->
  Aqua_xml.Item.sequence
(** Executes. [bindings] supply the external variables declared via
    [vars] (prepared-statement parameters, lifted literals), fastest in
    the order of [vars].
    @raise Error.Dynamic_error on dynamic errors (casts, arity,
    unbound externals). *)

val shape : compiled -> string list
(** EXPLAIN-style notes: the batch layout, then per operator, in plan
    order, the lowering's own decisions — input columns carried and
    pruned (slot counts), columns written, scan columns projected, cells
    derived, kernels selected, lets skipped, text writers and their
    cells per row.  Compiling records them as
    data; only this formats them. *)

val projected_cells_max : int
(** Bound on the projected and derived column cells (rows times
    columns) the columnar engine's per-domain scan memo retains.  A
    source whose own columns exceed it is served but not retained. *)
