(** Logical optimizer over the XQuery AST.

    Runs before evaluation ([Eval]) or compilation ([Compile]) and
    rewrites FLWOR blocks: conjunctive [where] clauses are split and
    pushed to the earliest position where their free variables are
    bound, and [for]+[where] equality patterns are fused into the
    [Ast.Hash_join] physical operator (hash table on the build side
    keyed by [Atomic.hash_key], probed by the incoming tuple stream —
    O(n+m) instead of the O(n*m) nested loop).  Two patterns qualify:
    a [for] over a source independent of the earlier clause variables
    it joins with, and a correlated probe — a leading [for] of a
    nested FLWOR whose comparand reads a variable of an enclosing
    binder (not an external of the plan) and none of its own FLWOR's,
    when {!reusable_build} holds so the compiled engines build the
    table once and each invocation of the FLWOR is a single probe.

    A final scan-sharing pass hoists parameterless data-service calls
    that occur more than once in the plan (self-joins, uncorrelated
    subqueries) into a single [let]-bound materialization at the top,
    so the service is invoked once per plan instead of once per
    occurrence.

    The pass is purely structural and never evaluates expressions. *)

module Vars : Set.S with type elt = string

type report = {
  pushed_predicates : int;  (** conjuncts moved earlier in a pipeline *)
  hash_joins : int;         (** [For]+[Where] pairs fused into [Hash_join] *)
  correlated_probes : int;  (** of which correlated probes (leading [for]) *)
  shared_scans : int;       (** repeated scans hoisted into a shared [let] *)
  notes : string list;      (** human-readable one-liners *)
}

val empty_report : report

val reusable_build :
  var:string ->
  source:Aqua_xquery.Ast.expr ->
  build_key:Aqua_xquery.Ast.expr ->
  bool
(** Whether a [Hash_join]'s build table is a pure function of its
    materialized source sequence, so the compiled engines may reuse it
    across invocations: the source reads no variable other than a
    shared-scan binding ({!scan_var}) and the build key reads only
    [var].  The correlated-probe rewrite fires only when this holds. *)

val scan_var : string -> string
(** The hoisted binding name for a shared scan of the named function
    ('#'-prefixed, so it can never collide with parsed identifiers). *)

val expr :
  ?share_scans:bool ->
  ?vectorize:bool ->
  ?columnar:bool ->
  Aqua_xquery.Ast.expr ->
  Aqua_xquery.Ast.expr * report
(** Optimize an expression bottom-up.  [share_scans] (default [true])
    controls the scan-sharing hoist.  [vectorize] and [columnar]
    (default [true]) do not change the plan — execution strategy is
    chosen at compile time — but record the batch-pipeline shape
    (current {!Batch.size}, per-operator column materialization and
    kernel selection) in the report notes so EXPLAIN-style consumers
    describe how the plan will run. *)

val query :
  ?share_scans:bool ->
  ?vectorize:bool ->
  ?columnar:bool ->
  Aqua_xquery.Ast.query ->
  Aqua_xquery.Ast.query * report
(** Optimize a query body (prolog is untouched). *)

(** {1 Columnar-engine analyses}

    Used by {!Compile}'s columnar pipeline; exposed here because they
    are purely structural AST analyses. *)

type kernel_spec = {
  k_kind : Kernels.kind;
  k_step : string option;
      (** [None] = the whole partition; [Some name] = the child-step
          column [$partition/name] *)
  k_var : string;  (** the synthetic ['#agg:'] variable bound instead *)
}

val spec_label : kernel_spec -> string
(** e.g. ["count"] or ["sum(PAYMENT)"], for plans and analyze output. *)

val group_kernels :
  partition:string ->
  Aqua_xquery.Ast.clause list ->
  Aqua_xquery.Ast.expr ->
  (kernel_spec list * Aqua_xquery.Ast.clause list * Aqua_xquery.Ast.expr)
  option
(** [group_kernels ~partition rest return] rewrites every use of the
    partition variable in the post-group remainder into a read of a
    synthetic kernel variable, when — and only when — every use is one
    of the translator's aggregate shapes ([fn:count]/[fn:sum]/[fn:avg]/
    [fn:min]/[fn:max]/[fn:empty]/[fn:exists] over the partition or one
    child step of it, including the [if (fn:empty(c)) then () else
    fn:sum(c)] SQL NULL shape).  Returns the kernel inventory plus the
    rewritten remainder, or [None] when any other use (or a rebinding
    of the partition name) forces the materializing path. *)

val columnar_shape : Aqua_xquery.Ast.expr -> string list
(** EXPLAIN-style one-liners describing the columnar pipeline shape:
    columns carried vs pruned per expander/barrier and the kernels
    selected per group clause. *)

val free_vars : Aqua_xquery.Ast.expr -> Vars.t
(** Precise free variables of an expression, with the context item "."
    treated as a variable.  Unlike [Ast.free_vars] this respects
    binding structure (FLWOR clauses, quantifiers, predicates) and the
    BEA group-by scoping rule (pre-group bindings do not survive). *)

val scoping_hazard : bound:Vars.t -> Aqua_xquery.Ast.expr -> string option
(** [scoping_hazard ~bound e] is [Some v] when a [where] clause inside
    [e] references [$v] before the clause of the same FLWOR that binds
    it (the naive clause fold would silently filter every tuple out).
    [bound] seeds the statically-known outer bindings. *)
