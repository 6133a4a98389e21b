(** Logical optimizer over the XQuery AST.

    Runs before compilation ([Compile]; the interpreter [Eval] runs
    whatever plan it is given) and applies three rewrites to FLWOR
    blocks, bottom-up in one traversal:

    - Constructor fusion, first at each FLWOR.  The translator's
      [let $t := <RECORDSET>{B}</RECORDSET> for $v in $t/RECORD]
      (derived tables, GROUP BY, ORDER BY over finished records, the
      section 4 wrapper) is unnested into B's clauses plus
      [let $v := <RECORD>..</RECORD>]; reads of [$v/C] become the
      matching field, [fn:data] of it an exact content atomization
      ({!Functions.content_data}); a record nothing reads any more is
      not built; and {!group_kernels} reads each kernel's column
      through the constructor.  Every step is exact, so the
      interpreter over the unoptimized plan stays the oracle.
    - Predicate pushdown: conjunctive [where] clauses are split and
      pushed to the earliest position where their free variables are
      bound.
    - Hash equi-joins: [for]+[where] equality patterns are fused into
      the [Ast.Hash_join] physical operator (hash table on the build
      side keyed by [Atomic.hash_key], probed by the incoming tuple
      stream — O(n+m) instead of the O(n*m) nested loop).  Two patterns
      qualify: a [for] over a source independent of the earlier clause
      variables it joins with, and a correlated probe — a leading
      [for] of a nested FLWOR whose comparand reads a variable of an
      enclosing binder (not an external of the plan) and none of its
      own FLWOR's, when {!reusable_build} holds so the compiled engines
      build the table once and each invocation of the FLWOR is a single
      probe.

    After those, one more walk hoists closed subexpressions: each
    maximal subexpression that reads no variable but the plan's
    externals and variables let-bound to closed values, does work (a
    FLWOR, a quantifier, a path over a variable or a data-service call,
    but not a bare scan) and sits where it may run more than once per run is wrapped in
    [aqua:hoisted(E)] ({!Functions.hoisted_name}), whose value is [E]'s.
    The compiled engine evaluates it where it stands, on first demand,
    at most once per run, and memoizes the value or the error in the
    run's own slots; over the hoisted value it lowers the shapes
    {!semi_join}, {!quantified_probe} and {!setop_probe} recognize to
    hash probes built once per run.

    A parameterless data-service call that occurs more than once in the
    plan (a self-join, an uncorrelated subquery) stays in place: the DSP
    server pins one read view per statement, so every occurrence returns
    the same rows, and serves the repeats from its scan cache.

    The pass is purely structural and never evaluates expressions. *)

module Vars : Set.S with type elt = string

type report = {
  pushed_predicates : int;  (** conjuncts moved earlier in a pipeline *)
  hash_joins : int;         (** [For]+[Where] pairs fused into [Hash_join] *)
  correlated_probes : int;  (** of which correlated probes (leading [for]) *)
  shared_scans : int;
      (** always 0: kept only because perfbench/perfbench.ml reads it;
          the benchmark's next change (ROADMAP item 2) deletes it *)
  fusions : int;
      (** constructor fusions: RECORDSETs unnested, lets read through
          their constructor, [return $w] inlined *)
  hoisted : int;  (** closed subexpressions wrapped in [aqua:hoisted] *)
  semi_joins : int;
      (** [L = H] and [some $w in H satisfies L = $w/C] over a hoisted
          [H] ({!semi_join}, {!quantified_probe}) *)
  anti_joins : int;
      (** [every $w in H satisfies L != $w/C] over a hoisted [H] *)
  setop_probes : int;  (** set operations' matches FLWORs ({!setop_probe}) *)
  notes : string list;      (** human-readable one-liners *)
}

val report_line : report -> string
(** The counts as the one line [explain] and [analyze] print:
    ["optimizer: N predicate(s) pushed down, …"]. *)

val reusable_build :
  var:string ->
  source:Aqua_xquery.Ast.expr ->
  build_key:Aqua_xquery.Ast.expr ->
  bool
(** Whether a [Hash_join]'s build table is a pure function of its
    materialized source sequence, so the compiled engines may reuse it
    across invocations: the source reads no variable and the build key
    reads only [var].  The correlated-probe rewrite fires only when this
    holds. *)

val expr :
  ?node_fns:(string -> bool) ->
  Aqua_xquery.Ast.expr ->
  Aqua_xquery.Ast.expr * report
(** Optimize an expression bottom-up.  The report notes record what
    fired; what the compiled engine then decides per operator is
    {!Compile.shape}.  [node_fns] names the
    external functions known to return only nodes (the DSP server
    passes its physical data-service scans; default: none): a record
    [let] constructor fusion leaves unread is dropped only when
    building it cannot raise, and a child step over an arbitrary
    function's result can. *)

val query :
  ?node_fns:(string -> bool) ->
  Aqua_xquery.Ast.query ->
  Aqua_xquery.Ast.query * report
(** Optimize a query body (prolog is untouched). *)

(** {1 Probes over hoisted values}

    The shapes stage three emits for uncorrelated subqueries and set
    operations, recognized on the optimized plan.  The optimizer counts
    them; {!Compile} lowers them. *)

val summary : Aqua_xquery.Ast.expr -> string
(** The expression on one line, cut at 60 characters, for notes. *)

type semi_join = {
  sj_probe : Aqua_xquery.Ast.expr;  (** the comparand evaluated per tuple *)
  sj_set : Aqua_xquery.Ast.expr;  (** the hoisted sequence *)
  sj_set_right : bool;  (** the hoisted operand is the right one *)
}

val semi_join : Aqua_xquery.Ast.expr -> semi_join option
(** [L = H] or [H = L] (general comparison), [H] hoisted and [L] not:
    an uncorrelated [IN]. *)

type quantified_probe = {
  qp_every : bool;  (** [every .. satisfies L != $w/C]: the anti-join *)
  qp_var : string;
  qp_set : Aqua_xquery.Ast.expr;  (** the hoisted binding sequence *)
  qp_probe : Aqua_xquery.Ast.expr;  (** [L], which does not read [qp_var] *)
  qp_step : string;  (** [C] *)
  qp_probe_left : bool;  (** [L] is the left operand *)
}

val quantified_probe : Aqua_xquery.Ast.expr -> quantified_probe option
(** [some $w in H satisfies L = $w/C] (an uncorrelated [= ANY]) or
    [every $w in H satisfies L != $w/C] (an uncorrelated [NOT IN]), either
    operand order, [H] hoisted. *)

type setop_probe = {
  sp_var : string;
  sp_source : Aqua_xquery.Ast.expr;  (** the hoisted right-hand records *)
  sp_keys : (string * string) list;
      (** per column: the key variable [K] and the step [C] *)
}

val setop_probe : Aqua_xquery.Ast.flwor -> setop_probe option
(** [for $r in H where (K1 = $r/C1 or fn:empty(K1) and fn:empty($r/C1))
    and ... return R], [H] hoisted: the matches FLWOR [INTERSECT],
    [EXCEPT] and their [ALL] forms run per left-hand group. *)

(** {1 Columnar-engine analyses}

    Used by {!Compile}'s columnar pipeline; exposed here because they
    are purely structural AST analyses. *)

type kernel_spec = {
  k_kind : Kernels.kind;
  k_step : string option;
      (** [None] = the whole partition; [Some name] = the child-step
          column [$partition/name] *)
  k_var : string;  (** the synthetic ['#agg:'] variable bound instead *)
  k_arg : Aqua_xquery.Ast.expr;
      (** the kernel's per-tuple input, evaluated before the group:
          [$grouped] or [$grouped/name], or — when the grouped variable
          is let-bound to a record constructor — the field read through
          that constructor (constructor fusion F3) *)
}

val spec_label : kernel_spec -> string
(** e.g. ["count"] or ["sum(PAYMENT)"], for plans and analyze output. *)

val group_kernels :
  ?record:Aqua_xquery.Ast.expr ->
  grouped:string ->
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
    of the partition name) forces the materializing path.  [record] is
    the direct constructor [grouped] is let-bound to (see
    {!record_binding}); each kernel's [k_arg] then reads its column
    through the constructor, so nothing needs the built record. *)

val record_binding :
  Aqua_xquery.Ast.clause list ->
  string ->
  (Aqua_xquery.Ast.expr * Aqua_xquery.Ast.clause list) option
(** [record_binding before var]: the direct record constructor [var] is
    let-bound to within [before] (the clauses preceding a use, in
    order) — fields all (optionally [fn:empty]-guarded) element
    constructors — together with the clauses after that let; [None]
    when a later clause rebinds [var] or a free variable of the
    constructor, or a group clause ends its scope. *)

val cannot_fail :
  nodes:Vars.t -> Aqua_xquery.Ast.expr -> bool
(** Whether evaluating the expression can raise no dynamic error, given
    that the variables in [nodes] hold only nodes: literals, variable
    reads, constructors, unpredicated child steps over nodes,
    atomization, [fn:empty]/[fn:exists]/[fn:count] and
    [if (fn:empty(..))] over such.  A dead [let] with such a value may
    be skipped without changing any result or error. *)

val nodes_after :
  node_fns:(string -> bool) ->
  entry:Vars.t ->
  Vars.t ->
  Aqua_xquery.Ast.clause ->
  Vars.t
(** [nodes_after ~node_fns ~entry nodes clause]: the variables known to
    hold only nodes after [clause], given those before it ([nodes]) and
    at the FLWOR's entry ([entry], which a group clause restores).  A
    [for] over a call of a function in [node_fns] or a node-valued
    path, and a [let] of a constructor, bind
    node-valued variables. *)

val assoc_str : string -> (string * 'a) list -> 'a option
(** [List.assoc_opt] on string keys by [String.equal]. *)

type projection = {
  p_index : int;  (** clause position of the binding for or hash join *)
  p_var : string;
  p_cols : (string * string) list;
      (** (step name, column variable), in first-read order *)
}

val scan_projections :
  node_fns:(string -> bool) ->
  consts:Vars.t ->
  Aqua_xquery.Ast.clause list ->
  Aqua_xquery.Ast.expr ->
  projection list * Aqua_xquery.Ast.clause list * Aqua_xquery.Ast.expr
(** Scan column projection for one FLWOR's clauses and return.  A [for]
    or hash join over a call of a function in [node_fns] binds a
    variable holding flat row elements; every
    single-step, unpredicated read [$v/NAME] ([NAME] not ["*"]) in its
    scope, up to and including the first point lookup of its FLWOR (a
    [where] with an equality against a constant: an expression reading
    no variable but those in [consts], the plan's externals), becomes a
    read of a
    ['#col:']-prefixed column variable, which
    the columnar engine binds with [$v] from per-column vectors
    memoized with the scan.  A binding is left alone when its name is
    rebound anywhere in its scope (a later clause, a nested FLWOR, a
    quantifier) or read past a group of its FLWOR.  Multi-step paths,
    predicated steps, [$v/*] and reads past the point lookup keep
    reading [$v].  Returns the
    projections with the rewritten clauses and return; the physical
    inputs when nothing is projected. *)

(** {1 Derived cell columns}

    A {e cell expression} reads exactly one projected column variable
    and is built only from [fn:data], [aqua:content-data],
    [fn:empty]/[fn:exists], [fn:true]/[fn:false], xs: casts,
    conditionals, sequences, literals and comparisons: a pure function
    of one immutable cell.  The columnar engine evaluates each one once
    per scan row and memoizes the results beside the projected column
    (DESIGN.md section 16). *)

val cell_var : string
(** ["#cell"]: the variable a memoized cell expression is written over. *)

val row_var : string -> string
(** [row_var v]: the synthetic variable carrying, for a binding [$v]
    with derived cells, each tuple's row position in the scan. *)

(** What reads a derived cell: a kernel's input, a group key, a hash
    join's probe key or a [where] operand. *)
type use = Input of Kernels.kind | Key | Probe | Where

type derived = {
  d_index : int;  (** clause position of the binding *)
  d_binding : string;  (** the scan variable *)
  d_var : string;  (** the synthetic ['#cell:'] variable bound with it *)
  d_step : string;  (** the projected column it is derived from *)
  d_expr : Aqua_xquery.Ast.expr;  (** the cell expression over {!cell_var} *)
  mutable d_uses : use list;  (** its consumers, newest first *)
}

type deriver
(** The derived cells found so far for one FLWOR's projections. *)

val deriver : projection list -> deriver

val derive :
  deriver -> use:use -> Aqua_xquery.Ast.expr -> Aqua_xquery.Ast.expr
(** [derive dv ~use e]: when [e] is a cell expression over a column of
    [dv]'s projections (not a bare column read), a read of its derived
    cell variable, recorded as read by [use]; otherwise [e]. *)

val derive_clause : deriver -> Aqua_xquery.Ast.clause -> Aqua_xquery.Ast.clause
(** Derives a [where]'s comparison operands (through [and]/[or]), a hash
    join's probe key and a group's keys ({!derive_keys}). *)

val derive_keys :
  deriver -> (Aqua_xquery.Ast.expr * string) list ->
  (Aqua_xquery.Ast.expr * string) list
(** Derives each group key. *)

val derive_specs : deriver -> kernel_spec list -> kernel_spec list
(** Derives each kernel input. *)

val derived : deriver -> derived list
(** The derived cells, in first-use order. *)

val derived_label : derived -> string
(** Its consumers, e.g. ["sum?/avg(PRIORITY) input"] or
    ["probe CUSTOMERID & key CUSTOMERID"]. *)

val free_vars : Aqua_xquery.Ast.expr -> Vars.t
(** Precise free variables of an expression, with the context item "."
    treated as a variable.  It respects binding structure (FLWOR
    clauses, quantifiers, predicates) and the BEA group-by scoping rule
    (pre-group bindings do not survive). *)

val free_vars_all : Aqua_xquery.Ast.expr list -> Vars.t
(** The union of {!free_vars} over a list. *)

val clause_reads : Aqua_xquery.Ast.clause -> Vars.t
(** The variables a clause reads from its incoming tuple: a [for] or
    [let] source, a condition, order keys, a group's keys and grouped
    variable, a hash join's source, probe key and build key (less the
    join variable). *)

val scoping_hazard : bound:Vars.t -> Aqua_xquery.Ast.expr -> string option
(** [scoping_hazard ~bound e] is [Some v] when a [where] clause inside
    [e] references [$v] before the clause of the same FLWOR that binds
    it (the naive clause fold would silently filter every tuple out).
    [bound] seeds the statically-known outer bindings. *)
