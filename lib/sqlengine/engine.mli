(** A direct SQL-92 evaluator over the in-memory relational store.

    This is the reproduction's differential-testing oracle and the
    baseline for end-to-end benchmarks: every SQL statement the
    translator accepts must produce, through DSP, the same multiset of
    rows this engine produces directly (DESIGN.md section 3).

    It deliberately shares the translator's stage-two machinery
    (scopes, select-list expansion, output schemas) so both paths
    agree on names and types, while implementing textbook SQL
    semantics — three-valued logic, null-aware grouping and set
    operations — independently of the XQuery path. *)

type env

val env_of_application :
  ?optimize:bool -> Aqua_dsp.Artifact.application -> env
(** Tables are the application's physical data-service functions.
    Logical (XQuery-bodied) services are not visible to this engine.
    [optimize] (default [true]) enables the hash equi-join fast path
    for inner joins; [~optimize:false] keeps the pure nested-loop
    evaluation (outer joins and comma-style cross products always use
    the nested loop).  A table reference reads
    {!Aqua_relational.Table.rows}: the list the table keeps for the
    version the statement pinned.  Each statement reads one state of
    the data: it runs in the read view {!Aqua_dsp.Artifact.read_view}
    opens, as a DSP server statement does.  A subquery that reads no
    value of the query around it runs at most once per statement, on
    first use (not eagerly), and its rows serve every later use. *)

val execute : env -> Aqua_sql.Ast.statement -> Aqua_relational.Rowset.t
(** @raise Aqua_translator.Errors.Error on semantic errors (the same
    ones stage two reports).
    @raise Aqua_relational.Value.Type_error on runtime type errors. *)

val execute_with_params :
  env ->
  Aqua_sql.Ast.statement ->
  Aqua_relational.Value.t array ->
  Aqua_relational.Rowset.t
(** Like [execute] with bound ['?'] parameters (0-indexed array for
    1-based parameter numbers). *)

val execute_sql : env -> string -> Aqua_relational.Rowset.t
(** Parse then execute. *)
