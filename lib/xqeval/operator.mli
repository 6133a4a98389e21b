(** The compiled FLWOR engine's operator interface and the code every
    operator shares.

    Each clause becomes a push-based operator over {!Batch.columns}
    batches (one value vector per bound slot plus a selection vector);
    per-clause setup (slot resolution, key compilation, clause
    counters) is done once by the lowering ({!Compile}), outside the
    inner loop.  A [where] compacts the selection vector in place;
    expanders ({!Expand}: [for], hash join) and barriers ({!Order},
    {!Group}) append into a pooled output batch sent downstream
    ({!emit}) at {!Batch.size} rows, carrying only the columns the rest
    of the pipeline still reads.

    Per-row expression evaluation reuses the scalar closures ({!comp}):
    each operator gathers its own free-variable columns into the shared
    per-invocation scratch row ({!gather}) before evaluating.  The
    scratch is private to the invocation (never the caller's row), so
    outer slots are never clobbered, and nested FLWORs and quantifiers
    write their own fresh slots before reading them; nothing reads it
    across a downstream emission.

    Resilience: [Budget.steps] is charged per batch receipt at every
    operator plus per produced row at expanders, so fuel accounting
    stays within a constant factor of the interpreter's and deadlines
    cancel between batches; "xqeval.batch" ({!cnote_batch}) fires at
    every batch creation. *)

type rt = Aqua_xml.Item.sequence array
(** Runtime environment: one slot per statically resolved variable. *)

type comp = rt -> Aqua_xml.Item.sequence
(** A compiled expression. *)

(** What the lowering decided for one operator, kept as data and
    formatted only by {!note_lines}.  Counts are the engine's slot
    counts: [inputs] the columns valid in the batch the operator
    receives (computed on demand), [carried] those it copies into its
    output. *)
type note =
  | N_expander of {
      label : string;  (** "for $v" or "hash-join $v" *)
      var : string;
      inputs : int Lazy.t;
      carried : int;
      var_written : bool;
      steps : string list;  (** the projected scan columns bound *)
      written : string list;  (** of those, the ones written *)
      cells : (Optimize.derived * bool) list;  (** derived; value written *)
      row_written : bool;  (** the scan row position *)
      probe_id : Optimize.derived option;  (** a hash join probing by value id *)
    }
  | N_group of {
      label : string;
      kernels : Optimize.kernel_spec list option;  (** [None]: materialized *)
      inputs : int Lazy.t;
      carried : int;
      keys : int;
      key_id : Optimize.derived option;  (** the single key read by value id *)
    }
  | N_order of { inputs : int Lazy.t; retained : int }
  | N_skipped of string * Aqua_xquery.Ast.expr  (** a let nothing reads, not built *)
  | N_text of int  (** a text-writer sink and its cells per row *)
  | N_hoisted of int * Aqua_xquery.Ast.expr
      (** a hoisted value's run slot, its expression *)
  | N_probe of string  (** a probe over a hoisted value, described *)

val note_lines : note -> string list
(** The note as [Compile.shape] prints it, one [columnar: …] line
    each. *)

type csink = {
  cpush : Batch.columns -> unit;
  cflush : unit -> unit;
      (** drains barrier state (sort and group buffers, partial output
          batches) at end of stream *)
}
(** One operator of an invocation's chain, pushing into the next. *)

type cctx = {
  ccap : int;  (** batch capacity *)
  calloc : unit -> Batch.columns;  (** a pooled batch for this invocation *)
  cinstr : bool;  (** telemetry on: clause counters count *)
  cnslots : int;  (** the plan's slot count *)
  cscratch : rt;  (** the shared scratch row *)
  cdcols : Src_memo.dcol array;
      (** this invocation's derived cell columns, by the FLWOR's cell
          index: an expander publishes them for the kernels and group
          keys downstream *)
}
(** Per-invocation context. *)

type t = {
  label : string;  (** the clause counter's name *)
  note : note option;  (** for [Compile.shape] *)
  mk : cctx -> csink -> csink;
      (** one invocation's operator, pushing into the given sink *)
}
(** An operator as the lowering produces it. *)

val cnote_batch : int -> unit
(** Batch emission bookkeeping, bumped where a batch is created: the
    "xqeval.batch" failpoint and the batch and columnar traffic
    counters. *)

val emit : csink -> int -> Batch.columns -> unit
(** [emit down pruned out] sends a non-empty output batch downstream,
    counting [pruned] column copies saved per row, and empties it. *)

val gather : int array -> rt -> Batch.columns -> int -> unit
(** [gather slots scratch b idx] loads row [idx]'s columns [slots] into
    the scratch row. *)

val ccounter : cctx -> string -> int -> unit
(** The clause counter of a label, a no-op with telemetry off. *)

val run :
  t list ->
  slots:int ->
  cells:int ->
  consts:(string * int) list ->
  entry:int array ->
  ret:int array ->
  rt ->
  (rt -> unit) ->
  unit
(** One invocation of a pipeline over the outer row: a context of
    [slots] slots and [cells] derived columns whose scratch row holds
    the plan's externals [consts], one feed batch of the [entry]
    columns pushed through the chain, and [row scratch] called per
    result tuple with the [ret] columns gathered.  Batch buffers come
    from a bounded, domain-local pool and return to it on normal
    completion; a failed invocation drops them to the GC. *)
