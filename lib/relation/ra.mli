(** Relational algebra: logical plans of scans, filters, projections,
    hash equi-joins and aggregates, evaluated over column-major batches.

    This evaluator is the system's "recompute from scratch" path.  The
    IVM layer plans every from-scratch evaluation of a view through it
    ([Ivm.Viewdef.joined_plan]: filters pushed onto scans, scans projected
    to the columns read above them, hash joins built on the smaller side)
    and consumes the batches directly: [Ivm.Maintainer.create] and the
    delta-view rebuilds fold them into maintained content, and
    [check_consistent] aggregates them here as the independent reference.
    It also serves ad-hoc queries in the examples, and — because all
    access paths are metered — it is what calibration measures.

    The primary interface is {!cursor}: a chunked pull API yielding
    {!Batch.t}s.  Scans, filters and projections stream (filters run as
    vectorized kernels over unboxed columns where {!Expr.filter_batch}
    can, projections are zero-copy column subsets); joins build on their
    right input and probe with the left on unboxed key columns (an
    allocation-free {!Ihash} when the single key is an int pair);
    aggregates fold their input batch by batch, boxing only group keys and
    argument values.  {!eval} drains the cursor into a tuple list.
    {!eval_boxed} is the retained row-at-a-time evaluator, the semantic
    reference for the equivalence property suite (same rows in the same
    order, aggregates bit-identical).  Both paths bump identical
    row-equivalent meter totals (the batch path additionally ticks the
    batch-granularity counter), so calibrated cost functions are
    path-independent. *)

type t

val scan : ?alias:string -> Table.t -> t
(** Leaf node.  Output columns are qualified as ["alias.col"]; [alias]
    defaults to the table name. *)

val select : Expr.t -> t -> t
val project : string list -> t -> t

val equijoin : on:(string * string) list -> t -> t -> t
(** [equijoin ~on:\[(l, r); ...\] left right]: bag equi-join with the listed
    (left column, right column) equality pairs, evaluated as a hash join
    that builds on [right] and probes with [left].  NULL keys join NULL
    keys ([Value.equal Null Null]).  The incremental path never comes
    here: its indexed-versus-scanned delta expansion is
    [Ivm.Deltajoin]. *)

val aggregate : group_by:string list -> Agg.spec list -> t -> t
(** Grouped aggregation.  With [group_by = \[\]] the output is a single row
    (even over empty input, SQL-style). *)

val schema_of : t -> Schema.t
(** Output schema (computed without evaluating). *)

type cursor = unit -> Batch.t option
(** Pull one batch of output; [None] when exhausted. *)

val cursor : t -> cursor
(** Chunked evaluation.  Scans, selections and projections stream batch by
    batch; joins and aggregates compute their output on first
    pull (as the boxed evaluator materialized its intermediate lists;
    an aggregate folds its input batches without materializing them).
    Table access is metered on the underlying tables' meters with the same
    row-equivalent totals as {!eval_boxed}. *)

val iter_batches : t -> (Batch.t -> unit) -> unit
(** Drain {!cursor}, handing each batch to the consumer in order. *)

val eval : t -> Tuple.t list
(** Materialize the plan's output bag — a row-compat shim draining
    {!cursor} and boxing each selected row. *)

val eval_boxed : t -> Tuple.t list
(** The row-at-a-time reference evaluator (pre-columnar engine).  Same
    results and same per-row meter totals as {!eval}; kept for equivalence
    testing. *)

val explain : t -> string
(** One-line-per-node textual plan for debugging and examples. *)
