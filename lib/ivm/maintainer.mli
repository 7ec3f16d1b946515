(** Batch-incremental view maintenance engine.

    The base tables physically hold the *processed* database state; arrived
    but unprocessed modifications sit in per-table FIFO delta queues.  This
    realizes the paper's deferred-maintenance semantics without the state
    bug: a delta batch from table [i] always joins against exactly the
    states of the other tables that the view currently reflects.

    Processing a batch of [k] modifications from table [i]:

    + removes the earliest [k] modifications from queue [i],
    + computes their signed delta-join contributions against the other
      tables ({!Deltajoin}) on the batch's path: [`Index] probes each
      partner indexed on the join column once per partial result,
      [`Scan] runs one shared scan of every partner against a hash built
      over the partials (this is where the paper's cost asymmetry comes
      from).  The path comes from the batch's queue alone: the view's
      declared path for an unrouted table ({!Viewdef.path}), the lane's
      path on a routed maintainer ({!route}),
    + folds the contributions into the materialized content (a counted bag
      for SPJ views, {!Groups} for aggregate views),
    + applies the modifications to base table [i] in FIFO order.

    All work is metered; {!process} returns the meter delta so callers can
    price the batch. *)

type t

val create : ?meter:Relation.Meter.t -> ?order:Viewdef.order -> Viewdef.t -> t
(** Materializes the view's initial content from the current base tables
    by folding the batches of {!Viewdef.joined_plan} straight into the
    content, boxing only the columns it keeps.  [meter] (default: the
    first base table's meter) also receives the per-batch setup bumps.
    [order] (default: the view's {!Viewdef.order}) selects the
    maintenance strategy; under [Higher_order] every {!Deltaview} is also
    materialized here.  With the {!Telemetry} collector enabled the work
    runs inside one ["maintainer.materialize"] span (attrs [view],
    [order]). *)

val copy : t -> t
(** A deep copy that maintains independently of the original: copied
    base tables ({!Relation.Table.copy}) under the same view definition
    ({!Viewdef.with_tables}), copied content, delta views and pending
    queues (lanes and route too, if {!route}d), all metered on one
    fresh {!Relation.Meter.t}, and its own delta-join scratch
    ({!Deltajoin.scratch}): no buffer is shared with the original, so
    the two may run on different domains at once.  Every hash
    table keeps its iteration order, so the copy meters every later
    batch to the same bits as the original would, and so as a twin
    built from scratch by the same calls would.  Far cheaper than
    {!create}: nothing is joined, and the copy itself is unmetered.
    An aggregate view's content copy ({!Groups.copy}) is O(stored
    values): its bags are mutable, so none is shared.
    [Bridge.Calibrate.measure] meters on the maintainer it is given, so
    a caller that must keep an engine's tables and meter untouched (a
    serve tenant, [Partition.Runner.compare_blind]) passes it a copy. *)

val view : t -> Viewdef.t
val meter : t -> Relation.Meter.t

val order : t -> Viewdef.order
(** The maintenance order this instance runs. *)

val on_arrive : t -> int -> Change.t -> unit
(** Append a modification to table [i]'s delta queue — on a routed
    maintainer, to the lane its route picks.  The base table is not
    touched until the modification is processed. *)

(** {1 Routed lanes}

    A path policy inside the step kernel: after {!route}, every table's
    delta queue is two lanes, each running one physical path whatever
    the view declares — the only way to run a table's changes on another
    path.  The
    queue-indexed calls ({!pending_sizes}, {!pending_size}, {!process},
    {!apply}, {!pending_changes}, {!refresh}) then
    index lanes ([2n] of them) instead of tables.  Heavy/light
    partitioning ([Partition.Engine]) routes hot join keys to the
    indexed lane and the tail to the scan lane. *)

val lane : table:int -> [ `Index | `Scan ] -> int
(** The lane of a table's path: [2 * table] runs [`Index], [2 * table + 1]
    runs [`Scan].  The one definition of the lane layout. *)

val route : t -> (int -> Change.t -> [ `Index | `Scan ]) -> unit
(** [route m f] splits every table's queue into its two lanes; from then
    on each arriving change [c] of table [i] joins lane
    [lane ~table:i (f i c)], once, at {!on_arrive}.  A later [route]
    replaces [f].  Raises [Invalid_argument] while anything is pending —
    queued changes would otherwise sit in the wrong lane.  The view
    content does not depend on the route, only the metered cost does.
    Routing must keep per-row FIFO order: changes touching one row must
    share a lane, which a function of the join key guarantees.  Routed
    maintainers are not journalled or checkpointed yet. *)

val pending_sizes : t -> int array
val pending_size : t -> int -> int

val process : t -> int -> int -> Relation.Meter.snapshot
(** [process m i k]: batch-process the earliest [k] modifications of table
    [i].  Returns the meter delta attributable to the batch.  [k = 0] is a
    free no-op.  Raises [Invalid_argument] if [k] exceeds the pending count
    or a deletion targets a missing tuple (inconsistent stream).

    The batch's physical delta-join path comes from its queue alone: an
    unrouted table runs the path its view declares ({!Viewdef.path}), a
    routed lane runs its lane's path ({!lane}).  The view content is the
    same on either path; only the metered cost moves.

    Under [First_order] the batch is delta-joined against the other base
    tables (the metered path is unchanged from previous releases).  Under
    [Higher_order] the view delta is probed out of table [i]'s
    materialized {!Deltaview} (hash probes + index-entry retrievals — flat
    in the partner sizes), after which the batch is folded into the other
    tables' delta views and applied to base table [i].

    When the {!Telemetry} collector is enabled each batch runs inside a
    ["maintainer.process"] span (attrs [table], [k]) and books the meter
    delta as the [meter.*] counter family labelled by table, plus
    [maintainer.batches], [maintainer.cost_units] and the
    [maintainer.batch_size] histogram. *)

(** {1 The maintenance step}

    The paper's action: arrivals enter the delta queues, then a batch of
    [k_i] modifications is processed per table and priced by the meter.
    Every executed loop (the plan runner, calibration, the durable
    executor and serve tenants, and the replay of both) goes through
    these two calls; callers keep their journals and accounting in the
    callbacks. *)

val ingest :
  ?on_arrival:(table:int -> Change.t -> unit) ->
  t ->
  next:(int -> Change.t) ->
  int array ->
  unit
(** [ingest m ~next counts]: for each table [i] in index order, draw
    [counts.(i)] modifications from [next i] (none when the count is not
    positive); each is {!on_arrive}d, then handed to [on_arrival ~table:i]
    (a caller's journal). *)

val apply :
  ?on_applied:(table:int -> count:int -> cost:float -> unit) ->
  t ->
  int array ->
  float
(** [apply m batches] {!process}es [batches.(i)] modifications of every
    table [i] whose count is positive, in index order, calling
    [on_applied] after each batch with its metered cost.  On a routed
    maintainer [batches] is [2n] wide and [i] (and [on_applied]'s
    [table]) is a lane.  Returns the
    costs summed from [0.0] in table order.  A caller keeping a running
    float total adds inside [on_applied]: [t +. (a +. b)] is not
    [(t +. a) +. b].  Before processing anything it checks every positive
    count against its queue: a bad index, or a count above the queue's
    {!pending_size}, raises [Invalid_argument] (naming the lane or table
    and both counts) with no batch processed.  A batch {!process} itself
    rejects raises midway. *)

val pending_changes : t -> int -> Change.t list
(** Table [i]'s delta queue in arrival order, without removing anything
    — what a checkpoint persists. *)

val refresh : t -> Relation.Meter.snapshot
(** Process everything pending in every table (one batch per table) —
    the view is up to date afterwards. *)

val rows : t -> Relation.Tuple.t list
(** Current materialized rows, sorted, with multiplicity. *)

val output_schema : t -> Relation.Schema.t

val check_consistent : t -> (unit, string) result
(** Compare the incrementally maintained content against a from-scratch
    evaluation over the (processed) base tables: {!Viewdef.reference_plan},
    relational operators only, sharing no code with the maintained
    content.  Under [Higher_order] every materialized delta view is also
    checked against a recompute of its sub-join.  Runs inside one
    ["maintainer.check"] span when the collector is enabled. *)

val delta_view : t -> Deltaview.t option
(** The materialized delta views ([Some] iff the maintenance order is
    [Higher_order]) — exposed for the serve admission's memory accounting. *)
