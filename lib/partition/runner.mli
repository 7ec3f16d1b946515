(** Execute a partitioned ([2n]-table) plan against a {!Engine}.

    The partitioned planner needs the arrival matrix {e per partition},
    and partition membership is a property of each concrete modification —
    so the stream is materialized first: {!materialize} draws every
    modification for a logical arrival matrix up front, {!partitioned_arrivals}
    classifies it into the [2n]-wide matrix the spec is built from, and
    {!run} replays it through [Bridge.Runner.execute], applying the
    plan's per-partition batches.  Because the spec's arrivals come from
    the very stream being replayed, plan validity transfers exactly.

    {!compare_blind} also replays the same stream under the skew-blind
    baseline's plan, which batches each logical table as a whole, on a
    copy of the same engine — the executed cost a skew-aware plan is
    compared with — and runs the whole comparison, calibration
    included. *)

type stream = (int * Ivm.Change.t) list array
(** Per step, the drawn [(logical table, modification)]s in draw order. *)

val materialize :
  feeds:Tpcr.Updates.feeds -> arrivals:int array array -> stream
(** Draw [arrivals.(t).(i)] modifications per step and table, in step then
    table order — deterministic for seeded feeds. *)

val partitioned_arrivals : Engine.t -> stream -> int array array
(** Classify the stream with the engine's current splits into a
    [(horizon+1) × 2n] arrival matrix. *)

type result = { cost_units : float; batches : int }

val run : Engine.t -> stream -> spec:Abivm.Spec.t -> plan:Abivm.Plan.t -> result
(** Replay the stream through {!Engine.arrive} and apply each of
    [plan]'s [2n]-wide actions to the engine's lanes; total metered cost
    (added per batch) and batch count.  [Invalid_argument], before
    anything is classified or enqueued, unless the plan is valid for
    [spec] (as wide as the lanes), the stream [horizon + 1] steps long
    and the engine idle.  The lane counts are [spec]'s: a stream that
    routes fewer changes to a lane than [spec] says (a spec built from
    another stream) raises [Invalid_argument] naming the step, the lane
    and both counts, with that step's lanes unprocessed and the earlier
    steps' batches applied.  Also raises after the run if modifications
    are left. *)

type side = { plan_cost : float; exec : result }
(** One planner's A* plan cost and that plan's executed cost. *)

type comparison = {
  part_curves : (int * float) list array;
      (** Per partition ({!Pspec.index}), {!Calibrate.measure_curve}. *)
  blind_curves : (int * float) list array;
      (** Per logical table, {!Bridge.Calibrate.measure_curve} on the
          routed maintainer: [k] arrivals of the table whatever their
          class, both of its lanes drained by one apply. *)
  limit : float;
  blind : side;
  aware : side;
}

val compare_blind :
  cal_feeds:(unit -> Tpcr.Updates.feeds) ->
  sizes:int list ->
  limit_factor:float ->
  Engine.t ->
  stream ->
  comparison
(** The skew-aware planner against the skew-blind baseline on one
    stream, from the idle engine given.  Nothing is built: one
    {!Engine.copy} measures the per-partition curves, a
    {!Ivm.Maintainer.copy} the logical tables' blind curves, each from
    its own [cal_feeds ()] (called twice, before the given engine runs
    anything), and a third copy runs the blind plan.  The curves'
    subadditive hulls (up to [4 × max sizes]) become the two specs' cost
    functions, the response-time limit is [limit_factor] times the
    dearest single modification of either, and A* plans both.  The aware
    plan runs on the given engine via {!run}, the blind plan on its copy:
    a logical batch of [k] drains the first [k] of that table's arrivals
    in FIFO order, applied as one batch per non-empty lane, heavy first.  An
    engine with pending modifications raises [Invalid_argument] (from
    {!Bridge.Calibrate.measure}) before anything is metered. *)
