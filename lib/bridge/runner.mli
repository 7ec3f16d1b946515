(** Executed mode: run a precomputed maintenance plan against a real
    {!Ivm.Maintainer.t} — the paper's §5 "validation" of its simulation
    methodology (Fig. 5).  {!execute} is the one plan loop over the step
    kernel; {!run_plan}, [Partition.Runner] and [Durable.Exec] keep only
    their own policy in its callbacks.

    {!run_plan} returns the same {!Abivm.Report.t} record that
    {!Abivm.Simulate} produces, with [cost_units] (measured engine cost)
    and [wall_seconds] filled in and [valid] additionally requiring the
    final view content to equal a from-scratch recompute.  With the
    {!Telemetry} collector enabled it runs inside a ["runner.plan"]
    span, and the counters [runner.action.cost_units] /
    [runner.action.simulated] (labelled by time step) record
    executed-vs-simulated cost per action; {!action_costs} reads them
    back from the report. *)

val check :
  Ivm.Maintainer.t ->
  first:int ->
  counts:int array array ->
  (int * int array) list ->
  (unit, string) result
(** §2 feasibility of steps [first..horizon] from [m]'s queues, [m]
    untouched, where [counts.(t)] is step [t]'s arrivals and [horizon]
    is its last step.  Every row read and every action has one
    non-negative count per queue of {!Ivm.Maintainer.pending_sizes} (per
    table, or per lane when routed); the actions lie in [first..horizon]
    in increasing time; none takes more than is pending after its
    step's arrivals. *)

val execute :
  ?on_applied:(t:int -> table:int -> count:int -> cost:float -> unit) ->
  ?on_action:(int -> int array -> float -> unit) ->
  Ivm.Maintainer.t ->
  first:int ->
  counts:int array array ->
  arrive:(int -> int array -> unit) ->
  (int * int array) list ->
  (unit, string) result
(** {!check} (its refusal is the [Error], returned before anything is
    drawn); then per step [t], [arrive t counts.(t)] enqueues its
    arrivals, and its action goes through {!Ivm.Maintainer.apply} with
    [on_applied ~t] per batch, then to [on_action t action] with the
    summed cost.  Totals added per batch and per action can differ in
    the last bits.  An [Invalid_argument] from [apply] (a queue holding
    fewer changes than the action takes: [arrive] enqueued other counts
    than [counts.(t)]) is re-raised with the step prefixed. *)

val run_plan :
  ?monitor:Robust.Monitor.t ->
  ?strategy:Abivm.Strategy.t ->
  Ivm.Maintainer.t ->
  feeds:Tpcr.Updates.feeds ->
  Abivm.Spec.t ->
  Abivm.Plan.t ->
  Abivm.Report.t
(** {!execute} the plan from step 0, drawing the spec's arrivals from
    [feeds]; the reported cost sums the per-action costs.  [monitor]
    receives each step's arrival vector and, per action, the metered
    engine cost against the spec's prediction — drift detection over
    {e executed} costs, closing the loop on calibration staleness
    ([Robust.Replan] consumes the same monitor in simulation).
    [strategy] (default [Online None]) only labels the report.  A plan
    {!check} refuses raises [Invalid_argument] (["Runner.execute: "]
    and the refusal) and leaves the maintainer
    (queues, meter) and the feeds untouched and reusable.  The
    consistency check at the end is unmetered. *)

val action_costs : Abivm.Report.t -> (int * float) list
(** (time, measured cost units) per plan action, recovered from the
    report's telemetry.  Empty when the run executed with the collector
    disabled. *)

val simulated_action_costs : Abivm.Report.t -> (int * float) list
(** (time, simulated cost [f] of the action) — pairs with
    {!action_costs} for per-action Fig. 5 comparisons. *)
