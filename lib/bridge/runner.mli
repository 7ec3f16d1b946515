(** Executed-mode experiments: drive a real {!Ivm.Maintainer.t} with a
    maintenance plan and measure actual engine cost — the paper's §5
    "validation" of its simulation methodology (Fig. 5).

    The runner replays the spec's arrival sequence, pulling concrete
    modifications from the update feeds, and performs exactly the batch
    actions the plan prescribes.  It returns the same {!Abivm.Report.t}
    record that {!Abivm.Simulate} produces, with [cost_units] (measured
    engine cost) and [wall_seconds] filled in and [valid] additionally
    requiring the final view content to equal a from-scratch recompute.

    When the {!Telemetry} collector is enabled the run executes inside a
    ["runner.plan"] span, each plan action inside a ["runner.action"] span,
    and the counters [runner.action.cost_units] / [runner.action.simulated]
    (labelled by time step) record executed-vs-simulated cost per action;
    {!action_costs} reads them back from the report. *)

type engine
(** One executed-mode state: the maintainer (view content, base tables,
    pending queues, meter) plus the update feeds it draws concrete
    modifications from.  The runner holds no state of its own, so several
    engines can coexist in one process and several plans can be run
    against one engine in sequence. *)

val engine :
  maintainer:Ivm.Maintainer.t -> feeds:Tpcr.Updates.feeds -> engine

val run_plan :
  ?monitor:Robust.Monitor.t ->
  ?strategy:Abivm.Strategy.t ->
  engine ->
  Abivm.Spec.t ->
  Abivm.Plan.t ->
  Abivm.Report.t
(** [monitor] receives each step's arrival vector and, per action, the
    metered engine cost against the spec's prediction — drift detection
    over {e executed} costs, closing the loop on calibration staleness
    ([Robust.Replan] consumes the same monitor in simulation).
    [strategy] (default [Online None]) only labels the report.  Raises
    [Invalid_argument] if the plan asks to process more modifications
    than will be pending at any action time — checked {e before} any
    modification is drawn or processed, so a rejected plan leaves the
    engine (queues, feeds, meter) untouched and reusable.  The
    consistency check at the end is unmetered. *)

val action_costs : Abivm.Report.t -> (int * float) list
(** (time, measured cost units) per plan action, recovered from the
    report's telemetry.  Empty when the run executed with the collector
    disabled. *)

val simulated_action_costs : Abivm.Report.t -> (int * float) list
(** (time, simulated cost [f] of the action) — pairs with
    {!action_costs} for per-action Fig. 5 comparisons. *)

