(** Convenience front-end: run maintenance strategies of the paper over a
    problem instance and report cost — the "simulation" mode of §5 (plan
    costs computed from the cost functions, no engine execution).

    Every entry point returns a {!Report.t}.  When the {!Telemetry}
    collector is enabled, each strategy runs inside a
    ["simulate.strategy"] span, each plan action emits a
    ["simulate.action"] span (attrs [strategy], [t]), and the counters
    [simulate.action_cost] / [simulate.total_cost] are booked per
    strategy; the report's [telemetry] field carries the metric delta. *)

val run : Strategy.t -> Spec.t -> Report.t
(** Build the strategy's plan and score it. *)

val naive : Spec.t -> Report.t
val opt_lgm : Spec.t -> Report.t
val online : ?predictor:Online.predictor -> Spec.t -> Report.t

val all : ?adapt_t0:int -> ?strategies:Strategy.t list -> Spec.t -> Report.t list
(** Runs [strategies] (default {!Strategy.default_list}: NAIVE, OPT-LGM,
    ADAPT with [adapt_t0] defaulting to [horizon / 2], and ONLINE — the
    paper's Fig. 6 order). *)

val cost_per_modification : Spec.t -> Report.t -> float
(** Alias for {!Report.cost_per_modification}. *)
