(** Fault injection: first-class, seed-reproducible perturbations of a
    problem instance.

    A robustness experiment needs two views of the same world: the
    {e model} the planner believes (calibrated cost functions, projected
    arrivals) and the {e actual} world it runs in (drifted rates, costs
    the calibration no longer matches).  {!scenario} packages the pair;
    the combinators below build the actual side from the model by
    composing named perturbations.

    Arrival perturbations act on the dense matrix
    ([d.(t).(i)] as produced by [Workload.Arrivals.generate]) so any
    generator output — or a recorded trace — can be degraded.  Cost
    perturbations act on [Cost.Func.t].  Everything is deterministic in
    the explicit seeds. *)

(** {1 Arrival perturbations} *)

val rate_shift :
  ?tables:int list -> at:int -> factor:float -> int array array -> int array array
(** From step [at] on, scale arrivals by [factor >= 0] (rounded to the
    nearest count).  [tables] restricts the shift to the given columns
    (default: all).  Rows before [at] are returned unchanged (shared). *)

val blackout : from:int -> len:int -> int array array -> int array array
(** Zero all arrivals in the window [\[from, from + len)] — an upstream
    outage.  The backlog does not reappear afterwards. *)

val burst :
  ?tables:int list -> at:int -> extra:int -> len:int -> int array array ->
  int array array
(** Add [extra] modifications per step to the given tables (default all)
    during [\[at, at + len)] — a flash crowd. *)

val table_swap : at:int -> int -> int -> int array array -> int array array
(** From step [at] on, swap the arrival columns of the two tables — load
    migrates to a table with a different cost profile (the worst kind of
    drift for an asymmetry-exploiting plan). *)

(** {1 Cost perturbations}

    These model the {e true} execution cost diverging from the calibrated
    model the planner uses; apply them to the actual side of a scenario. *)

val cost_noise : seed:int -> amp:float -> Cost.Func.t array -> Cost.Func.t array
(** Per-batch-size multiplicative noise via {!Cost.Func.jitter}; each
    table gets an independent noise stream split from [seed]. *)

(** {1 Scenarios} *)

type scenario = {
  label : string;
  model : Abivm.Spec.t;  (** what the planner calibrated and projected *)
  actual : Abivm.Spec.t;
      (** the world the executor runs in: true arrivals, true costs,
          same constraint [C] *)
}

val scenario :
  ?label:string ->
  model:Abivm.Spec.t ->
  arrivals:(int array array -> int array array) ->
  costs:(Cost.Func.t array -> Cost.Func.t array) ->
  unit ->
  scenario
(** Build the actual side by perturbing the model's arrivals and costs;
    the response-time limit [C] is shared (it is the contract, not an
    estimate).  Use [Fun.id] for an unperturbed dimension. *)

val drifted :
  ?label:string ->
  ?shift_at:int ->
  ?rate_factor:float ->
  ?cost_factor:float ->
  Abivm.Spec.t ->
  scenario
(** The canonical degraded scenario of the CLI and tests: a rate shift
    at [shift_at] (default mid-horizon) by [rate_factor] (default [2.0])
    plus uniform cost misestimation by [cost_factor] (default [2.0]). *)
