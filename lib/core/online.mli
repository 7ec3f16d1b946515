(** The online heuristic (§4.3): no advance knowledge of arrivals or of the
    refresh time.

    Whenever the pre-action state becomes full at step [t] (the step's
    0-based index since the last refresh), choose the
    greedy minimal valid action [q] minimizing the predicted amortized cost

    [H(q) = (F_t + f(q)) / (t + time_to_full (s_t - q))]

    where [F_t] is the cost spent since the last refresh and
    [time_to_full] projects how long the post-action state survives under
    estimated arrival rates. *)

type predictor =
  | Ewma of float
      (** Exponentially weighted moving average of arrivals with the given
          smoothing factor in (0, 1]. *)
  | Ewma_conservative of { alpha : float; z : float }
      (** EWMA mean inflated by [z] estimated standard deviations — on
          bursty streams, plain mean rates overestimate how long a state
          survives (the paper's explanation for ONLINE's gap on unstable
          streams); a conservative rate predicts fullness sooner. *)
  | Window of int  (** Mean over the last [k] steps. *)
  | Oracle
      (** Looks at the true future arrivals (ablation upper bound on the
          quality of rate prediction). *)

val default_predictor : predictor
(** [Ewma 0.2]. *)

type scorer =
  | Amortized_total
      (** The paper's [H(q) = (F_t + f(q)) / (t + time_to_full(s_t - q))]. *)
  | Amortized_marginal
      (** [f(q) / time_to_full(s_t - q)] — drops the history terms; pays
          per unit of survival time bought now. *)
  | Cheapest  (** Myopic: minimize [f(q)] alone. *)

val default_scorer : scorer
(** [Amortized_total]. *)

val time_to_full : Spec.t -> rates:float array -> Statevec.t -> int
(** Predicted number of steps after which the pre-action state exceeds the
    limit, starting from the given post-action state, assuming arrivals
    continue at [rates].  Capped at [2^30] when the state would never fill
    (e.g. all rates zero). *)

(** {1 The controller}

    The one ONLINE state machine: the plan-level {!plan}, a live system
    (e.g. a publish/subscribe server, a served tenant) and the multiview
    simulator all drive it.  Arrivals are observed as they happen, and
    refreshes may be forced at any moment by external conditions. *)

type controller

val controller : ?predictor:predictor -> ?scorer:scorer -> Spec.t -> controller
(** A fresh controller over [spec]'s costs and limit, predicting rates
    with [predictor] (default {!default_predictor}) and choosing under
    [scorer] (default {!default_scorer}).  Only [Oracle] reads [spec]'s
    arrivals, from the step after the last observed one; the other
    predictors see arrivals only through {!observe}, so a live caller may
    observe past the spec's horizon.  Raises [Invalid_argument] on a
    smoothing factor outside (0, 1], a non-finite [z] or an empty window. *)

val plan : ?predictor:predictor -> ?scorer:scorer -> Spec.t -> Plan.t
(** Drive a controller over the spec's arrival sequence: at each step
    {!observe}, then {!absorb} what {!propose} returns, and at the horizon
    flush everything pending (counted as [online.flush.horizon]).  Never
    reads future arrivals (except under [Oracle]). *)

val step : controller -> arrivals:int array -> Statevec.t option
(** Advance one time step: record the arrivals, and if the response-time
    constraint is now violated return the greedy minimal action minimizing
    the score.  The caller must process exactly the returned batch sizes;
    the controller's pending bookkeeping assumes it.  Equivalent to
    {!observe} then {!propose} then {!absorb} of the proposal. *)

(** {2 Split-phase stepping}

    [step] assumes the caller processes exactly what it returns.  A
    coordinator that may {e enlarge} the batch (co-flushing a table
    together with another view to pocket a shared-setup discount) needs
    the decision split from the bookkeeping: {!observe} the arrivals,
    {!propose} an action, adjust it, then {!absorb} what was actually
    processed. *)

val observe : controller -> arrivals:int array -> unit
(** Record one time step's arrivals: advance the clock, update the
    predictor's rates, add to pending.  Decides nothing. *)

val propose : controller -> Statevec.t option
(** The action {!step} would return at the current state, without
    committing to it: [None] unless {!full}, otherwise the greedy minimal
    action minimizing the score (each such call counts as
    [online.decisions]).  [Amortized_total] scores with [F_t] the cost
    absorbed so far and [t] the 0-based index of the current step since
    the last refresh (the step itself in a {!plan}).  Repeated calls
    return the same proposal. *)

val absorb : controller -> Statevec.t -> unit
(** The caller processed exactly these batch sizes (possibly more than
    proposed, e.g. a coordinated co-flush; possibly none — the zero
    vector is a no-op): subtract them from pending and charge their cost
    [f] to the controller's spent total.  Raises [Invalid_argument] if a
    batch exceeds the pending count for its table.
    [step c ~arrivals] ≡ [observe c ~arrivals; match propose c with
    None -> None | Some a -> absorb c a; Some a] — bit-identically, which
    recovery replay relies on. *)

val costs : controller -> Cost.Func.t array
(** The current cost model (a copy). *)

val set_costs : controller -> Cost.Func.t array -> unit
(** Replace the cost model in place — the re-anchoring step of the
    robustness loop ([Robust.Replan.reanchor]) applied to a live
    controller.  Rates, pending, clock and spent are untouched.  Raises
    [Invalid_argument] on a width mismatch. *)

val force_refresh : controller -> Statevec.t
(** An external event (a notification) forces the view up to date: returns
    the pending vector to process and starts a new refresh period, with
    the controller's clock and spent total both back at zero (the §4.3
    algorithm measures [t] and [F_t] from the last refresh). *)

val pending : controller -> Statevec.t
(** Currently pending modification counts. *)

val refresh_cost : controller -> float
(** [f] of the pending vector: the model cost of flushing everything now. *)

val full : controller -> bool
(** [refresh_cost c] exceeds the limit: the response-time constraint is
    violated, and {!propose} acts. *)

val rates : controller -> float array
(** Snapshot of the controller's current per-table rate estimates — what
    the drift monitor ([Robust.Monitor]) compares observed arrivals
    against.  All zero under [Oracle]. *)
