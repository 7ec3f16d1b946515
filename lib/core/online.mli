(** The online heuristic (§4.3): no advance knowledge of arrivals or of the
    refresh time.

    Whenever the pre-action state becomes full at time [t], choose the
    greedy minimal valid action [q] minimizing the predicted amortized cost

    [H(q) = (F_t + f(q)) / (t + time_to_full (s_t - q))]

    where [F_t] is the cost spent so far and [time_to_full] projects how
    long the post-action state survives under estimated arrival rates. *)

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

val time_to_full :
  Spec.t -> rates:float array -> from_time:int -> Statevec.t -> int
(** Predicted number of steps after which the pre-action state exceeds the
    limit, starting from the given post-action state, assuming arrivals
    continue at [rates].  Capped at [2^30] when the state would never fill
    (e.g. all rates zero).  [from_time] is unused by rate-based prediction
    but anchors the oracle variant. *)

val best_action :
  ?scorer:scorer ->
  Spec.t ->
  ttf:(Statevec.t -> int) ->
  spent:float ->
  t:int ->
  Statevec.t ->
  Statevec.t
(** The §4.3 choice at a full pre-action state: among the greedy minimal
    valid actions ({!Actions.minimal_greedy_actions}), the first one in
    their order with the least score under [scorer] (default
    {!default_scorer}).  [ttf] predicts a post-action state's time to
    full, [spent] is the cost spent so far and [t] the current time
    (both read by [Amortized_total] only).  At a state that is not
    full the one minimal action is the empty one. *)

val plan : ?predictor:predictor -> ?scorer:scorer -> Spec.t -> Plan.t
(** Run the controller over the spec's arrival sequence, never reading
    future arrivals (except under [Oracle]).  The refresh at the horizon
    flushes everything. *)

(** {1 Step-by-step controller}

    For embedding in a live system (e.g. a publish/subscribe server) where
    arrivals are observed as they happen and refreshes may be forced at any
    moment by external conditions. *)

type controller

val controller :
  ?alpha:float -> costs:Cost.Func.t array -> limit:float -> unit -> controller
(** A fresh controller with EWMA rate estimation (smoothing [alpha],
    default 0.2). *)

val step : controller -> arrivals:int array -> Statevec.t option
(** Advance one time step: record the arrivals, and if the response-time
    constraint is now violated return the greedy minimal action minimizing
    the amortized-cost score [H].  The caller must process exactly the
    returned batch sizes; the controller's pending bookkeeping assumes it.
    Equivalent to {!observe} then {!propose} then {!absorb} of the
    proposal. *)

(** {2 Split-phase stepping}

    [step] assumes the caller processes exactly what it returns.  A
    coordinator that may {e enlarge} the batch (co-flushing a table
    together with another view to pocket a shared-setup discount) needs
    the decision split from the bookkeeping: {!observe} the arrivals,
    {!propose} an action, adjust it, then {!absorb} what was actually
    processed. *)

val observe : controller -> arrivals:int array -> unit
(** Record one time step's arrivals: advance the clock, update the EWMA
    rates, add to pending.  Decides nothing. *)

val propose : controller -> Statevec.t option
(** The action {!step} would return at the current state, without
    committing to it: [None] if the response-time constraint holds,
    otherwise the greedy minimal action minimizing [H].  Pure — repeated
    calls return the same proposal. *)

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
    the pending vector to process, charges its cost, and resets the
    controller's clock (the §4.3 algorithm measures time since the last
    refresh). *)

val pending : controller -> Statevec.t
(** Currently pending modification counts. *)

val rates : controller -> float array
(** Snapshot of the controller's current EWMA per-table rate estimates —
    what the drift monitor ([Robust.Monitor]) compares observed arrivals
    against. *)
