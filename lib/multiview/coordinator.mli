(** Maintaining several views over shared base-table streams.

    The paper maintains one view; its related work (Colby et al.,
    "Supporting multiple view maintenance policies") maintains many.  This
    module combines both: every view keeps its own per-table delta queues,
    cost functions, and response-time constraint, but *co-flushing* — two
    or more views processing the same base table's deltas at the same
    instant — shares part of the maintenance work (the scan/setup of the
    common base table).  The shared part is modelled as a per-table
    discount subtracted once for every additional view joining a co-flush
    (never below the most expensive single view's cost).

    Two strategies are compared:

    - {!independent}: one §4.3 ONLINE controller per view, no
      coordination (discounts still apply when co-flushes happen by
      accident);
    - {!piggyback}: same controllers, plus the {!Coflush} rule: a view
      forced to process table [i] invites every view whose own flush of
      [i] is nearly due; a table without shared setup invites no one. *)

type view_spec = {
  name : string;
  costs : Cost.Func.t array;  (** one per base table *)
  limit : float;
}

type outcome = {
  per_view_cost : (string * float) array;
  total_cost : float;  (** after co-flush discounts *)
  undiscounted_cost : float;
  co_flushes : int;  (** view-joins beyond the first on some table/instant *)
  valid : bool;  (** every view met its constraint at every step *)
}

val independent :
  views:view_spec array ->
  shared_setup:float array ->
  arrivals:int array array ->
  unit ->
  outcome
(** [arrivals.(t).(i)] modifications to base table [i] at time [t]; every
    view receives every modification.  Each view runs its own
    {!Abivm.Online.controller} (default predictor, [Amortized_marginal]
    scorer), whose proposal is the view's forced flush.
    Raises [Invalid_argument] on dimension mismatches, no base table, a
    negative limit or negative discounts. *)

val piggyback :
  views:view_spec array ->
  shared_setup:float array ->
  arrivals:int array array ->
  unit ->
  outcome
