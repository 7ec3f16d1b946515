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
    - {!piggyback}: same controllers, but whenever some view is forced to
      process table [i], every other view whose own table-[i] flush is
      nearly due (pending at >= 60% of the largest batch its constraint
      allows) joins the flush — the co-flush replaces an imminent solo
      flush and pockets the shared-work discount.  Joining with a small
      pending batch would add setups without removing future flushes, so
      eager joining is deliberately avoided. *)

type view_spec = {
  name : string;
  costs : Cost.Func.t array;  (** one per base table *)
  limit : float;
}

val charge_shared : discount:float -> float list -> float
(** The price of one table's co-flush, given each participant's own cost
    for its batch: the raw sum minus one [discount] per participant
    beyond the first, never below the most expensive single participant
    (the shared scan can't make the combined work cheaper than the
    biggest job alone).  [0.0] for no participants.  This is the exact
    accounting {!independent}/{!piggyback} apply per table per instant,
    exposed so an external scheduler ([abivm serve]) charges co-flushes
    across tenants by the same rule.  Raises [Invalid_argument] on a
    negative discount. *)

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
    view receives every modification.  Each view's forced flush is
    {!Abivm.Online.best_action} under the [Amortized_marginal] scorer.
    Raises [Invalid_argument] on dimension mismatches, no base table, a
    negative limit or negative discounts. *)

val piggyback :
  views:view_spec array ->
  shared_setup:float array ->
  arrivals:int array array ->
  unit ->
  outcome
