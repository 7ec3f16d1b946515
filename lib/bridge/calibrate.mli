(** Measuring batch-maintenance cost curves from the live engine.

    This is how the repository derives the planner's cost functions from
    the system it actually runs on — the analogue of the paper's Fig. 1 and
    Fig. 4 measurements on a commercial DBMS.  Costs are deterministic
    abstract units ({!Relation.Meter.cost_units}), not wall-clock, so
    calibration is reproducible. *)

val measure_curve :
  Ivm.Maintainer.t ->
  Tpcr.Updates.feeds ->
  table:int ->
  sizes:int list ->
  (int * float) list
(** [measure_curve m feeds ~table ~sizes] measures, for each batch size
    [k] in [sizes], the cost of arriving and processing [k] modifications
    of [table] in one batch.  The maintainer's pending queue for that table
    must be empty initially and is empty again afterwards; base state
    drifts as updates apply, mirroring measurement on a live system.  A
    negative size raises [Invalid_argument] before anything is
    measured. *)

val fitted :
  name:string -> (int * float) list -> Cost.Func.t * Cost.Fit.affine_fit
(** Affine least-squares fit of a measured curve, as a cost function for
    the planner plus the fit parameters (slope [a], setup [b], [r2]). *)

val tabulated : name:string -> (int * float) list -> Cost.Func.t
(** The measured curve itself as a piecewise-linear cost function —
    maximum fidelity, but check subadditivity before trusting LGM bounds
    ({!Cost.Check.is_subadditive}). *)

val measure_orders :
  make:(Ivm.Viewdef.order -> Ivm.Maintainer.t * Tpcr.Updates.feeds) ->
  table:int ->
  sizes:int list ->
  (Ivm.Viewdef.order * (int * float) list) list
(** Meter one table's cost curve under both maintenance orders.  [make]
    must build a {e fresh} engine (identical seed/state) for the given
    order — each order's curve is measured against its own engine so base
    drift from one measurement cannot leak into the other.  Returns the
    curves in [[First_order; Higher_order]] order; feed them to {!fitted}
    / {!tabulated} and compare shapes with {!Cost.Fit.flatter}. *)
