(** Measuring batch-maintenance cost curves from the live engine.

    This is how the repository derives the planner's cost functions from
    the system it actually runs on — the analogue of the paper's Fig. 1 and
    Fig. 4 measurements on a commercial DBMS.  Costs are deterministic
    abstract units ({!Relation.Meter.cost_units}), not wall-clock, so
    calibration is reproducible. *)

val measure :
  Ivm.Maintainer.t -> fill:(int -> unit) -> sizes:int list -> (int * float) list
(** [measure m ~fill ~sizes] is every cost-curve measurement: for each
    batch size [k] in [sizes], in order, [fill k] queues modifications on
    [m], then one {!Ivm.Maintainer.apply} of [m]'s {!Ivm.Maintainer.pending_sizes}
    drains every queue (lane, on a routed maintainer), and the point is
    [(k, units)], the metered cost of that apply.  It measures on [m]
    itself: base state drifts as batches apply, mirroring measurement on
    a live system, and a later curve measured on [m] sees the batches of
    the earlier ones.  Pass a {!Ivm.Maintainer.copy} to keep an engine
    untouched.  A maintainer with anything pending, or a negative size,
    raises [Invalid_argument] before [fill] runs or anything is
    metered. *)

val measure_curve :
  Ivm.Maintainer.t ->
  Tpcr.Updates.feeds ->
  table:int ->
  sizes:int list ->
  (int * float) list
(** [measure_curve m feeds ~table ~sizes] is {!measure} with a fill that
    draws [k] modifications of [table] from [feeds]
    ({!Ivm.Maintainer.ingest}): the cost of arriving and processing [k]
    modifications of [table] in one batch.  On a routed maintainer the
    batch is the table's lanes, one apply draining both.  A bad table
    index raises [Invalid_argument], and so does what {!measure}
    refuses. *)

val fitted :
  name:string -> (int * float) list -> Cost.Func.t * Cost.Fit.affine_fit
(** Affine least-squares fit of a measured curve, as a cost function for
    the planner plus the fit parameters (slope [a], setup [b], [r2]). *)

val tabulated : name:string -> (int * float) list -> Cost.Func.t
(** The measured curve itself as a piecewise-linear cost function —
    maximum fidelity, but check subadditivity before trusting LGM bounds
    ({!Cost.Check.is_subadditive}). *)
