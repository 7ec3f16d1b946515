(** Rebuilding maintenance state from a [Durable.Exec] directory.

    The directory holds [MANIFEST], at most one [ckpt-*.ckpt] it names,
    and the group log under {!Fsutil.group_dir}.  Recovery loads the
    manifest's checkpoint, rebuilds the base tables, lets the caller
    re-erect the view definition over them, re-materializes the view,
    and *verifies* the result against the checkpoint's recorded view rows
    before trusting it.  It then replays the log tail from the
    checkpoint's LSN: [Arrival] records re-enter the delta queues (and
    count against the feed-draw budget), [Applied] records re-execute
    their batches through the maintainer — and the recomputed cost must
    match the recorded bits exactly, or recovery refuses.  A tail that
    holds a record under any tag but {!tenant} (another tenant's, or a
    serve co-flush) is not a plan's log and is refused, as is a directory
    in the old layout (WAL segments directly under it).

    With a manifest but no checkpoint yet (a run that died before its
    first checkpoint), recovery starts from the caller's fresh genesis
    state and replays the whole log.

    Verification is bit-exact, which is sound for the views this engine
    runs durably (counted bags and integer aggregates); a view with
    order-sensitive float aggregates would need an epsilon here. *)

val tenant : string
(** The tag of Exec's records in the group log. *)

type state = {
  maintainer : Ivm.Maintainer.t;
  cost : float;  (** cumulative cost through the last replayed record *)
  draws : int array;  (** feed draws consumed per table, incl. replayed *)
  next_step : int;  (** from the checkpoint; replay may have gone past it *)
  arrived : (int * int, int) Hashtbl.t;
      (** (time, table) -> arrivals already logged — resume re-draws
          only beyond these *)
  applied : (int * int, float) Hashtbl.t;
      (** (time, table) -> recorded cost — resume no-ops these actions *)
  lsn : int;  (** end of the committed log *)
  replayed : int;  (** log records replayed past the checkpoint *)
  checkpoint_lsn : int;  (** -1 when recovering from genesis *)
  manifest : Manifest.t;  (** the one recovery loaded *)
}

val recover :
  dir:string ->
  view_of:(Relation.Table.t array -> Ivm.Viewdef.t) ->
  fresh:(unit -> Ivm.Maintainer.t) ->
  (state, string) result
(** [view_of] rebuilds the view definition over checkpoint-restored
    tables; [fresh] supplies the genesis maintainer when no checkpoint
    exists yet.  Telemetry: [durable.recovery_ms] (gauge),
    [durable.replayed_records]. *)
