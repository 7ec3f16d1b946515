(** Rebuilding maintenance state from a [Durable.Exec] directory.

    The directory holds [MANIFEST], at most one [ckpt-*.ckpt] it names,
    and the group log under {!Fsutil.group_dir}.  Recovery loads the
    manifest's checkpoint (or, with none yet, the caller's genesis
    state), rebuilds the base tables, lets the caller re-erect the view
    definition over them, re-materializes the view, and *verifies* the
    result against the checkpoint's recorded view rows before trusting
    it.  The log tail past the checkpoint's LSN is replayed by
    [Durable.Exec], which runs its plan against it.  A tail that holds a
    record under any tag but {!tenant} (another tenant's, or a serve
    co-flush) is not a plan's log and is refused, as is a directory in
    the old layout (WAL segments directly under it).

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
  lsn : int;  (** end of the replayed log *)
  replayed : int;  (** log records replayed past the checkpoint *)
  checkpoint_lsn : int;  (** -1 when recovering from genesis *)
  manifest : Manifest.t;  (** the one recovery loaded *)
}

val restore :
  dir:string ->
  view_of:(Relation.Table.t array -> Ivm.Viewdef.t) ->
  fresh:(unit -> Ivm.Maintainer.t) ->
  (state, string) result
(** The state at the manifest's checkpoint, nothing replayed: [lsn] is
    where the log tail starts.  [view_of] rebuilds the view definition
    over checkpoint-restored tables; [fresh] supplies the genesis
    maintainer when no checkpoint exists yet. *)

val own_records : Groupwal.contents -> (Record.t list, string) result
(** Exec's records of a log tail, oldest first; an [Error] naming the
    foreign tenant, or the co-flush, when the tail holds another tag's
    record. *)

val recover :
  dir:string ->
  view_of:(Relation.Table.t array -> Ivm.Viewdef.t) ->
  fresh:(unit -> Ivm.Maintainer.t) ->
  (state, string) result
(** {!restore}, then {!Groupwal.read} the tail and refuse a non-empty
    one: the read-only state of a finished (or freshly checkpointed)
    directory.  A tail of [n] records is an [Error] naming [n]: only
    the run's plan can replay it ([abivm durable verify], which runs
    [Exec.verify]).  Telemetry: [durable.recovery_ms] (gauge). *)
