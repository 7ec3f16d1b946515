(** Crash-recoverable plan execution.

    [run] executes a maintenance plan through [Bridge.Runner.execute],
    journalling every arrival and every applied batch ({!Journal}) and
    checkpointing periodically, so a process killed anywhere can
    [resume] and finish with the *same* final view contents and the
    same total cost, bit for bit.  Replay is the run itself: from the
    checkpoint's state and step, with the deterministic feeds
    fast-forwarded by the checkpoint's draws, the plan runs again while
    the journal holds the log tail, and every record a step makes must
    be the next one of the tail, so a forged or damaged record is
    refused naming its step ([WAL replay at t=N]).  Once the tail is
    used up, the same run appends to the log.

    The directory holds [MANIFEST] (the scenario parameters and at most
    one checkpoint), that checkpoint's [ckpt-*.ckpt] image, and the
    group log ({!Groupwal}) under {!Fsutil.group_dir}, where one handle
    tagged {!Recovery.tenant} journals.  The handle's forcing policy is
    [config.sync]; a checkpoint closes the window before capturing, and
    once adopted truncates the log below its LSN.

    Commit points: one log commit per step for that step's arrivals,
    one per applied batch.  A crash between a batch and its commit
    merely re-executes the batch deterministically on resume.  A
    checkpoint due after step [t] is taken before the hook sees
    [Step_start (t + 1)], unless fewer than [ckpt_actions] batches of
    the plan are left to apply: the final checkpoint would supersede it
    before it paid off. *)

type config = {
  dir : string;  (** durability directory (created by {!run}, parents too) *)
  segment_bytes : int;  (** log rotation threshold *)
  ckpt_actions : int;  (** checkpoint every N applied actions… *)
  ckpt_bytes : int;  (** …or every M bytes of log, whichever first *)
  sync : Wal.sync;  (** the journal handle's forcing policy *)
  hook : Hook.point -> unit;  (** crash-point instrumentation *)
  pool : Parallel.Pool.t option;
      (** when present (and multi-domain), a checkpoint's
          serialization, data fsync, manifest update (strictly after the
          data fsync, so a crash anywhere recovers to a valid checkpoint)
          and removal of the superseded image run as one background pool
          job; the maintenance thread only captures, and adopts the saved
          manifest (truncating the log) once the job settles.  [None]
          (default): synchronous checkpoints.  Telemetry:
          [durable.ckpt_stall_ms], the maintenance thread's own wall time
          on checkpoint work. *)
}

val default_config : dir:string -> config
(** 256 KiB segments, checkpoint every 64 actions or 512 KiB of log,
    [Wal.Always], no hook, no pool (synchronous checkpoints). *)

type env = {
  fresh : unit -> Ivm.Maintainer.t * Tpcr.Updates.feeds;
      (** rebuild the genesis state — must be deterministic (seeded) *)
  view_of : Relation.Table.t array -> Ivm.Viewdef.t;
      (** re-erect the view definition over checkpoint-restored tables *)
  spec : Abivm.Spec.t;
  plan : Abivm.Plan.t;
  params : (string * string) list;
      (** persisted in the manifest so a later process can rebuild [env] *)
}

type outcome = {
  total_cost : float;
  rows : Relation.Tuple.t list;
  consistent : bool;  (** final [Maintainer.check_consistent] *)
  recovered : bool;  (** this outcome came from a resume *)
  replayed : int;  (** tail records the run matched before appending *)
  checkpoints : int;  (** checkpoints written by this process *)
  steps_run : int;  (** plan steps this process executed *)
  lsn : int;
}

val run : config -> env -> outcome
(** Fresh start; calls [env.fresh] once.  Raises [Failure] if [config.dir]
    already holds a durable run (resume that instead with {!resume}, the
    CLI's [durable recover] — never silently overwrite one) and
    [Invalid_argument] if [Bridge.Runner.check] refuses the plan, both
    before anything is written; then creates [config.dir] and any
    missing parent, writes the manifest, and runs {!resume}'s path.
    Raises [Failure] if a damaged log already lies under it; re-raises
    [Hook.Crash]. *)

val resume : config -> env -> (outcome, string) result
(** {!Recovery.restore}, open the log once, and run the plan from the
    checkpoint's step to the horizon, the journal holding the tail that
    opening the log returned.  Checkpoints count appended batches only,
    so none is taken while the tail is held.  [Error] on recovery
    failure, if [Bridge.Runner.check] refuses the plan from the
    checkpoint's step on the restored queues, if a step parts from the
    tail ({!Journal.Diverged}), or if the tail runs past the plan.
    Telemetry: [durable.replayed_records]. *)

val verify : config -> env -> (Recovery.state, string) result
(** {!resume}'s replay, read-only ({!Groupwal.read}; no hooks, appends
    or checkpoints): it stops before a step draws an arrival, or starts
    an action, that the tail does not hold.  Then deep-check the view
    against a from-scratch evaluation over its base tables.  [cost],
    [draws], [lsn] and [replayed] run through the tail's last record;
    [next_step] is the checkpoint's. *)
