(** Crash-recoverable plan execution.

    [run] executes a maintenance plan through [Bridge.Runner.execute],
    journalling every arrival and every applied batch and checkpointing
    periodically, so a process killed anywhere can
    [resume] and finish with the *same* final view contents and the
    same total cost, bit for bit.  The idempotence argument: an
    [Applied] record in the log makes the plan's batch at that [(time,
    table)] a no-op on resume (its cost was already re-accumulated
    during replay), and arrival draws beyond the journalled ones are
    re-drawn from the deterministic feeds fast-forwarded by the
    recovered per-table draw counts.

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
          serialization, data fsync, manifest update and removal of the
          superseded image run as one background pool job, the manifest
          strictly after the data fsync, so a crash at any point
          recovers to a valid checkpoint; the maintenance thread only
          captures, and adopts the saved manifest (truncating the log)
          once the job settles.
          [None] (default) keeps the original synchronous path.
          Telemetry: [durable.ckpt_stall_ms] accumulates the wall time
          the maintenance thread itself spends on checkpoint work. *)
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
  replayed : int;  (** log records replayed before resuming *)
  checkpoints : int;  (** checkpoints written by this process *)
  steps_run : int;  (** plan steps this process executed *)
  lsn : int;
}

val run : config -> env -> outcome
(** Fresh start; calls [env.fresh] once.  Raises [Failure] if [config.dir]
    already holds a durable run (resume that instead — never silently
    overwrite one) and [Invalid_argument] if [Bridge.Runner.check] refuses
    the plan, both before anything is written; then creates [config.dir]
    and any missing parent.  Raises [Failure] if a damaged log already
    lies under it; re-raises [Hook.Crash]. *)

val resume : config -> env -> (outcome, string) result
(** Recover ({!Recovery.recover}), then continue the plan to the
    horizon.  Already-applied batches are skipped; already-logged
    arrivals are not re-drawn; the checkpoint bookkeeping continues from
    the manifest recovery loaded.  [Error] on recovery failure, if
    [Bridge.Runner.check] refuses what is left (arrivals less the logged
    ones, actions less the applied batches) on the recovered queues, or
    if the reopened log does not end where recovery's replay did. *)

val verify : config -> env -> (Recovery.state, string) result
(** Recover and deep-check (recovered view vs a from-scratch evaluation
    over the recovered base tables) without resuming execution — the
    read-only "is this directory healthy" probe. *)
