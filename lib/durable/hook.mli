(** Crash-point instrumentation for the durability subsystem.

    Every durability-relevant boundary — a WAL group commit, a segment
    rotation, each stage of a checkpoint, a manifest update, a log
    truncation — fires a {!point} through the hook installed in
    {!Exec.config}.  A test hook may raise {!Crash} to simulate the
    process dying exactly there; the crash-matrix test does so at every
    point in turn and checks that recovery reproduces the uninterrupted
    run bit for bit.  This composes with [Robust.Inject]: the injected
    scenario perturbs the world, the hook perturbs the process. *)

exception Crash of string
(** Raised by killing hooks; carries the description of the point. *)

type point =
  | Step_start of int  (** about to execute time step [t] *)
  | Committed of { lsn : int }  (** a log batch joined the open window *)
  | Rotated of { start : int }  (** a fresh segment starting at [start] is open *)
  | Ckpt_temp of string  (** checkpoint temp file fully written *)
  | Ckpt_done of string  (** checkpoint renamed into place *)
  | Manifest_updated  (** manifest rewritten (rename done) *)
  | Truncated of { upto : int }  (** WAL segments below [upto] deleted *)
  | Window_closed of { lsn : int }
      (** a shared group-commit window was fsynced at [lsn] *)

val describe : point -> string

val none : point -> unit
(** The default hook: ignore every point. *)

val crash_after : n:int -> point -> unit
(** A hook that raises {!Crash} on the [n]-th point it sees (0-based)
    and ignores the rest.  Each call to [crash_after] returns an
    independent counter when partially applied: bind it once
    ([let hook = Hook.crash_after ~n:3]) and pass [hook] around. *)

val counting : unit -> (point -> unit) * (unit -> point list)
(** A hook that records every point, and a function returning them in
    firing order — used to enumerate the crash matrix. *)
