(** Atomic snapshots of maintenance state.

    A checkpoint captures everything recovery needs short of the WAL
    tail: the LSN it is consistent with, the next plan step, the exact
    cumulative cost bits, per-table feed-draw counts, the caller's
    scenario parameters, full base-table snapshots (schema, indexes,
    rows in live order), the per-table delta queues, and the
    materialized view rows (kept for verification — recovery
    re-materializes the view from the tables and insists the two
    agree).

    Files are written to a temp name, fsynced, then renamed into place —
    a crash mid-checkpoint leaves at most a stray [.tmp] that recovery
    ignores because the manifest never learned about the checkpoint. *)

type table_snapshot = {
  name : string;
  columns : (string * Relation.Datatype.t) list;
  hash_indexed : string list;
  rows : Relation.Tuple.t list;  (** live rows in row-id order *)
}

type t = {
  lsn : int;  (** WAL records already reflected in this state *)
  next_step : int;  (** first plan step not yet fully executed *)
  cost : float;  (** cumulative executed cost, bit-exact *)
  draws : int array;  (** feed draws consumed per table *)
  params : (string * string) list;  (** caller scenario parameters *)
  tables : table_snapshot array;
  pending : Ivm.Change.t list array;  (** per-table delta queues, FIFO order *)
  view_rows : Relation.Tuple.t list;  (** for post-restore verification *)
}

val capture :
  lsn:int ->
  next_step:int ->
  cost:float ->
  draws:int array ->
  params:(string * string) list ->
  Ivm.Maintainer.t ->
  t
(** Snapshot the maintainer's tables, queues and view without touching
    any meter. *)

val filename : lsn:int -> string
(** [ckpt-<lsn, 12 digits>.ckpt]. *)

val write : dir:string -> ?hook:(Hook.point -> unit) -> t -> string
(** Write atomically into [dir]; returns the basename.  Fires
    [Hook.Ckpt_temp] after the temp file is complete and
    [Hook.Ckpt_done] after the rename. *)

type inflight
(** A checkpoint being serialized + fsynced on a pool worker. *)

val write_async :
  dir:string -> ?hook:(Hook.point -> unit) -> pool:Parallel.Pool.t -> t ->
  inflight
(** Hand the (already-detached) snapshot to a background pool task that
    runs {!write}.  With a 1-domain pool the write happens inline before
    returning — bit-identical to the synchronous path.  The caller MUST
    NOT update any manifest to reference the checkpoint until {!poll}
    reports done / {!await} returns: the data fsync inside the job must
    strictly precede the manifest update (ARIES ordering), otherwise a
    crash could leave a manifest pointing at a missing or torn file. *)

val poll : inflight -> [ `Running | `Done | `Failed ]

val await : inflight -> string
(** Block until the background write finishes; returns the basename.
    Re-raises the job's exception (e.g. an injected [Hook.Crash]) if it
    failed. *)

val load : string -> (t, string) result
(** Parse a checkpoint file; [Error] describes the first defect.  A
    column whose ordered-index flag is set (a feature tables no longer
    have) is refused with an [Error] naming the column. *)

val restore_tables : t -> Relation.Table.t array
(** Rebuild the base tables — fresh shared meter, rows inserted in
    snapshot order, then indexes — ready for the caller's view builder. *)
