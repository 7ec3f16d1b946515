(** Atomic snapshots of maintenance state.

    A checkpoint captures everything recovery needs short of the WAL
    tail: the LSN it is consistent with, the next plan step, the exact
    cumulative cost bits, per-table feed-draw counts, the caller's
    scenario parameters, base-table images (schema, indexes, live rows
    in row-id order), the per-table delta queues, and the materialized
    view rows (kept for verification — recovery re-materializes the view
    from the tables and insists the two agree).

    {b Format} (version 2).  The line [abivm-ckpt<TAB>2], then the
    payload cut into frames of at most 64 KiB, each a 4-byte
    little-endian length, the 4-byte CRC-32 ({!Record.crc32_sub}) of the
    frame's bytes, and the bytes.  The payload holds codec lines for the
    scalars, params, queues and view rows, and after each table's [col]
    lines its column images ({!Relation.Table.encode_image}), unboxed.
    Every byte past the version line is under a CRC.

    Files are written to a temp name, fsynced, then renamed into place —
    a crash mid-checkpoint leaves at most a stray [.tmp] that recovery
    ignores because the manifest never learned about the checkpoint. *)

type table_snapshot = {
  name : string;
  columns : (string * Relation.Datatype.t) list;
  hash_indexed : string list;
  image : Relation.Table.image;  (** live rows in row-id order *)
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
(** Snapshot the maintainer's tables ({!Relation.Table.capture}: bitmaps
    copied, value buffers referenced, no row materialized), queues and
    view without touching any meter.  The maintainer may keep changing
    afterwards; the snapshot does not. *)

val filename : lsn:int -> string
(** [ckpt-<lsn, 12 digits>.ckpt]. *)

val write : dir:string -> ?hook:(Hook.point -> unit) -> t -> string
(** Write atomically into [dir]; returns the basename.  The tables
    stream through one 64 KiB chunk, a frame per chunk.  Fires
    [Hook.Ckpt_temp] after the temp file is complete and fsynced and
    [Hook.Ckpt_done] after the rename and the directory fsync. *)

type 'a inflight
(** A checkpoint being written on a pool worker. *)

val write_async :
  dir:string ->
  ?hook:(Hook.point -> unit) ->
  pool:Parallel.Pool.t ->
  commit:(string -> 'a) ->
  t ->
  'a inflight
(** One background pool job that runs {!write}, then [commit] on the
    returned basename — so whatever [commit] publishes (a manifest
    naming the file) strictly follows the data fsync (ARIES ordering).
    With a 1-domain pool the job runs inline before returning. *)

val poll : 'a inflight -> [ `Running | `Done | `Failed ]

val await : 'a inflight -> 'a
(** Block until the job finishes; returns [commit]'s result.  Re-raises
    the job's exception (e.g. an injected [Hook.Crash]) if it failed. *)

val load : string -> (t, string) result
(** Read a checkpoint file; [Error] describes the first defect (a frame
    failing its CRC, a short file, a malformed line, an impossible
    count) and never raises.  A file of another format version —
    version 1 wrote the tables as text rows — is refused with an [Error]
    naming its version. *)

val restore_tables : t -> Relation.Table.t array
(** Rebuild the base tables by bulk load ({!Relation.Table.of_image}) on
    a fresh shared meter, then build each hash index once: the same
    tables, row ids and indexes that inserting the rows one by one
    would give. *)
