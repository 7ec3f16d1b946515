(** Mutable in-memory tables with optional hash indexes and cost
    metering.

    Storage is columnar: each attribute lives in a growable unboxed
    {!Column.t}, rows are addressed by id, and deletion clears the row's
    bit in a liveness bitmap (the tombstone).  Rows are append-only: an
    insert appends to every column and a delete only clears the row's
    liveness bit, so no column slot is ever rewritten ({!capture} relies
    on this).  Row-at-a-time accessors
    ({!get_row}, {!scan}, {!to_list}) materialize boxed tuples on demand;
    the vectorized engine reads whole {!Batch.t} chunks through
    {!batch_cursor} / {!scan_batches} without materializing anything.
    Every read/write path bumps the table's {!Meter.t}, which is typically
    shared across all tables of a database so an experiment can measure
    total work. *)

type t

val create : ?meter:Meter.t -> name:string -> schema:Schema.t -> unit -> t
(** A fresh empty table.  If [meter] is omitted a private meter is made. *)

val copy : meter:Meter.t -> t -> t
(** A deep copy metered on [meter]: same name, schema, rows (tombstones
    and row ids included) and indexes, sharing nothing mutable with the
    original, so either can be modified without the other seeing it.
    Unmetered. *)

val name : t -> string
val schema : t -> Schema.t
val meter : t -> Meter.t
val row_count : t -> int
(** Live rows (excluding tombstones). *)

val insert : t -> Tuple.t -> int
(** Returns the new row id.  Raises [Invalid_argument] if the tuple does not
    conform to the schema. *)

val get_row : t -> int -> Tuple.t option
(** [None] for deleted or out-of-range ids. *)

val delete_row : t -> int -> bool
(** [true] iff the row existed and was deleted. *)

val delete_tuple : t -> Tuple.t -> bool
(** Delete the live row with the lowest id among those equal to the
    tuple, found through the index with the most distinct keys (its
    bucket walked in place, one probe and one entry per id in the bucket
    metered), or by a scan when the table has no index.  [false] if no
    match. *)

val distinct_rows : t -> bool
(** Whether no two live rows share a {!hash_row}, so that no two live
    rows are equal: a conservative certificate of a duplicate-free
    table, [false] on a mere hash collision.  The first call builds it
    in one columnar pass over the table (one multiset of hashes in a
    flat [int array]); from then on {!insert} and {!delete_row} keep it
    exact as they go, and {!copy} carries it.  Unmetered. *)

val create_index : t -> string -> unit
(** Build a hash index on the named column (idempotent). *)

val has_index : t -> string -> bool

val iter_ids : t -> string -> Value.t -> (int -> unit) -> unit
(** [iter_ids t col v f] calls [f] on the id of every live row whose
    column [col] holds [v], in ascending row-id order, through the
    column's index and without building a list.  Raises
    [Invalid_argument] if the column has no index.  Bumps one probe, and
    one entry per id.  [f] must not modify the table. *)

val lookup : t -> string -> Value.t -> Tuple.t list
(** The rows {!iter_ids} visits, materialized, in the same order and
    metered the same. *)

(** {1 Row-id access}

    Reads of one row by id, for kernels that carry row ids instead of
    tuples.  None of them touches the meter — the scan or probe that
    produced the id already paid for the row — and none checks liveness. *)

val cell : t -> int -> int -> Value.t
(** [cell t row c] — the value in column position [c]. *)

val hash_row : t -> int -> int
(** [hash_row t row = Tuple.hash] of the row, computed from the unboxed
    columns without materializing it. *)

val equal_rows : t -> int -> int -> bool
(** Whether two rows hold equal values ({!Tuple.equal}). *)

val blit_row : t -> int -> Tuple.t -> int -> unit
(** [blit_row t row dst off] writes the row's values into
    [dst.(off) .. dst.(off + arity - 1)]. *)

val scan : t -> (int -> Tuple.t -> unit) -> unit
(** Iterate all live rows; bumps the sequential-scan counter per live row. *)

val batch_cursor : ?metered:bool -> t -> unit -> Batch.t option
(** Pull-based chunked scan: successive calls yield windows of up to
    [Batch.capacity] rows (tombstones dropped from the selection vector),
    then [None].  Row ids are [batch.base + r] for relative index [r].
    Metered like {!scan} — the scan counter advances by the batch's live
    rows in one bump, plus one batch-granularity tick — unless
    [metered:false].  The cursor pins the row count at creation; rows
    appended afterwards are not yielded. *)

val scan_batches : ?metered:bool -> t -> (Batch.t -> unit) -> unit
(** Drain {!batch_cursor}. *)

val to_list : t -> Tuple.t list
(** Every live row in row-id order, metered like {!scan}. *)

val to_list_unmetered : t -> Tuple.t list
(** Like {!to_list} but without touching the meter — for snapshots and test
    assertions that must not perturb cost measurements. *)

(** {1 Images}

    A table's live rows as of one moment, for checkpoints: taken on the
    maintenance thread without materializing a row, written later from
    any domain, and loaded back in bulk. *)

type image

val capture : t -> image
(** Copies the liveness bitmap and {!Column.capture}s every column;
    O(rows / 8) bytes copied, no row materialized.  Inserts and deletes
    on the table afterwards do not show in the image. *)

val image_rows : image -> int
(** Live rows in the image. *)

val encode_image : image -> Util.Bin.writer -> unit
(** Every column's live rows in row-id order ({!Column.encode}), column
    by column in schema order.  Safe on another domain while the table
    keeps changing. *)

val decode_image : Schema.t -> rows:int -> Util.Bin.reader -> image
(** Read what {!encode_image} wrote for a table of this schema with
    [rows] live rows.  [Util.Bin.Corrupt] on a short or bad payload. *)

val of_image : ?meter:Meter.t -> name:string -> schema:Schema.t -> image -> t
(** A table holding the image's live rows under dense row ids [0 ..
    image_rows - 1], in row-id order and without indexes: the table that
    inserting those rows one by one into a fresh table would build.
    Unmetered. *)
