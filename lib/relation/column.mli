(** Unboxed growable column storage.

    One column holds the values of one attribute for a run of rows: ints and
    floats in [Bigarray] buffers, strings dictionary-encoded as int codes,
    bools as a bitmap.  NULLs live in a validity bitmap; the value slot of a
    null row is a zero filler.  A [TFloat] column additionally tracks which
    slots arrived as [Value.Int] (the schema admits int widening) so
    {!get} reconstructs the original constructor exactly.

    Columns are append-only: a value, once appended, is never rewritten,
    and growth copies into a fresh buffer and leaves the old one as it
    was.  {!capture} relies on this to keep the value buffers by
    reference.  Vectorized operators read the raw buffers through {!int_data} /
    {!float_data} / {!codes} / {!validity} and must bound their indices by
    {!length} themselves (buffers have spare capacity past the end). *)

type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type float_ba =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t

val create : ?capacity:int -> Datatype.t -> t
(** [capacity] (default 64) is the number of slots allocated up front;
    appends past it double the buffers. *)

val length : t -> int

val copy : t -> t
(** A deep copy: its own buffers, bitmaps, string dictionary and exact
    side table, so appending to either column leaves the other as it
    was. *)

val append : t -> Value.t -> unit
(** Raises [Invalid_argument] if the value does not fit the column's type
    (callers validate with [Tuple.conforms] first). *)

val get : t -> int -> Value.t

val hash_cell : t -> int -> int
(** [hash_cell c i = Value.hash (get c i)], read from the unboxed buffers
    without allocating; a string column reads its dictionary entry's
    hash, computed once when the string was interned. *)

val fold_hashes : t -> from:int -> int array -> len:int -> unit
(** [fold_hashes c ~from acc ~len] sets [acc.(i) <- acc.(i) * 31 +
    hash_cell c (from + i)] for [i < len], in one pass over the unboxed
    buffers: run once per column over an array of 17s, it yields the
    rows' {!Tuple.hash}es.  [Invalid_argument] if a row is out of the
    column or [acc] is shorter than [len]. *)

val append_from : t -> t -> int -> unit
(** [append_from dst src i] appends row [i] of [src] to [dst] without
    boxing when the payload representations match (same-type columns;
    string columns additionally need a physically shared dictionary). *)

(** {1 Unboxed views}

    Bit [i land 7] of byte [i lsr 3] in a bitmap corresponds to row [i];
    {!bit} / {!set_bit} / {!clear_bit} implement that convention. *)

val validity : t -> Bytes.t
(** Set bit = non-null.  The returned bytes alias the column's live bitmap
    and grow (i.e. are replaced) on append — re-fetch per batch. *)

val int_data : t -> int_ba
(** Raw buffer of a [TInt] column ([Invalid_argument] otherwise). *)

val float_data : t -> float_ba
(** Raw buffer of a [TFloat] column.  Slots flagged "intish" hold
    [float_of_int] of the original value — exactly the image that
    [Value.compare]'s cross-numeric comparison uses, so kernels may compare
    on this buffer without consulting the flag. *)

val codes : t -> int_ba
(** Dictionary codes of a [TString] column. *)

val dict_string : t -> int -> string
(** Decode one dictionary code. *)

val bit : Bytes.t -> int -> bool
val set_bit : Bytes.t -> int -> unit
val clear_bit : Bytes.t -> int -> unit

(** {1 Images}

    A column's rows [0 .. rows - 1] as of one moment, for checkpoints.
    Only this module knows the encoding of a column's payload. *)

type image

val capture : t -> image
(** An image of the column as it is now.  Copies the bitmaps, the string
    dictionary's prefix and the exact side table (appends can still
    change those); keeps the int, float and code buffers by reference,
    so later appends never show in the image.  Cheap enough for the
    maintenance thread; reading the image afterwards is safe from any
    domain while the column keeps growing. *)

val encode : image -> live:Bytes.t -> Util.Bin.writer -> unit
(** Write the rows whose bit is set in [live], in row order: the
    validity bitmap, then the values, unboxed.  A string column writes
    only the dictionary entries those rows use, renumbered in order of
    first appearance. *)

val decode : Datatype.t -> rows:int -> Util.Bin.reader -> image
(** Read what {!encode} wrote for [rows] live rows: an image whose rows
    are all live.  [Util.Bin.Corrupt] on a short or impossible payload. *)

val of_image : Datatype.t -> image -> live:Bytes.t -> t
(** A column holding the image's live rows, densely: the same column,
    dictionary included, that appending those values one by one would
    build.  [Invalid_argument] if the image holds another type. *)
