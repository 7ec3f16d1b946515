(** Column-major row chunks: the unit of work of the vectorized engine.

    A batch is a window of up to {!capacity} consecutive rows over a set of
    {!Column.t}s ([base] .. [base + len - 1]) plus a {e selection vector}:
    the ascending relative row indices (in [\[0, len)]) that are logically
    present.  Operators narrow a batch by compacting [sel] in place
    (filters never copy column data) and widen/reorder it by building a
    fresh batch through {!Builder}.

    The record is exposed because vectorized kernels index the raw column
    buffers directly; treat the fields as read-only except [sel]/[n_sel],
    which the single consumer of a batch may rewrite. *)

val capacity : int
(** Rows per full batch (1024). *)

type t = {
  schema : Schema.t;
  cols : Column.t array;
  base : int;  (** absolute row of relative index 0 in [cols] *)
  len : int;  (** window width, before selection *)
  mutable sel : int array;  (** ascending relative indices; first [n_sel] live *)
  mutable n_sel : int;
}

val view :
  schema:Schema.t ->
  cols:Column.t array ->
  base:int ->
  len:int ->
  sel:int array ->
  n_sel:int ->
  t

val schema : t -> Schema.t
val length : t -> int
(** Selected rows. *)

val width : t -> int
val with_schema : t -> Schema.t -> t
(** Relabel columns (e.g. qualify a table scan); arity must match.  The
    result owns a private selection vector, as {!project}'s does. *)

val value : t -> int -> int -> Value.t
(** [value b col r] — [r] is a relative row index. *)

val tuple : t -> int -> Tuple.t
(** Materialize one relative row. *)

val iter_sel : (int -> unit) -> t -> unit
(** Iterate the selected relative indices in order. *)

val iter_tuples : (Tuple.t -> unit) -> t -> unit

val project : t -> int array -> Schema.t -> t
(** Column subset/reorder.  Column data is zero-copy (shared with the
    source), but the result owns a {e private} selection vector, so a
    later {!filter_in_place} on the projection cannot narrow the source
    batch under another consumer.  This is the engine's batch-ownership
    convention: whoever narrows a batch must own its selection. *)

val filter_in_place : t -> (int -> bool) -> unit
(** Keep only selected rows satisfying the predicate (given relative
    indices), preserving order. *)

module Builder : sig
  type batch = t
  type t

  val create : Schema.t -> t
  val rows : t -> int
  val full : t -> bool
  val append_join : t -> batch -> int -> batch -> int -> unit
  (** Append the concatenation of a left and a right batch row. *)

  val flush : t -> batch option
  (** The batch of everything appended since the last flush ([None] if
      empty); resets the builder. *)
end

val of_tuples : Schema.t -> Tuple.t list -> t list
val to_tuples : t -> Tuple.t list
