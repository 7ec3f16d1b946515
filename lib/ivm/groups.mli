(** Incrementally maintained grouped aggregates over a stream of signed
    tuples.

    Each group keeps its member count (COUNT) and, per aggregated column,
    a mutable counted bag of that column's non-NULL values, updated in
    place.  MIN/MAX read cached extrema; deleting the last copy of one
    marks them stale, and the next read rescans the bag — the auxiliary
    state the paper alludes to ("the case when MIN is not incrementally
    maintainable").  SUM and AVG fold the bag: integers in any order,
    floats in ascending value order.  A view without GROUP BY keeps its one
    group outside the group table. *)

type t

val create :
  schema:Relation.Schema.t ->
  group_by:string list ->
  specs:Relation.Agg.spec list ->
  t
(** [schema] is the schema of incoming (joined) tuples. *)

val copy : t -> t
(** An independent copy with the same groups, in the same iteration
    order: O(stored values), since every bag is copied. *)

val apply : t -> Relation.Tuple.t -> int -> unit
(** [apply g tuple count] adds ([count > 0]) or removes ([count < 0])
    occurrences of the tuple.  Raises [Invalid_argument], changing
    nothing, when a removal would take the group's members below zero or
    a value below zero copies (an inconsistent delta stream). *)

val add_batch : t -> Relation.Batch.t -> unit
(** Add one occurrence of every selected row of a batch — {!apply} with
    count 1, reading only the group-by and aggregated columns, which the
    batch's schema must carry under their joined-schema names. *)

val group_count : t -> int
(** Number of non-empty groups.  With [group_by = \[\]] this is 0 or 1, but
    {!rows} still renders the SQL-style single row over no input. *)

val rows : t -> Relation.Tuple.t list
(** Current aggregate rows: group-by values followed by aggregate values in
    spec order, sorted by group key for determinism.  With an empty
    [group_by], exactly one row (aggregates of the empty bag if no input
    remains).  A read may rescan a bag whose extremum was deleted. *)

val output_schema : t -> Relation.Schema.t
