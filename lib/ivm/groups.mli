(** Incrementally maintained grouped aggregates over a stream of signed
    tuples.

    Each group keeps its member count and, per aggregated column, a
    {!Relation.Vmultiset.t} of that column's values.  The multiset makes
    MIN/MAX maintainable under deletions — when the current extremum
    disappears the next one is exposed — which is the auxiliary state the
    paper alludes to ("the case when MIN is not incrementally
    maintainable").  COUNT/SUM/AVG fall out of the same structure. *)

type t

val create :
  schema:Relation.Schema.t ->
  group_by:string list ->
  specs:Relation.Agg.spec list ->
  t
(** [schema] is the schema of incoming (joined) tuples. *)

val copy : t -> t
(** An independent copy with the same groups, in the same iteration
    order. *)

val apply : t -> Relation.Tuple.t -> int -> unit
(** [apply g tuple count] adds ([count > 0]) or removes ([count < 0])
    occurrences of the tuple.  Raises [Invalid_argument] when removing from
    a group below zero (indicates an inconsistent delta stream). *)

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
    remains). *)

val output_schema : t -> Relation.Schema.t
