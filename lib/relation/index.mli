(** Secondary hash index: column value -> row ids.

    Indexes make the per-delta maintenance path cheap for a table whose join
    partner is indexed on the join attribute — the asymmetry the paper
    exploits.

    Each key's row ids sit in one flat int array, in ascending row-id
    order.  That order is part of the contract: {!iter} and {!find_first}
    walk a bucket in it, so a probe's partials and
    {!Table.delete_tuple}'s choice among equal rows (the lowest live row
    id) do not depend on the order of inserts and deletes. *)

type t

val create : column:int -> t
(** [column] is the indexed position within the owning table's schema. *)

val column : t -> int

val copy : t -> t
(** An independent index with the same entries and the same iteration
    order. *)

val add : t -> Value.t -> int -> unit
(** No-op if the (value, row id) pair is present. *)

val remove : t -> Value.t -> int -> unit
(** No-op if the (value, row id) pair is absent. *)

val size : t -> Value.t -> int
(** Number of row ids associated with the value. *)

val iter : t -> Value.t -> (int -> unit) -> unit
(** [iter idx v f] calls [f] on every row id associated with [v], in
    ascending order, building nothing.  [f] must not modify [idx]. *)

val find_first : t -> Value.t -> (int -> bool) -> int
(** The lowest row id associated with the value that satisfies the
    predicate, or [-1]. *)

val cardinality : t -> int
(** Number of distinct key values present. *)

val entry_count : t -> int
(** Total (value, row id) pairs present. *)
