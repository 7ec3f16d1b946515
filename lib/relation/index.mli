(** Secondary hash index: column value -> set of row ids.

    Indexes make the per-delta maintenance path cheap for a table whose join
    partner is indexed on the join attribute — the asymmetry the paper
    exploits. *)

type t

val create : column:int -> t
(** [column] is the indexed position within the owning table's schema. *)

val column : t -> int

val copy : t -> t
(** An independent index with the same entries and the same iteration
    order. *)

val add : t -> Value.t -> int -> unit
val remove : t -> Value.t -> int -> unit
(** No-op if the (value, row id) pair is absent. *)

val lookup : t -> Value.t -> int list
(** Row ids currently associated with the value, unordered. *)

val cardinality : t -> int
(** Number of distinct key values present. *)

val entry_count : t -> int
(** Total (value, row id) pairs present. *)
