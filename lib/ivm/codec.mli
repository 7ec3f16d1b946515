(** Text serialization of values, tuples, and modifications — the line
    format of WAL records, checkpoints and manifests.

    Values encode as type-prefixed literals ([i:42], [f:3.5], [s:text],
    [b:true], [null]); strings escape backslash, tab, newline and
    carriage return so a tuple is a single tab-separated line; floats
    print as [%h].  The one encoder is [add_*], straight into a buffer;
    [*_to_string] wrap it. *)

val add_int : Buffer.t -> int -> unit
val add_value : Buffer.t -> Relation.Value.t -> unit
val add_tuple : Buffer.t -> Relation.Tuple.t -> unit
val add_change : Buffer.t -> Change.t -> unit

val value_to_string : Relation.Value.t -> string
val value_of_string : string -> (Relation.Value.t, string) result

val tuple_to_string : Relation.Tuple.t -> string
val tuple_of_string : string -> (Relation.Tuple.t, string) result
(** The empty tuple encodes as [()]. *)

val change_to_string : Change.t -> string
val change_of_string : string -> (Change.t, string) result
