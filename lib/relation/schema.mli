(** Relation schemas: ordered, named, typed columns.

    Column names may be qualified ("ps.suppkey").  Name resolution accepts
    either an exact match or an unambiguous suffix match on the unqualified
    part, so expressions can say [suppkey] when only one joined input has
    that column and [ps.suppkey] when several do. *)

type column = { name : string; ty : Datatype.t }
type t

val make : (string * Datatype.t) list -> t
(** Raises [Invalid_argument] on duplicate column names. *)

val columns : t -> column array
val arity : t -> int
val column_name : t -> int -> string
val column_type : t -> int -> Datatype.t

val index_of : t -> string -> int
(** Resolve a (possibly qualified) column reference.  Raises
    [Invalid_argument] when the name is unknown or ambiguous. *)

val find_index : t -> string -> int option
(** Like {!index_of} but returns [None] instead of raising on unknown names
    (still raises on ambiguity). *)

val mem : t -> string -> bool

val qualify : string -> t -> t
(** [qualify alias s] renames every column ["c"] to ["alias.c"], stripping
    any existing qualifier first. *)

val concat : t -> t -> t
(** Schema of a join output.  Raises [Invalid_argument] if the two
    inputs share a column name. *)

val project : t -> string list -> t * int array
(** [project s names] returns the projected schema (columns keep their full
    source names) together with the source positions.  Raises
    [Invalid_argument] if the same column is projected twice. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
