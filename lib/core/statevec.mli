(** Non-negative integer vectors indexing delta-table sizes.

    Both system states (pending modification counts per table) and plan
    actions (modifications processed per table) are such vectors. *)

type t = int array

val zero : int -> t
val copy : t -> t
val is_zero : t -> bool
val add : t -> t -> t
(** Componentwise sum; raises on length mismatch. *)

val sub : t -> t -> t
(** Componentwise difference; raises [Invalid_argument] if any component
    would go negative (an action cannot process more than is pending). *)

val add_in_place : t -> t -> unit
val leq : t -> t -> bool
(** Componentwise [<=]. *)

val total : t -> int
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
(** [Array.fold_left] over the components. *)

val equal : t -> t -> bool

val hash_seeded : seed:int -> t -> int
(** Allocation-free FNV-1a-style fold over {e every} component (generic
    [Hashtbl.hash] stops after a bounded prefix, which degrades hashtables
    keyed on wide vectors to near-linear probing).  [seed] mixes in outer
    context, e.g. a time step.  Always non-negative. *)

val hash : t -> int
(** {!hash_seeded} from the FNV offset basis. *)

val compare : t -> t -> int
val restrict_to : t -> int list -> t
(** [restrict_to s members] keeps [s.(i)] for [i] in [members], zero
    elsewhere — the greedy action flushing exactly those tables. *)

val support : t -> int list
(** Indices with non-zero components, ascending. *)

val to_string : t -> string
