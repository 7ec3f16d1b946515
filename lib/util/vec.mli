(** Growable array (OCaml 5.1 lacks [Dynarray]).

    Backs table row storage in {!Relation.Table} and various accumulators. *)

type 'a t

val create : unit -> 'a t
val make : int -> 'a -> 'a t
(** [make n x] is a vector of length [n] filled with [x]. *)

val length : 'a t -> int

val copy : 'a t -> 'a t
(** An independent vector with the same elements (shared, not copied). *)

val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option
(** Removes and returns the last element. *)

val clear : 'a t -> unit
val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val to_array : 'a t -> 'a array
val of_list : 'a list -> 'a t
val exists : ('a -> bool) -> 'a t -> bool
