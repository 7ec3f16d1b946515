(** FIFO delta queue for one base table.

    Arrivals are appended; the maintainer removes the earliest [k]
    modifications when the planner's action says to process them. *)

type t

val create : unit -> t
val copy : t -> t
(** An independent queue holding the same modifications. *)

val push : t -> Change.t -> unit
val size : t -> int
val take : t -> int -> Change.t list
(** [take q k] removes and returns the earliest [k] modifications in
    arrival order.  Raises [Invalid_argument] if fewer than [k] are
    pending. *)

val take_at_most : t -> int -> Change.t list
(** [take_at_most q k] removes and returns the earliest [min k (size q)]
    modifications — the forgiving variant rescue and recovery paths use
    when a plan's action may exceed what actually arrived.  Raises
    [Invalid_argument] only on negative [k]. *)

val peek_all : t -> Change.t list
(** All pending modifications in arrival order, without removing them. *)

val clear : t -> unit
