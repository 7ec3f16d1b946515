(** Multimap from unboxed [int] keys to [int] payloads.

    The allocation-free inner structure of the vectorized hash join and
    delta-probe paths: open-addressed slots over plain int arrays, with the
    payloads of one key chained in insertion order.  Neither {!add} nor
    {!iter_matches} boxes the key. *)

type t

val create : int -> t
(** [create hint] — sized for about [hint] payloads.  The hint is
    clamped (negative, zero and pathologically large values are safe);
    the table grows on demand regardless of the initial size. *)

val length : t -> int

val clear : t -> unit
(** Empty the table, keeping the room it has grown to. *)

val add : t -> int -> int -> unit
(** [add h key payload]. *)

val iter_matches : t -> int -> (int -> unit) -> unit
(** Apply to every payload of [key], in insertion order. *)

val first : t -> int -> int
(** Head chain cell of a key, [-1] if the key is absent — with
    {!next_cell} / {!payload_of}, a closure-free alternative to
    {!iter_matches} for hot probe loops. *)

val next_cell : t -> int -> int
val payload_of : t -> int -> int

val mem : t -> int -> bool
