(** Imperative min-priority queue: a two-pass pairing heap in flat arrays.

    Used by the A* planner ({!Abivm.Astar}), where the value is a node
    id, the priority its path estimate f = g + h, and the payload the g
    it was pushed with (the caller's lazy-deletion test).  Duplicate
    insertions of one value with different priorities are allowed; stale
    entries are skipped by the caller.

    An entry is a slot of five parallel arrays (value, priority, payload,
    first child, next sibling); a popped slot goes on a free list and is
    reused by the next push.  Once the arrays have grown to the peak
    size, neither [push] nor [pop] allocates.

    {b Tie order.}  Pops are deterministic and depend only on the
    sequence of pushes and pops, never on the values or payloads.  They
    follow the classical pairing heap exactly: a push melds the new
    entry into the root; a pop melds the root's children pairwise left
    to right (most recently attached child first), then folds the pairs
    right to left; and every meld of [a] with [b] keeps [a] on top when
    [priority a <= priority b], the loser becoming [a]'s first child.
    In a push's meld [a] is the old root; in the pair pass, the earlier
    child of each pair; in the fold, the earlier pair.  Equal priorities
    therefore pop neither first-in-first-out nor last-in-first-out, but
    in this fixed order, which A* relies on as its tie-break.  NaN
    priorities lose every comparison. *)

type t

val create : unit -> t
(** Fresh empty queue ordered by float priority (smallest first). *)

val is_empty : t -> bool
val length : t -> int

val push : t -> priority:float -> payload:float -> int -> unit

val pop : t -> int
(** Removes the minimum-priority entry and returns its value.  Read its
    priority and payload with {!peek_priority} and {!peek_payload}
    before the pop.  Raises [Invalid_argument] on an empty queue. *)

val peek_priority : t -> float
(** The priority of the entry the next {!pop} removes, left in place.
    Raises [Invalid_argument] on an empty queue, as does the next. *)

val peek_payload : t -> float
