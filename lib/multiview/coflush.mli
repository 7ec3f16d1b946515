(** The co-flush rule of {!Coordinator} and [Serve.Service]: who joins a
    forced flush, what a budget refuses, what a group costs, and which
    rounds need a journal record.

    When some participant's §4.3 ONLINE controller forces it to flush
    base table [i], every other participant whose own table-[i] flush is
    nearly due — pending at least 60% of the largest batch its refresh
    budget allows — joins with its whole pending batch: the co-flush
    replaces an imminent solo flush and shares the table's setup work.
    Joining with a small batch would add setups without removing future
    flushes.  A group's discount is its cheapest member's share, and a
    join happens only into a group that still earns a positive discount
    with it: a zero discount invites no one. *)

type participant = {
  pending : int array;  (** modifications waiting, per base table *)
  capacity : int -> int;  (** largest batch of table [i] its budget allows *)
  cost : int -> int -> float;  (** [cost i k]: model cost of a [k]-batch *)
  shared : int -> float;  (** its share of a co-flush of table [i], >= 0 *)
}

type round = {
  rows : int array array;  (** per participant, the final batch row *)
  shed : int list;  (** one entry per join the budget refused, in order *)
}

val invite : ?budget:float -> participant array -> int array array -> round
(** [invite ?budget parts forced] adds the joins to the forced rows
    ([forced] is not mutated), tables in index order, participants in
    array order within a table.  A join is refused when it would take
    the round's model cost past [budget]: the running cost starts at the
    forced rows' cost (participant-major) and grows with each join. *)

type member = { who : int; cost : float; shared : float }

val groups : participant array -> int array array -> member list list
(** One group per table with a flusher, in table order, each listing
    its members last participant first. *)

val journalled : member list list -> bool
(** Whether some group has two or more members: a round whose decision
    a crash could not re-derive from each participant's controller. *)

val discount : member list -> float
(** The cheapest member's share; [infinity] for no members. *)

val price : member list -> float * float
(** [(charged, raw)]: [raw] sums the costs in list order; [charged]
    subtracts the {!discount} once per member beyond the first, but
    never goes below the dearest member's cost.  Raises
    [Invalid_argument] on a negative share. *)
