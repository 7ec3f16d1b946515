(** Exact globally optimal plans by dynamic programming over all valid
    plans — including non-lazy, non-greedy, non-minimal ones.

    Exponential in delta sizes and table count; intended for small test
    instances that validate Theorem 1's factor-2 bound and Theorem 2's
    equality for affine costs.  The §3.2 tightness construction needs this
    to realize the non-LGM plan that LGM plans cannot express. *)

exception Too_large of string
(** Raised when the search would exceed the configured budget. *)

val solve : ?max_expansions:int -> Spec.t -> float * Plan.t
(** [solve spec] returns the minimum total maintenance cost and a plan
    achieving it.  [max_expansions] (default [2_000_000]) bounds the number
    of (state, action) combinations explored before {!Too_large} is
    raised.  Candidate actions are enumerated lazily (odometer order, one
    scratch vector) and the budget check runs during enumeration, so the
    bound limits memory as well as time — an instance whose candidate set
    is astronomically large raises {!Too_large} instead of exhausting
    memory materializing it.

    When the {!Telemetry} collector is enabled each solve books the
    [exact.expansions] and [exact.key_collisions] counters and the
    [exact.live_peak] gauge (peak memoized states), also on a
    {!Too_large} exit. *)
