(** Packed [(time, state)] keys for the exact DP's memo table and any
    future search keyed on a timed state; A*'s flat node store hashes
    with {!hash_of}.

    The previous scheme — [(t, Array.to_list s)] under generic
    [Hashtbl.hash] — allocated a fresh list per key and hashed only a
    bounded prefix of it, so wide schemas collapsed onto few buckets and
    probing degraded toward linear scans.  A key here wraps the state
    array itself (no copy, no per-lookup allocation) together with a
    precomputed FNV-style hash folded over the time and {e every}
    component; [equal] compares the arrays in place.

    Ownership: the key aliases the state array.  Callers must hand over a
    state that is never mutated afterwards (the planners only ever build
    keys from freshly allocated vectors). *)

type t

val make : time:int -> Statevec.t -> t
(** Aliases [state]; see the ownership note above.  The FNV fold over time
    and every component is followed by an avalanche finalizer so hash
    quality holds at any state width — partitioned specs double the table
    count, and the [Tbl] buckets read the mixed value.  Raises
    [Invalid_argument] if [time < -1] ([-1] is the A* virtual source;
    plan times are non-negative). *)

val time : t -> int
val state : t -> Statevec.t

val equal : t -> t -> bool
(** Structural: equal times and componentwise-equal states. *)

val hash : t -> int
(** The precomputed packed hash (constant-time accessor). *)

val hash_of : time:int -> Statevec.t -> int
(** The hash {!make} would store for [(time, state)], computed without
    building a key or allocating: A*'s flat node index hashes its scratch
    candidate with it. *)

module Tbl : Hashtbl.S with type key = t

val collisions : 'a Tbl.t -> int
(** Number of bindings sharing a bucket with another binding's key —
    [bindings - occupied buckets] from [Hashtbl.stats]; the planners book
    this as the [*.key_collisions] telemetry counter. *)
