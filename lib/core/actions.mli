(** Enumeration of greedy / minimal / valid actions at a full pre-action
    state — the edges of the LGM plan graph (§4.1) and the candidate set of
    the online heuristic (§4.3). *)

val feasible_subset : Spec.t -> Statevec.t -> int list -> bool
(** Does flushing this subset bring the state under the limit? *)

val iter_minimal_masks :
  float array -> count:int -> limit:float -> (int -> unit) -> unit
(** [iter_minimal_masks w ~count ~limit f]: the one definition of a
    minimal greedy subset.  Over the first [count] weights of [w] (the
    active tables' [f_j(pre_j)], ascending table order), call [f] on every
    bitmask whose complement's residual [Σ_{j ∉ mask} w.(j)] is at most
    [limit] while no mask with one bit fewer is, in ascending mask order —
    or on [0] alone when the empty flush already fits.  Residuals are
    summed in ascending [j], so they equal {!Spec.f} of the post-action
    state bit for bit.  Allocates nothing; raises [Invalid_argument]
    beyond 16 weights. *)

val minimal_greedy : Spec.t -> Statevec.t -> int list list
(** All minimal subsets of the non-empty tables whose flush restores the
    constraint.  Monotone feasibility makes {!Util.Subsets.minimal_satisfying}
    exact.  Result is non-empty whenever the state is full (flushing all
    tables always yields cost 0 <= C).  Raises [Invalid_argument] beyond 16
    non-empty tables. *)

val minimal_greedy_actions : Spec.t -> Statevec.t -> Statevec.t list
(** {!minimal_greedy}, each subset as the action flushing exactly those
    tables of the pre-action state. *)

val minimize : Spec.t -> Statevec.t -> Statevec.t -> Statevec.t
(** [minimize spec pre action]: the paper's MinimizeAction — drop components
    of [action] (greedily, in ascending table order) while the post-action
    state stays non-full.  The result empties a subset of the tables
    [action] emptied and is minimal. *)
