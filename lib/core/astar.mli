(** Optimal LGM plans via A* over the plan-space graph (§4.1).

    Nodes are (time, post-action state) pairs; an edge leaves a node at the
    first future time its pre-action state becomes full and carries one
    minimal greedy valid action.

    Heuristic (re-derived; DESIGN.md §13): [h(t, s) = Σ_i lb_i(s[i] +
    K_i)], where [lb_i(M)] is the exact optimum of the single-table
    relaxation — the cheapest way to process [M] modifications of table
    [i] in batches of at most [b_i] (the paper's batch bound
    [b_i = m_i + max{k : f_i(k) <= C}]) — tabulated by dynamic
    programming once per solve.  This dominates both terms of the paper's
    §4.1 heuristic [floor(M / b_i) * f_i(b_i) ∨ f_i(M)]: the subadditive
    term because a one-batch decomposition is in the minimand, and the
    floor term because that term is {e unsound} for subadditive
    non-concave costs (the blocked family has increasing [f(k)/k], so
    the floor bound can exceed the cheapest decomposition — Lemma 7's
    consistency claim fails for the same reason).  On search-generated
    nodes the DP bound is consistent (every edge action satisfies
    [a_i <= b_i] and [lb_i(M) <= f_i(a_i) + lb_i(M - a_i)]); reopening is
    kept for caller-supplied states outside the reachable range, where
    only admissibility holds.  Flatter higher-order cost curves make
    [b_i] large and the old floor term vacuous; the DP bound stays tight
    for them — that is what re-deriving the [K_i]/batch bounds for
    {!Ivm.Viewdef.Higher_order} calibration amounts to.

    Engine notes (DESIGN.md §5): nodes live in a flat store — an int id
    per node, its post-action state in one int slab and its time, parent,
    hash and g-value in flat arrays — indexed by an open-addressing table
    with linear probing.  Expansions scan to the next full time in a
    reused buffer with per-table costs tabulated once per solve, and each
    candidate post-state is probed from a scratch buffer, so a generated
    node dominated by an already-recorded g-value is pruned without
    allocating or touching the queue.  Stale queue entries are skipped by
    comparing the g-value stored at push time.  Actions are not stored:
    the plan is rebuilt from the parent chain and the arrival suffix sums.
    {!Statekey} remains the exact DP's memo key; A* only shares its hash
    ({!Statekey.hash_of}). *)

type stats = {
  expanded : int;  (** nodes settled *)
  generated : int;  (** edges relaxed *)
  reopened : int;  (** relaxations that improved an already-known node *)
  pruned : int;
      (** generated nodes dominated by a recorded g-value, plus stale
          queue entries skipped at pop time *)
  max_queue : int;  (** open-list peak size *)
  max_live : int;
      (** distinct (time, state) keys recorded (the store only grows, so
          this is also the peak) *)
}

type result = { cost : float; plan : Plan.t; stats : stats }

val solve : ?use_heuristic:bool -> Spec.t -> result
(** Returns the cost of the best LGM plan, the plan, and search statistics.
    [use_heuristic:false] degrades to uniform-cost (Dijkstra) search — used
    by the ablation bench to show how much the heuristic prunes.

    When the {!Telemetry} collector is enabled each solve runs inside an
    ["astar.solve"] span and books the stats as [astar.expanded],
    [astar.generated], [astar.reopened], [astar.pruned] and
    [astar.key_collisions] counters (the last: bindings minus occupied
    home slots of the node index) and the [astar.queue_peak] and
    [astar.live_peak] gauges. *)

val heuristic : Spec.t -> t:int -> Statevec.t -> float
(** Exposed for the consistency property test.  [heuristic spec] performs
    the suffix-sum / batch-bound / DP-tabulation precomputation once and
    returns a closure reusable across [(t, s)] queries — hold on to the
    partial application when evaluating many states. *)

val batch_bounds : Spec.t -> int array
(** The per-table batch bounds [b_i = m_i + max{k : f_i(k) <= C}] (at
    least 1) the heuristic's decompositions are restricted to — exposed so
    tests can check how calibrated cost shapes move them. *)

val table_lower_bound : Spec.t -> table:int -> remaining:int -> float
(** [table_lower_bound spec ~table ~remaining] — the tabulated [lb_i(M)]:
    the cheapest total cost of processing [M] modifications of the table
    in batches of at most [b_i].  Exposed for the admissibility property
    suite (it must never exceed the cost of any explicit decomposition).
    Recomputes the precomputation; use {!heuristic} in hot loops. *)
