(** One tenant of the [abivm serve] maintenance service.

    A tenant is a registered (view, refresh budget, arrival stream)
    triple: a synthetic two-table join view ({!Tpcr.Synth}), a response
    time constraint [C] derived from its own calibrated cost curves, and
    a seeded arrival schedule.  Each tenant owns a live maintenance
    engine, a §4.3 ONLINE controller over costs calibrated on a
    throwaway copy of that engine (so model and meter agree on units),
    a {!Robust.Monitor} watching metered costs for drift, and
    a handle on the service's shared {!Durable.Groupwal}; its manifest
    lives under [root/tenants/<name>].

    The whole environment is deterministic in {!config}, which is also
    exactly what the tenant's manifest persists — recovery rebuilds the
    tenant from its params, {!hold}s its slice of the log, and re-runs
    the service's rounds, each step checked against the held records.

    The per-step API is split into scheduler-driven phases so
    {!Service} can interleave many tenants: {!begin_step} (ingest +
    observe, journalled), {!mandatory} (the controller's proposal — or
    the full pending flush at the horizon), {!execute} (process the
    possibly coordinator-enlarged batches, journalled), {!close_step}
    (SLO bookkeeping, drift escalation via {!Robust.Replan.reanchor},
    per-tenant gauges). *)

val n_tables : int
(** Tenant views span exactly 2 base tables (R and S). *)

type config = {
  name : string;  (** must satisfy {!Durable.Fsutil.valid_tenant_name} *)
  seed : int;
  rows : int;  (** synthetic rows per base table *)
  horizon : int;
  limit_factor : float;
      (** the refresh budget [C] as a multiple of the dearer table's
          calibrated single-modification cost (finite, > 0) *)
  streams : string list;
      (** per-table arrival stream descriptors
          ({!Workload.Arrivals.stream_of_string} grammar), length 2 *)
  order : Ivm.Viewdef.order;
      (** maintenance order of the tenant's engine (and so of the copy
          it is calibrated on: the cost model prices the same paths);
          higher-order tenants materialize delta views, charged against
          the service's {!Admission} memory budget.  Manifests persist it
          as ["order"]; absent (pre-order manifests) means first-order. *)
  sync : Durable.Wal.sync option;
      (** per-tenant durability override.  [None] follows the service's
          shared window cadence.  [Some p] becomes the log handle's
          forcing policy — [Always] closes the shared window at every one
          of this tenant's commits, [Interval n] at every n-th.
          Manifests persist it as ["sync"]; absent means [None]. *)
}

val params_of_config : config -> (string * string) list
val config_of_params : (string * string) list -> (config, string) result

type t

(** {1 Construction}

    A tenant is built once: {!engine} generates the database, its
    engine and its feeds, then calibrates the base cost curves on a
    throwaway copy of the engine ({!Ivm.Maintainer.copy}) taken before
    anything is ingested.  The curves are bit-identical to those of a
    twin generated and materialized from scratch.  Each tenant's build
    has its own meters and PRNGs, so {!Service} builds many tenants
    concurrently on its pool with bit-identical results. *)

type build
(** A validated config. *)

val prepare : config -> (build, string) result
(** Validate the config. *)

val save_manifest : root:string -> config -> (unit, string) result
(** Write a new tenant's manifest under [root/tenants/<name>], refusing a
    name whose directory already holds one. *)

type engine
(** A built tenant not yet attached to the shared log. *)

val engine : build -> engine
(** Generate the database, materialize the view ({!Ivm.Maintainer.create},
    the one ["maintainer.materialize"] of the tenant), draw the feeds and
    measure the base cost curves on a copy of the engine.  Touches no
    state outside the build, so builds of different tenants may run at
    once on different domains. *)

val assemble : group:Durable.Groupwal.t -> engine -> t
(** Put the tenant together: arrival schedule, budget [C], controller
    and monitor, and a handle on the service's shared log with
    [config.sync] as the forcing policy. *)

val hold : t -> Durable.Record.t list -> unit
(** Hold this tenant's slice of the shared log, demuxed by the caller,
    in a freshly assembled tenant's {!Durable.Journal}: every record the
    following steps make must be the next held one until the slice is
    used up, and only then is appended.  A step that parts from the
    slice raises {!Durable.Journal.Diverged}, naming the tenant and step
    ([<name>: t=N ...]). *)

val holding : t -> bool
(** Records of the held slice are still unmatched. *)

(** {1 Inspection} *)

val name : t -> string
val config : t -> config
val time : t -> int  (** next step to execute *)

val finished : t -> bool
val limit : t -> float  (** the absolute refresh budget [C] *)

val pending : t -> Abivm.Statevec.t

val capacity : t -> int -> int
(** Largest batch of table [i] within the budget under the current
    (re-anchored) cost model. *)

val model_cost : t -> int -> int -> float
(** [model_cost t i k] — current model cost of a [k]-batch of table [i]. *)

val delta_entries : t -> int
(** Current {!Ivm.Deltaview} materialization size (total subtuple
    entries); 0 for first-order tenants.  The service charges this
    against {!Admission.config.max_delta_entries}. *)

val metered_cost : t -> float
val charged_cost : t -> float  (** model-cost units, pre-discount *)

val violations : t -> int
val sheds : t -> int
val reanchors : t -> int
val replayed : t -> int  (** held records matched so far *)

(** {1 Scheduler-driven stepping} *)

val begin_step : t -> unit
(** Ingest this step's arrivals (drawn from the feeds, journalled and
    committed as one batch; while records are {!hold}ing, matched
    against them) and observe them in the monitor and the controller.
    Raises {!Durable.Journal.Diverged} ("more arrivals than the
    schedule") when the next held record is another arrival of this
    step. *)

val mandatory : t -> Abivm.Statevec.t option
(** The non-negotiable flush for this step: the controller's proposal
    when the constraint is violated, the full pending vector at the
    horizon, [None] otherwise.  Pure — the coordinator may enlarge the
    result before {!execute} but must never shrink it. *)

val ready : t -> bool
(** Would this tenant's next step do anything beyond a pure zero-arrival
    observe?  True iff arrivals land at the current step (per the
    precomputed next-arrival clock), the refresh cost already exceeds
    the budget (so {!mandatory} would fire — the check is exact, not a
    heuristic), or the tenant is at the horizon with pending work.  The
    event scheduler steps non-ready tenants with {!idle_step}; they stay
    invite-eligible because nothing phase B reads changes in a
    zero-arrival [begin_step]. *)

val idle_step : t -> unit
(** [begin_step]; [execute] all-zero; [close_step] — the exact call
    sequence a lockstep round makes for an uninvited no-proposal tenant,
    so event-mode idling is bit-identical to lockstep by construction.
    Journals nothing (there are no arrivals to ingest). *)

val shed : t -> unit
(** Record that optional co-flush work for this tenant was shed by the
    scheduler's backpressure. *)

val execute : t -> int array -> unit
(** Process the batches (per table), journal each as an [Applied] record
    with its metered cost, commit, feed the monitor, and absorb the
    batches into the controller's bookkeeping. *)

val close_step : t -> unit
(** SLO accounting (a step ending still over budget counts as a
    violation), drift escalation ({!Robust.Replan.reanchor} +
    [Online.set_costs] under exponential backoff), per-tenant telemetry
    gauges ([serve.slo_headroom], [serve.queue_depth], [serve.shed]),
    and the step counter.  Raises {!Durable.Journal.Diverged}
    ([<name>: WAL extends past horizon N]) when the step finishes the
    tenant while records are {!hold}ing. *)

val finish : t -> bool
(** Final consistency check (incremental content vs from-scratch
    recompute), then detach from the shared log (the window belongs to
    the service).  [true] iff consistent. *)

val abandon : t -> unit
(** Simulated-crash shutdown: detach from the shared log, whose open
    window the service abandons separately. *)
