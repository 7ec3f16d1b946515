(** The multi-tenant maintenance service behind [abivm serve].

    Tenants register with a {!Tenant.config}; {!Admission} admits,
    queues, or rejects them.  {!run} then drives every active tenant in
    rounds, each round one time step per tenant, in three phases (the
    [Event] {!scheduler} only dispatches tenants whose step does real
    work):

    + {b ingest + propose} (in sequence): each tenant commits its
      arrivals into the shared group-commit log (one commit per step)
      and its §4.3 ONLINE controller proposes the mandatory flush —
      per-tenant state only, but too little work per tenant to pay for
      a pool dispatch;
    + {b coordinate} (sequential): the co-flush rule
      ({!Multiview.Coflush}, shared with the multiview simulator) adds
      joins to the forced flushes — optional work that the shed budget
      may refuse (backpressure — arrivals are never shed, only extra
      flush work) — and prices each table's combined work.  A tenant's
      share of a co-flush is [discount_factor] times its
      single-modification cost, so a zero discount invites no one.  A
      round with a >= 2-participant group commits its decision to the
      log as one co-flush record before phase C;
    + {b execute + close} (parallelizable over a {!Parallel.Pool}):
      each tenant processes its batches on its engine, journals
      [Applied] records with metered costs, and closes the step (SLO
      accounting, drift-triggered re-anchoring, per-tenant gauges) —
      per-tenant state only, so the fan-out is bit-identical to
      sequential execution.

    Completed tenants are consistency-checked (one pool batch: each
    check reads its own tenant's engine), detached from the log, and
    queued tenants promoted into the freed slots.

    The root directory holds a service manifest (coordination
    parameters, admitted tenants in registration order, the waiting
    queue), one manifest directory per registered tenant, queued ones
    included, and the shared log [root/groupwal], which
    multiplexes every tenant's records ({!Durable.Groupwal}): a round
    costs one fsync total (the window close), not one per tenant.
    {!recover} rebuilds the whole service from those files alone, by
    running its rounds again.  The
    service manifest is rewritten only at {!create}, at each
    registration (admitted, queued or refused) and once per sweep that
    promotes from the queue — never inside a round. *)

type wal_mode = Grouped
(** The shared group-commit log, the only layout.  Kept as a config
    field so configurations name it explicitly. *)

type scheduler =
  | Event
      (** ready-queue scheduling: each round only dispatches tenants
          whose per-tenant next-arrival clock, refresh budget, or
          horizon makes the step do real work; idle tenants advance
          inline with no WAL traffic, no proposal and no pool dispatch. *)
  | Lockstep
      (** the all-ready mask: every active tenant dispatched every
          round.  A reference for tests — the same round code path, so
          [Event] must reproduce it bit for bit. *)

type config = {
  admission : Admission.config;
  coordinate : bool;  (** enable cross-tenant piggyback co-flushes *)
  discount_factor : float;
      (** co-flush discount as a fraction of the cheapest participant's
          single-modification cost (finite, >= 0; 0 disables discounts
          and with them every invite) *)
  shed_budget : float option;
      (** finite model-cost budget per round; optional joins beyond it
          are shed *)
  sync : Durable.Wal.sync;
      (** the shared window cadence — [Always] closes (one fsync) every
          round, [Interval n] every n-th round, [Never] only at rotation
          and shutdown.  Tenants with a [Some] {!Tenant.config.sync}
          force additional closes at their own commits. *)
  wal_mode : wal_mode;
  scheduler : scheduler;
  hook : Durable.Hook.point -> unit;
      (** fires [Step_start round] before every round — crash injection *)
}

val default_config : config
(** Coordinating, no discounts, no shed budget, [sync = Always], event
    scheduler. *)

type tenant_outcome = {
  tenant : string;
  steps : int;
  metered_cost : float;  (** engine meter units *)
  charged_cost : float;  (** model units, pre-discount *)
  violations : int;  (** steps that ended still over the budget [C] *)
  violation_rate : float;
  sheds : int;
  reanchors : int;
  consistent : bool;
  replayed : int;  (** WAL records replayed at recovery (0 if fresh) *)
}

type outcome = {
  tenants : tenant_outcome list;  (** registration order *)
  rounds : int;
  aggregate_charged : float;  (** co-flush-discounted model cost *)
  aggregate_undiscounted : float;
  co_flushes : int;
      (** joins beyond the first in co-flush groups that earned a
          discount *)
  worst_violation_rate : float;
  rejected : int;
  queued_peak : int;
}

type t

val create : ?pool:Parallel.Pool.t -> root:string -> config -> t
(** Fresh service over [root] (created if missing); writes the service
    manifest and opens the shared log.  [pool] fans out phase C of every
    round, the consistency checks of the tenants finishing in a round,
    and tenant construction: the tenants being
    built ({!Tenant.engine}, one task per tenant) run as one batch at
    registration and at queue promotion.  Without a pool, or at one
    domain, everything runs in sequence, and the outcome is
    bit-identical either way.  Raises
    [Invalid_argument] on a [discount_factor] that is negative or not
    finite, or a [shed_budget] that is not finite, and [Failure],
    before writing anything, when [root] already holds a service
    manifest or a [groupwal/] directory (a finished or crashed run:
    {!recover} continues it). *)

val register : t -> Tenant.config -> (Admission.decision, string) result
(** Apply admission: [Admit] builds the tenant now (manifest under
    [root/tenants/<name>] written first, then the engine, calibrated on
    a copy of itself, then a handle on the shared log), [Queue] writes
    the manifest and the service manifest's queue entry and defers the
    build until a slot frees, [Reject] counts against the outcome.
    [Error], with nothing queued or built, when an admitted or queued
    tenant's config is invalid or its manifest cannot be written. *)

val run : t -> outcome
(** Drive rounds until every registered tenant (including queued ones)
    has completed its horizon.  If the hook raises {!Durable.Hook.Crash}
    the shared log's open window is abandoned unflushed (simulating the
    process dying) and the exception propagates. *)

val recover : ?pool:Parallel.Pool.t -> root:string -> unit -> (t, string) result
(** Rebuild the service from the root manifest, every registered
    tenant's manifest, and the shared log, opened once (its tail repaired) and
    demuxed by that one scan into each tenant's records and the co-flush
    records.  The tenant manifests are loaded in registration order,
    then the queued tenants' in queue order; [pool] builds every
    admitted tenant ({!Tenant.engine}) as one batch, and each
    {!Tenant.hold}s its records.  Recovery then runs the live rounds
    ({!run}'s round and sweep), activating each tenant at the top of its
    manifest admission round in registration order, until every tenant's
    records and every co-flush record are used up and every tenant has
    started.  The queued tenants rejoin the queue once the last admitted
    one has started, and the sweeps promote them at the rounds the live
    run would.  Every step re-draws its arrivals, phase B
    re-derives every flush decision from the tenants' controllers, and
    each record a step makes is matched against the next held one; the
    round in which the records end is completed by the live code, which
    appends what the crash lost.  A co-flush record is a check: the
    re-run round's decision must equal it.  The returned service stands
    at the next round, and the finished run's outcome — per-tenant
    costs, aggregates, discounts, co-flush counts, rounds, idle rounds,
    queue peak and refusals — is bit-identical to the uninterrupted
    run's at any domain count, after a crash at any commit boundary or
    window close, or while a sweep builds the tenants it promotes.

    [Error] — never an exception, and the log abandoned — on an
    unreadable or corrupt manifest (the first in registration order,
    before any tenant is built; including roots written with private
    per-tenant WALs, with no [wal_mode] param, or with a manifest
    [coflush] journal), on damage before the log's tail, on a co-flush
    record naming a tenant that was never admitted or carrying a batch
    row whose width is not {!Tenant.n_tables}, on a step that parts from
    its tenant's records (named by tenant and step: the round order,
    then registration order, decides which, at any domain count), on
    records past a tenant's horizon, and on a co-flush record the re-run
    round does not decide (named by round). *)

val active : t -> Tenant.t list
(** The tenants still running, in registration order. *)

val total_replayed : t -> int
(** Tenant records matched at recovery, across all tenants. *)

val rounds : t -> int
val idle_rounds : t -> int
(** Rounds the event scheduler retired with no ready tenant (no pool
    dispatch, no WAL bytes, no window work), replayed rounds
    included. *)

val window_closes : t -> int
(** Shared-window fsyncs so far. *)

val forced_closes : t -> int
(** The subset of {!window_closes} forced by per-tenant sync policies. *)

type roster = {
  admitted : (string * int) list;
      (** registration order, each with its admission round *)
  queued : string list;
      (** the waiting queue, first to be promoted first; empty in roots
          written before the queue was recorded *)
  queued_peak : int;
  rejected : int;
      (** [queued_peak] and [rejected] are 0 in roots written before
          they were recorded *)
}
(** Who a service manifest lists, and the admission counts a recovered
    outcome restores. *)

val config_of_params :
  (string * string) list -> (config * roster, string) result
(** The service-manifest decoding: configuration plus its tenants.
    [Error] on a non-finite or negative discount, a non-finite shed
    budget, a tenant listed twice (in either list), and on the retired
    layouts {!recover} refuses. *)
