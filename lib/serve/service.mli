(** The multi-tenant maintenance service behind [abivm serve].

    Tenants register with a {!Tenant.config}; {!Admission} admits,
    queues, or rejects them.  {!run} then drives every active tenant in
    rounds, each round one time step per tenant, in three phases (the
    [Event] {!scheduler} only dispatches tenants whose step does real
    work):

    + {b ingest + propose} (parallelizable over a {!Parallel.Pool}):
      each tenant commits its arrivals into the shared group-commit log
      (one commit per step) and its §4.3 ONLINE controller
      proposes the mandatory flush — per-tenant state only, so the
      fan-out is bit-identical to sequential execution;
    + {b coordinate} (sequential): tenants forced to flush a base table
      invite the others whose own flush of that table is nearly due
      (the multiview piggyback rule); joins are optional work that the
      shed budget may refuse (backpressure — arrivals are never shed,
      only extra flush work).  Each table's combined work is priced by
      {!Multiview.Coordinator.charge_shared} with a discount
      proportional to the cheapest participant's single-modification
      cost.  A round with a >= 2-participant group commits its decision
      to the log as one co-flush record before phase C;
    + {b execute + close} (parallelizable): each tenant processes its
      batches on its engine, journals [Applied] records with metered
      costs, and closes the step (SLO accounting, drift-triggered
      re-anchoring, per-tenant gauges).

    Completed tenants are consistency-checked, detached from the log,
    and queued tenants promoted into the freed slots.

    The root directory holds a service manifest (coordination
    parameters + admitted tenants in registration order), one manifest
    directory per tenant, and the shared log [root/groupwal], which
    multiplexes every tenant's records ({!Durable.Groupwal}): a round
    costs one fsync total (the window close), not one per tenant.
    {!recover} rebuilds the whole service from those files alone.  The
    service manifest is rewritten only at {!create}, at admission and
    at queue promotion — never inside a round. *)

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
          single-modification cost (finite, >= 0; 0 disables discounts) *)
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
  worst_violation_rate : float;
  rejected : int;
  queued_peak : int;
}

type t

val create : ?pool:Parallel.Pool.t -> root:string -> config -> t
(** Fresh service over [root] (created if missing); writes the service
    manifest and opens the shared log.  [pool] fans out the per-tenant
    phases of every round and tenant construction: the tenants being
    built ({!Tenant.engine}, one task per tenant) run as one batch at
    registration and at queue promotion.  Without a pool, or at one
    domain, everything runs in sequence, and the outcome is
    bit-identical either way.  Raises
    [Invalid_argument] on a [discount_factor] that is negative or not
    finite, or a [shed_budget] that is not finite, and [Failure] when
    [root] already holds a damaged log. *)

val register : t -> Tenant.config -> (Admission.decision, string) result
(** Apply admission: [Admit] builds the tenant now (manifest under
    [root/tenants/<name>] written first, then the engine, calibrated on
    a copy of itself, then a handle on the shared log), [Queue] defers
    creation until a slot frees, [Reject] counts against the outcome.  [Error] only when an admitted
    tenant fails to build. *)

val run : t -> outcome
(** Drive rounds until every registered tenant (including queued ones)
    has completed its horizon.  If the hook raises {!Durable.Hook.Crash}
    the shared log's open window is abandoned unflushed (simulating the
    process dying) and the exception propagates. *)

val recover : ?pool:Parallel.Pool.t -> root:string -> unit -> (t, string) result
(** Rebuild the service from the root manifest, every admitted tenant's
    manifest, and the shared log, opened once (its tail repaired) and
    demuxed by that one scan into each tenant's records
    ({!Tenant.replay} — deterministic re-draw and bit-exact re-metering,
    verified) and the co-flush journal.  The tenant manifests are loaded
    in registration order; then [pool] builds every tenant
    ({!Tenant.engine}) as one batch and runs every tenant's replay as a
    second.  On failure the error is the first in registration order, whatever the
    domain count; tenants registered after the failing one may have
    been built and replayed too.  The returned service resumes
    at the furthest global round any tenant's records reached; tenants
    whose replay stopped short (trailing zero-arrival steps leave no
    record) catch those steps up solo at the start of {!run}, restoring
    the round alignment the co-flush structure depends on.  The
    replayed flushes' coordination accounting is rebuilt group by group,
    so after a crash at a round boundary the finished run's outcome —
    per-tenant costs, aggregates, discounts, co-flush counts and round
    numbering — is bit-identical to the uninterrupted run's.  A crash
    mid-round that loses a not-yet-durable co-flush participant is
    covered by the phase-B journal: the round's co-flush record holds
    every flusher's final batch row and precedes every phase-C record in
    the log, so catch-up re-executes the identical decision and the
    regrouped charge reproduces the lost round's discount exactly.
    (Sub-record torn writes inside one commit batch remain a
    valid-but-different execution, as before.)

    [Error] — never an exception — on an unreadable or corrupt manifest
    (including roots written with private per-tenant WALs, with no
    [wal_mode] param, or with a manifest [coflush] journal), on damage
    before the log's tail, and on a co-flush record naming a tenant that
    was never admitted or carrying a batch row whose width is not
    {!Tenant.n_tables}. *)

val active : t -> Tenant.t list
(** The tenants still running, in registration order. *)

val total_replayed : t -> int
(** WAL records replayed across all recovered tenants. *)

val rounds : t -> int
val idle_rounds : t -> int
(** Rounds the event scheduler retired with no ready tenant (no pool
    dispatch, no WAL bytes, no window work). *)

val window_closes : t -> int
(** Shared-window fsyncs so far. *)

val forced_closes : t -> int
(** The subset of {!window_closes} forced by per-tenant sync policies. *)

val tenant_records :
  root:string -> name:string -> (Durable.Record.t list, string) result
(** A tenant's durable record sequence, demuxed from the shared log
    read-only ({!Durable.Groupwal.read}). *)

val config_of_params :
  (string * string) list -> (config * (string * int) list, string) result
(** The service-manifest decoding: configuration plus admitted tenants
    in registration order, each with its admission round.  [Error] on a
    non-finite or negative discount, a non-finite shed budget, and on
    the retired layouts {!recover} refuses. *)
