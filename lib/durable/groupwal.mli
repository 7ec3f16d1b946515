(** The group-commit log: the one log of the library.

    One physical segment log (the {!Wal.Make} machine over tagged
    {!Record.tagged} lines) multiplexes the commit batches of every
    attached tenant, plus the service's own {!Record.coflush} records.
    A serve root and a [Durable.Exec] directory each keep it under
    {!Fsutil.group_dir}; Exec attaches one handle, tagged
    {!Recovery.tenant}.
    Committed bytes accumulate in a shared {e group-commit window};
    {!close_window} writes and fsyncs the whole window at once, so a
    round of the serve scheduler costs {e one} fsync total instead of
    one per tenant.

    Durability contract: a record is durable once the first window close
    (or log {!close}) after its commit returns.  A crash ({!abandon})
    loses exactly the open window — every tenant loses the (aligned)
    tail of records committed since the last close, which the serve
    recovery path already tolerates per tenant.  A handle's [sync]
    policy is honored by {e forcing} the window closed at that handle's
    commits ([Always]: every commit; [Interval n]: every n-th commit) —
    the strict tenant pays the fsync and everyone else's pending commits
    become durable with it.  This forcing is the library's only
    sync-policy implementation.

    Handles may append/commit from pool worker domains concurrently (the
    window is mutex-protected); each tenant's own records keep their
    order, and replay demuxes per tenant, so the cross-tenant
    interleaving inside the file is irrelevant to recovery.

    Telemetry: [durable.window_closes], plus the underlying WAL
    counters. *)

type t
type handle

val open_ :
  dir:string ->
  ?segment_bytes:int ->
  ?hook:(Hook.point -> unit) ->
  unit ->
  t
(** Open (or create) the shared log.  Every durability point is an
    explicit window close (or a rotation).  [hook] sees the machine's
    points and [Hook.Window_closed] after each close. *)

val attach : t -> tenant:string -> ?policy:Wal.sync -> unit -> handle
(** A per-tenant view of the shared log.  [policy] [None] defers
    entirely to the window cadence; [Some Always] / [Some (Interval n)]
    force the window closed at that tenant's commits.  Raises
    [Invalid_argument] on an invalid tenant name. *)

val append : handle -> Record.t -> unit
(** Buffer a record on the handle; nothing reaches the shared window
    until {!commit}. *)

val commit : handle -> unit
(** Move the handle's buffered batch into the shared window (tagged,
    in order), then apply the handle's forcing policy.  No-op when
    nothing is buffered. *)

val close_window : t -> bool
(** Write + fsync the open window; the one durability point of a
    scheduler round.  Returns whether an fsync actually happened
    ([false] when the window was empty — idle rounds cost nothing). *)

val detach : handle -> unit
(** Drop the handle (uncommitted appends are discarded, as a crash
    would).  The shared log stays open — it belongs to the service. *)

val close : t -> unit
(** Flush the open window and close the log (clean shutdown). *)

val abandon : t -> unit
(** Simulated crash: the open window dies unwritten. *)

val lsn : t -> int
val total_bytes : t -> int
(** Bytes committed since {!open_} — a checkpoint cadence's byte
    counter. *)

val truncate_before : t -> int -> unit
(** Delete every segment whose records all precede the given LSN (the
    current segment is never deleted); a checkpoint at that LSN has
    made them unnecessary.  Fires [Hook.Truncated] when one goes. *)

val window_closes : t -> int
(** Window closes since {!open_} (each is exactly one fsync). *)

val forced_closes : t -> int
(** The subset of {!window_closes} forced by per-tenant policies. *)

val commit_coflush : t -> Record.coflush -> unit
(** Commit one service-tagged co-flush record into the open window.  It
    precedes every later commit in the log, so it is durable whenever
    any of them is — no extra fsync needed. *)

type contents = {
  tenants : (string * Record.t list) list;
      (** per tenant: first-appearance tenant order, each tenant's
          records in its commit order *)
  coflushes : Record.coflush list;  (** in commit order *)
}

val read : dir:string -> from_lsn:int -> (contents, string) result
(** Demux every record at LSN [from_lsn] or later.  Each tenant's list
    replays exactly like a single-tenant log.  Empty for a missing
    directory; [Error] on damage before the tail, and when the first
    surviving segment starts past [from_lsn] (a truncated gap). *)
