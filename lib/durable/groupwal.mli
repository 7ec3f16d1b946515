(** The group-commit log: the one log of the library.

    A log directory holds segment files [wal-<start>.seg], where
    [<start>] is the LSN (records committed since genesis) of the
    segment's first record.  Each line is one {!Record.tagged} record:
    a tenant's record under its name, or the service's
    {!Record.coflush} under the service tag.  A serve root and a
    [Durable.Exec] directory each keep the log under
    {!Fsutil.group_dir}; Exec attaches one handle, tagged
    {!Recovery.tenant}.

    Each record is encoded once, by {!append}, into its handle's
    buffer, outside the log's lock; a commit copies those bytes into a
    shared {e group-commit window}; nothing reaches the file until a
    durability point — {!close_window}, a segment rotation, or {!close}
    — which writes the whole window with one syscall (and fsyncs it,
    except at {!close}).  A round of the serve scheduler so costs {e one}
    fsync total instead of one per tenant.  When the current segment
    exceeds its byte budget the commit fsyncs it and rotates to a fresh
    file, so checkpoint-driven truncation can drop whole old segments
    without touching live data.

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

    The segment chain follows one set of rules, checked by one scan that
    both {!open_} and {!read} run: every segment before the last decodes
    whole; each segment's start plus its record count is the next
    segment's start; a damaged line (a failed CRC, a torn write) may end
    only the last segment, whose intact prefix counts; and records
    wanted from [from_lsn] must not lie before the first segment (a
    truncated gap).  Only after the chain passes does {!open_} repair
    the tail: it truncates the last segment after its last intact
    record, and restores a final record's lost newline so later appends
    cannot merge onto its line.

    Handles may append/commit from pool worker domains concurrently (the
    window is mutex-protected); each tenant's own records keep their
    order, and replay demuxes per tenant, so the cross-tenant
    interleaving inside the file is irrelevant to recovery.

    Telemetry (when enabled): [durable.appends] (one add of the record
    count per commit), [durable.commits],
    [durable.fsyncs], [durable.segments], [durable.truncations],
    [durable.window_closes]. *)

type t
type handle

type contents = {
  tenants : (string * Record.t list) list;
      (** per tenant: first-appearance tenant order, each tenant's
          records in its commit order *)
  coflushes : Record.coflush list;  (** in commit order *)
}

val open_ :
  dir:string ->
  ?segment_bytes:int ->
  ?hook:(Hook.point -> unit) ->
  from_lsn:int ->
  unit ->
  (t * contents, string) result
(** Open the log at [dir], creating the directory and a first segment
    if needed, and return it with every record at LSN [from_lsn] or
    later, demuxed as by {!read}.  [segment_bytes] (default [1 lsl 20])
    is the rotation threshold.  An existing log continues at its end
    after its tail is repaired ([hook] sees [Hook.Truncated] when torn
    bytes are cut).  [Error] on damage before the tail and on a
    truncated gap at [from_lsn]; every file is then left as it was.
    Every durability point is an explicit window close (or a rotation).
    [hook] sees [Committed], [Rotated], [Truncated] and
    [Window_closed]. *)

val attach : t -> tenant:string -> ?policy:Wal.sync -> unit -> handle
(** A per-tenant view of the shared log.  [policy] [None] defers
    entirely to the window cadence; [Some Always] / [Some (Interval n)]
    force the window closed at that tenant's commits.  Raises
    [Invalid_argument] on an invalid tenant name. *)

val append : handle -> Record.t -> unit
(** Encode a record (tagged, {!Record.add_line}) into the handle's
    buffer, without the log's lock; nothing reaches the shared window
    until {!commit}.  A handle is one domain's at a time. *)

val commit : handle -> unit
(** Copy the handle's encoded records, in order, into the shared window
    as one commit: advance the LSN by their count, fire
    [Hook.Committed], and rotate (write + fsync) if the segment is over
    budget; then apply the handle's forcing policy.  No-op when nothing
    is buffered. *)

val close_window : t -> bool
(** Write + fsync the open window; the one durability point of a
    scheduler round.  Returns whether an fsync actually happened
    ([false] when the window was empty — idle rounds cost nothing). *)

val detach : handle -> unit
(** Drop the handle (uncommitted appends are discarded, as a crash
    would).  The shared log stays open — it belongs to the service. *)

val close : t -> unit
(** Write the open window out and close the log (clean shutdown).  A
    handle's uncommitted appends are dropped, as a crash would drop
    them. *)

val abandon : t -> unit
(** Simulated crash: the open window dies unwritten. *)

val lsn : t -> int
(** Records committed since genesis, the open window included. *)

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

val read : dir:string -> from_lsn:int -> (contents, string) result
(** The read-only twin of {!open_}: the same scan and the same [Error]s,
    nothing repaired.  Each tenant's list replays exactly like a
    single-tenant log.  Empty for a missing directory. *)
