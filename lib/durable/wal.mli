(** The append-only, segment-rotated write-ahead log machine.

    A log directory holds segment files [wal-<start>.seg], where
    [<start>] is the global sequence number (LSN — records committed
    since genesis) of the segment's first record.  Appends buffer in
    memory; {!Make.commit} advances the LSN and moves the batch into the
    pending window; nothing reaches the file until a durability point —
    {!Make.sync_now}, a rotation, or {!Make.close} — which writes the whole
    window with one syscall (and fsyncs it, except at {!Make.close}).  The
    machine has no sync policy of its own: when to sync is the caller's
    decision, and {!Groupwal}'s window closes are the one implementation.
    When the current segment exceeds its byte budget the commit fsyncs it
    and rotates to a fresh file, so checkpoint-driven truncation can drop
    whole old segments without touching live data.

    Opening an existing directory tolerates a truncated tail: the last
    segment is scanned record by record and physically truncated after
    the last line whose CRC checks out (a torn final write is expected
    after power loss); a final record that decodes but lost its
    terminating newline gets the newline restored so later appends
    cannot merge onto its line.  Damage anywhere {e before} the tail — a failed
    CRC in an earlier segment, a gap in the segment chain — is refused
    as corruption.

    The machine is a functor over the line codec ({!Make}); {!Groupwal}
    instantiates it with tenant-tagged lines, and is the library's only
    log.

    Telemetry (when enabled): [durable.appends], [durable.commits],
    [durable.fsyncs], [durable.segments], [durable.truncations]. *)

(** A sync policy, as {!Groupwal.attach} enforces it per handle. *)
type sync =
  | Always  (** a durability point at every commit — survives OS crash *)
  | Interval of int
      (** group commit: a durability point every [n]-th commit; a crash
          loses up to [n] commits *)
  | Never
      (** no durability point of its own; the tail since the last
          window close, rotation or clean close is lost on a crash *)

val sync_to_string : sync -> string
(** ["always"], ["never"], ["interval:<n>"]. *)

val sync_of_string : string -> (sync, string) result
(** Inverse of {!sync_to_string} (case-insensitive); [Interval] must be
    positive. *)

module type LINE = sig
  type r

  val to_line : r -> string
  (** Full framed line (CRC included), without the trailing newline. *)

  val of_line : string -> (r, string) result
  (** [Error] on any damage — CRC mismatch, framing, payload. *)
end

(** The full segment machine over an arbitrary line codec. *)
module Make (C : LINE) : sig
  type r = C.r
  type t

  val open_ :
    dir:string ->
    ?segment_bytes:int ->
    ?hook:(Hook.point -> unit) ->
    unit ->
    t
  (** Create the directory (and a first segment) if needed, or continue an
      existing log after repairing its tail.  [segment_bytes] (default
      [1 lsl 20]) is the rotation threshold.  Raises [Failure] on
      corruption before the tail. *)

  val lsn : t -> int
  (** Records committed since genesis. *)

  val total_bytes : t -> int
  (** Bytes committed since this handle was opened — the checkpoint
      policy's "wall bytes of WAL" counter. *)

  val pending_bytes : t -> int
  (** Committed-but-unwritten bytes (the open window).  Zero right after
      any durability point — {!Groupwal.close_window} checks this to
      skip a no-op fsync. *)

  val append : t -> r -> unit
  (** Buffer a record; nothing reaches the file until {!commit}. *)

  val commit : t -> unit
  (** Commit the buffered batch: move it into the open window, advance
      the LSN, fire [Hook.Committed], and rotate (write + fsync) if the
      segment is over budget.  No-op when nothing is buffered. *)

  val sync_now : t -> unit
  (** Write and fsync the open window: the durability point. *)

  val truncate_before : t -> int -> unit
  (** Delete every segment whose records all precede the given LSN (the
      current segment is never deleted).  Checkpointing calls this with
      the checkpoint's LSN. *)

  val close : t -> unit
  (** Flush committed records and close the file descriptor.  Uncommitted
      buffered records are dropped, exactly as a crash would drop them —
      {!commit} first. *)

  val abandon : t -> unit
  (** Simulated-crash shutdown: close the file descriptor {e without}
      flushing, so committed-but-unwritten group-commit bytes are lost
      exactly as a real crash would lose them.  Fault-injection harnesses
      call this instead of {!close} when a [Hook.Crash] fires. *)

  val read : dir:string -> from_lsn:int -> (r list, string) result
  (** All committed records with LSN >= [from_lsn], in order, tolerating a
      damaged tail in the last segment.  [Ok []] for a missing directory.
      [Error] on mid-log corruption, and when the first surviving segment
      starts past [from_lsn] (truncation outran the caller's snapshot —
      the gap cannot be replayed). *)
end
