(** The sync-policy vocabulary of the log.

    The log itself is {!Groupwal}; this module only names when a handle
    on it forces a durability point, so configurations, the CLI and
    benchmarks can say [Durable.Wal.Always] or [Interval n]. *)

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
