(** Log record types and their CRC-protected line encoding.

    Each record is one text line of the group log ({!Groupwal}): an
    8-hex-digit CRC-32 of the body, a tab, the tag, a tab, then the
    payload.  Payloads encode modifications with {!Ivm.Codec}, so the
    log is human-inspectable.  Applied-action costs are stored as
    IEEE-754 bit patterns ([%Lx]) so recovery restores them
    bit-identically. *)

type t =
  | Arrival of { time : int; table : int; change : Ivm.Change.t }
      (** A modification entered table [table]'s delta queue at [time]. *)
  | Applied of { time : int; table : int; count : int; cost : float }
      (** The maintainer processed a batch of [count] modifications from
          [table] at [time], at the given metered cost.  A replayed step
          must process the same batch at the same cost bits
          ({!Journal}). *)

val crc32 : string -> int32
(** CRC-32 (IEEE 802.3) of the whole string. *)

val crc32_sub : string -> pos:int -> len:int -> int32
(** CRC-32 of the [len] bytes at [pos]; [Invalid_argument] if they are
    not all inside the string.  Allocates nothing per byte. *)

val payload : t -> string
(** The record's encoding, untagged and without a CRC: two records with
    equal payloads are the same log record, bit for bit. *)

val equal : t -> t -> bool
(** [equal a b = (payload a = payload b)], without encoding either: a
    value float compares as its [%h] text does (equal bits, or NaNs of
    one sign; [0.] differs from [-0.]), a cost by its bits. *)

(** {1 Shared group-log lines} *)

type coflush = { round : int; rows : (string * int array) list }
(** One phase-B decision of the serve scheduler's co-flush coordination:
    the global round and every flushing tenant's final (post-invite,
    post-shed) batch row, one count per base table. *)

type tagged =
  | Tenant of string * t  (** a tenant's record, tagged with its name *)
  | Coflush of coflush  (** a service record, under the service tag *)

val add_line : Buffer.t -> tagged -> unit
(** The one line encoder of the shared cross-tenant group log
    ({!Groupwal}): appends CRC, tab, tag, tab, payload and a newline to
    the buffer.  The tag is the tenant's name, or the reserved service
    tag [@service] (never a valid tenant name) for a {!Coflush}.  The
    CRC covers the tag, so damage can never re-home a record to another
    tenant or to the service.  Domain-safe; builds no string but a
    float value's [%h] text. *)

val to_tagged_line : tagged -> string
(** {!add_line}'s bytes as a string, without the trailing newline. *)

val of_tagged_line : string -> (tagged, string) result
(** Decode a {!to_tagged_line} line: [Error] on a CRC mismatch,
    malformed framing, or an undecodable payload — any of which recovery
    treats as damage.  Rejects tenant tags that are not
    valid tenant names, and co-flush records with a negative round or
    count, a malformed row, or no rows.  Row widths are the service's to
    check. *)
