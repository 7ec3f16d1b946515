(** Metrics registry: named counters, gauges and histograms with label
    support.

    Instruments are identified by [(name, labels)]; registering the same
    identity twice returns the same instrument, and registering it with a
    different kind raises [Invalid_argument] (the "label collision" guard).
    The global registry lives in {!Telemetry}; layers that need always-on
    accounting can keep a private one.

    Registries and instruments are domain-safe: registration takes a short
    registry lock, and counter/histogram state is sharded into per-domain
    cells merged at {!snapshot} — concurrent writers from different domains
    do not contend on a single hot mutex, and no update is lost.  Gauges
    keep one cell (last-write/max semantics do not merge), so concurrent
    [set] is last-writer-wins. *)

type kind = Counter | Gauge | Histogram

val kind_name : kind -> string

type t
(** A registry. *)

val create : unit -> t

type counter
type gauge
type histogram

val counter : t -> ?labels:(string * string) list -> string -> counter
(** Find-or-create.  Labels are sorted internally; duplicate label keys
    raise [Invalid_argument]. *)

val gauge : t -> ?labels:(string * string) list -> string -> gauge

val histogram :
  t -> ?buckets:float array -> ?labels:(string * string) list -> string ->
  histogram
(** [buckets] are upper bounds (sorted internally; an overflow bucket is
    added).  Defaults to {!default_buckets}.  Buckets of an existing
    instrument are kept. *)

val default_buckets : float array

val inc : counter -> float -> unit
(** Counters are monotone: raises [Invalid_argument] on negative
    increments. *)

val inc1 : counter -> unit
val set : gauge -> float -> unit

val set_max : gauge -> float -> unit
(** Peak tracking: keeps the maximum of all [set_max] values (gauges start
    at 0). *)

val observe : histogram -> float -> unit

(** {1 Snapshots} *)

type sample = {
  sample_name : string;
  sample_labels : (string * string) list;
  sample_kind : kind;
  sample_value : float;  (** counter total, gauge value, histogram sum *)
  sample_count : int;  (** histogram observations; 0 otherwise *)
  sample_min : float;  (** nan when no observations *)
  sample_max : float;
  sample_buckets : (float * int) list;
      (** (upper bound, count) per bucket; the last bound is [infinity] *)
}

type snapshot = sample list
(** Sorted by (name, labels). *)

val snapshot : t -> snapshot

val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] — counters and histograms subtract; gauges keep
    the later value; unchanged samples are dropped, so a diff reads as
    "what changed in between". *)

val find : snapshot -> ?labels:(string * string) list -> string -> sample option
val find_all : snapshot -> string -> sample list

val value : snapshot -> ?labels:(string * string) list -> string -> float
(** 0.0 when absent. *)

val to_table : snapshot -> string
(** Pretty table (via {!Util.Tablefmt}): metric, labels, kind, value,
    count. *)

val snapshot_json : snapshot -> string
(** One JSON object mapping ["name{k=v}"] to a number (counter/gauge) or a
    [{count, sum, min, max}] object (histogram). *)
