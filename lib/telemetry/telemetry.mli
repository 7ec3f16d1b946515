(** Dependency-free observability: a process-global metrics registry,
    lightweight nesting spans, and pluggable trace sinks.

    The collector is off by default and everything here is a cheap no-op
    then — one [ref] dereference per call — so instrumented hot paths cost
    nothing in production runs.  Enabling installs a fresh registry:

    {[
      Telemetry.enable ~sinks:[ Telemetry.Sink.jsonl_file "out.jsonl" ] ();
      Telemetry.with_span ~name:"runner.plan" (fun () -> ...);
      Telemetry.add ~labels:[ ("table", "0") ] "meter.seq_scanned" 42.0;
      let snap = Telemetry.snapshot () in
      Telemetry.disable ()          (* flushes and closes sinks *)
    ]}

    Spans record wall time, nesting depth and the metric deltas booked
    while inside; sinks receive each span as it finishes plus a final
    metrics snapshot at {!disable} time. *)

module Metrics = Metrics
module Span = Span
module Sink = Sink

val enable : ?sinks:Sink.t list -> unit -> unit
(** Install a fresh global collector (disabling any previous one first). *)

val disable : unit -> unit
(** Flush the final metrics snapshot to every sink, close them, and drop
    the collector.  No-op when already disabled. *)

val enabled : unit -> bool

val registry : unit -> Metrics.t option
val snapshot : unit -> Metrics.snapshot
(** Empty when disabled. *)

val set_clock : (unit -> float) -> unit
(** Override the wall clock (seconds); for deterministic tests.  Defaults
    to [Unix.gettimeofday]. *)

(** {1 Instruments} — no-ops when the collector is disabled. *)

val add : ?labels:(string * string) list -> string -> float -> unit
(** Counter increment (monotone; negative raises when enabled). *)

val incr : ?labels:(string * string) list -> string -> unit
(** [add name 1.0]. *)

val set_gauge : ?labels:(string * string) list -> string -> float -> unit

val max_gauge : ?labels:(string * string) list -> string -> float -> unit
(** Peak tracking: the gauge keeps the maximum value ever passed. *)

val observe :
  ?buckets:float array -> ?labels:(string * string) list -> string -> float ->
  unit
(** Histogram observation. *)

(** {1 Spans} *)

val with_span : ?attrs:(string * string) list -> name:string -> (unit -> 'a) -> 'a
(** Run the thunk inside a named span: wall time and the metric deltas
    booked inside are recorded and sent to every sink when it finishes
    (also on exception).  When the collector is disabled this is exactly
    [fn ()]. *)
