(** Pluggable span consumers.

    A sink receives every finished span while the collector is enabled and
    a final metrics snapshot when it shuts down. *)

type t = {
  on_span : Span.t -> unit;
  on_close : Metrics.snapshot -> unit;
}

val make : ?on_close:(Metrics.snapshot -> unit) -> (Span.t -> unit) -> t

val jsonl_channel : ?close:bool -> out_channel -> t
(** One JSON object per line: every span as it finishes, then one final
    [{"type": "metrics", ...}] line with the full metrics snapshot.
    [close] (default false) closes the channel on shutdown. *)

val jsonl_file : string -> t
(** {!jsonl_channel} over a fresh file (truncating); closed on shutdown. *)

val memory : unit -> t * (unit -> Span.t list)
(** Collects spans in memory; the thunk returns them in creation order.
    For tests. *)
