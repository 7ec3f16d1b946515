(** Frequency sketch over join-key values.

    At calibration time the sketch holds exact counts (observe every key,
    never decay).  Online it holds exponentially decayed counts: each
    {!decay} multiplies every count by a factor, so the sketch tracks the
    recent key-frequency distribution and a drifted workload shows up as a
    changed ranking.  Decay is O(1) — a single scale factor shrinks, and
    the table is renormalized lazily when the factor gets small.

    Deterministic: counts depend only on the observation/decay sequence. *)

type t

val create : unit -> t

val copy : t -> t
(** An independent sketch with the same counts. *)

val observe : ?weight:float -> t -> int -> unit
(** Add [weight] (default 1) to the key's effective count. *)

val decay : t -> factor:float -> unit
(** Multiply every effective count by [factor] in (0, 1]. *)

val count : t -> int -> float
(** Current effective count (0 for never-seen keys). *)

val total : t -> float
(** Sum of all effective counts. *)

val distinct : t -> int

val share : t -> int -> float
(** [count / total], 0 on an empty sketch. *)

val ranked : t -> (int * float) list
(** Keys by descending effective count (ties: ascending key) — the
    deterministic ranking {!Split.calibrate} consumes. *)
