(** Heavy/light partitioning of one relation by join-key frequency, after
    Abo-Khamis et al. (PAPERS.md): keys carrying at least a [min_share]
    fraction of the observed traffic (capped at [max_heavy] keys) form the
    heavy partition; everything else — including rows whose join key is
    not an integer, e.g. NULL — is light.

    The calibrated threshold is the effective count of the lightest heavy
    key, recorded for reporting; membership is by key set, so a split is a
    stable classification function until explicitly recalibrated. *)

type cls = Heavy | Light

val cls_name : cls -> string

type t

val calibrate : ?max_heavy:int -> ?min_share:float -> Sketch.t -> t
(** Rank the sketch's keys by count and take heavy keys greedily while
    each key's share of total mass is at least [min_share] (default
    0.01), up to [max_heavy] (default 64) keys.  An empty sketch yields an all-light split. *)

val classify : t -> int option -> cls
(** [None] (no integer join key on the change) is always [Light]. *)

val is_heavy : t -> int -> bool
val heavy_count : t -> int
val heavy_keys : t -> int list

val threshold : t -> float
(** Effective count of the lightest heavy key ([infinity] when the heavy
    set is empty). *)

val coverage : t -> float
(** Fraction of the calibration sketch's mass on the heavy set. *)

val heavy_share : t -> Sketch.t -> float
(** Current share of [sketch]'s mass on this split's heavy set —
    the drift signal, to be compared against {!coverage}. *)
