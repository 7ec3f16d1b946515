(** Deterministic pseudo-random number generation.

    All randomness in this repository flows through this module so that
    experiments, tests, and benchmarks are reproducible from an explicit
    seed.  The generator is splitmix64, which is fast, has a 64-bit state,
    and supports cheap splitting into independent streams. *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] returns a fresh generator determined solely by [seed]. *)

val copy : t -> t
(** [copy g] is an independent generator with the same current state. *)

val split : t -> t
(** [split g] advances [g] and returns a new generator whose stream is
    statistically independent from the remainder of [g]'s stream. *)

val bits64 : t -> int64
(** Next raw 64 bits. *)

val int : t -> int -> int
(** [int g bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val int_in : t -> int -> int -> int
(** [int_in g lo hi] is uniform in [\[lo, hi\]] (inclusive). *)

val float : t -> float -> float
(** [float g bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val bernoulli : t -> float -> bool
(** [bernoulli g p] is [true] with probability [p]. *)

val normal : t -> mu:float -> sigma:float -> float
(** Gaussian sample via the Box-Muller transform. *)

val exponential : t -> rate:float -> float
(** Exponential sample with the given rate (mean [1. /. rate]). *)

val poisson : t -> mean:float -> int
(** Poisson sample.  Uses Knuth's method for small means and a normal
    approximation (rounded, clamped at 0) for means above 64. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val sample_without_replacement : t -> int -> int -> int array
(** [sample_without_replacement g k n] returns [k] distinct integers drawn
    uniformly from [\[0, n)], in random order.  Requires [k <= n]. *)

val zipf_sampler : exponent:float -> n:int -> t -> int
(** [zipf_sampler ~exponent ~n] precomputes the cumulative Zipfian weights
    [w_r ∝ 1 / (r + 1)^exponent] over ranks [0 .. n - 1] and returns a
    sampler (one uniform draw plus a binary search per call).  Rank 0 is
    the hottest value; [exponent = 0.] degrades to uniform.  Partial
    application amortizes the precomputation across draws. *)
