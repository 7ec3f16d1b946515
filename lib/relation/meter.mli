(** Cost accounting for engine operations.

    The planner consumes abstract cost functions; the executed-mode runner
    needs a deterministic, machine-independent cost measurement of actual
    maintenance work.  Every physical operation in the engine bumps a counter
    on the meter attached to the table; {!cost_units} converts the counters
    to a scalar using fixed weights that approximate relative I/O and CPU
    costs (a sequential tuple touch is the unit).

    Meters are domain-safe: counters are sharded per domain and merged at
    {!snapshot}, so engines that share one meter may be maintained from
    several domains at once and the snapshot equals the sequential
    totals, with no lost update and no hot mutex on the per-tuple paths.  {!reset} is not atomic with respect
    to concurrent bumps — call it only while the meter is quiescent. *)

type t

type snapshot = {
  seq_scanned : int;  (** tuples touched by sequential scans *)
  index_probes : int;  (** index lookups performed *)
  index_entries : int;  (** tuples returned by index lookups *)
  inserted : int;
  deleted : int;
  hash_build : int;  (** tuples inserted into transient hash tables *)
  hash_probe : int;  (** probes of transient hash tables *)
  output : int;  (** tuples emitted by operators *)
  batch_setup : int;  (** fixed per-maintenance-statement setups *)
  batches : int;
      (** column batches touched by vectorized operators.  Weight 0 in
          {!cost_units}: vectorized loops bump the per-row counters above
          once per batch with row-equivalent totals (one atomic op instead
          of one per row), and this field only records how many batches the
          work was amortized over. *)
}

val create : unit -> t
val reset : t -> unit
val snapshot : t -> snapshot
val diff : snapshot -> snapshot -> snapshot
(** [diff later earlier] — per-field subtraction. *)

val bump_seq_scanned : t -> int -> unit
val bump_index_probes : t -> int -> unit
val bump_index_entries : t -> int -> unit
val bump_inserted : t -> int -> unit
val bump_deleted : t -> int -> unit
val bump_hash_build : t -> int -> unit
val bump_hash_probe : t -> int -> unit
val bump_output : t -> int -> unit
val bump_batch_setup : t -> int -> unit
val bump_batches : t -> int -> unit

val cost_units : snapshot -> float
(** Weighted scalar cost of a snapshot (or of a {!diff}). *)

val pp : Format.formatter -> snapshot -> unit
