(** Partitioned maintenance engine: heavy/light partitioning as the path
    policy of one routed {!Ivm.Maintainer}.

    {!create} {!Ivm.Maintainer.route}s the maintainer by join key: each
    arriving modification is classified against its logical table's
    {!Split}, heavy keys join the table's indexed lane (eager probes into
    the partner's index), light keys its scan lane (the batched shared
    scan).  A partition is a lane, numbered as {!Pspec.index}, so a
    [2n]-wide plan action is applied by {!Ivm.Maintainer.apply} directly.
    The view content is routing-independent (signed multiset semantics):
    a partitioned engine that drains everything is bit-identical to an
    unpartitioned one fed the same stream; only the metered cost of
    getting there moves — which is exactly what gives each partition its
    own honest [f_i(k)].

    Online, every arrival also feeds a decayed per-table frequency
    sketch, and {!drift} compares it with the calibrated split.  The
    splits are fixed for the engine's life: repartitioning live would
    need a re-route of the maintainer's queued changes.

    Routing requires per-key FIFO consistency: modifications touching the
    same row must share a partition, which holds because classification is
    a function of the join key.  Streams whose updates move a row's join
    key should stay unpartitioned. *)

type t

val key_of_view : Ivm.Viewdef.t -> int -> Ivm.Change.t -> int option
(** Join-key extractor for a view's tables: the change tuple's value in
    table [i]'s join column ([after] for updates), [None] for non-integer
    or NULL keys and for tables without a join edge. *)

val create :
  ?decay:float ->
  key_of:(int -> Ivm.Change.t -> int option) ->
  splits:Split.t array ->
  Ivm.Maintainer.t ->
  t
(** Routes the maintainer by [key_of] and [splits] (one per logical
    table).  [decay] (default 0.98) is the per-step factor for the online
    sketches.  Raises [Invalid_argument] if the maintainer has pending
    modifications ({!Ivm.Maintainer.route}). *)

val n_logical : t -> int
val n_partitions : t -> int
val maintainer : t -> Ivm.Maintainer.t

val partition_of : t -> int -> Ivm.Change.t -> int

val arrive : t -> int -> Ivm.Change.t -> unit
(** Feed the modification's key to table [i]'s online sketch, then
    {!Ivm.Maintainer.on_arrive} it into its partition's lane: two
    [key_of] calls per arrival. *)

val pending : t -> int array
(** Lane sizes, indexed by partition ([2n] wide). *)

val end_step : t -> unit
(** Close one time step: decay the online sketches. *)

val drift : t -> int -> float
(** |current heavy share − calibrated coverage| for table [i]'s split
    against its online sketch: the key-frequency drift signal. *)

val rows : t -> Relation.Tuple.t list
