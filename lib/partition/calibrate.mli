(** Calibration for partitioned maintenance: key-frequency sketches from
    the current base tables or from a stream sample, splits for every
    table of a view, and metered cost curves in the style of
    [Bridge.Calibrate.measure_curve] — per partition, and per logical
    table for the skew-blind baseline. *)

val splits_of_view :
  ?max_heavy:int -> ?min_share:float -> Ivm.Viewdef.t -> Split.t array
(** One calibrated split per table, sketched from each table's join
    column; tables without a join edge get an all-light split. *)

val splits_of_sample :
  ?min_share:float ->
  Ivm.Viewdef.t ->
  next:(int -> Ivm.Change.t) ->
  Split.t array
(** One calibrated split per table, sketched from the join keys
    ({!Engine.key_of_view}) of 1500 modifications drawn from [next i],
    table by table; draws without a key are skipped. *)

val measure_curve :
  ?max_draw:int ->
  Engine.t ->
  next:(unit -> Ivm.Change.t) ->
  table:int ->
  cls:Split.cls ->
  sizes:int list ->
  (int * float) list
(** Measured [(k, cost_units)] points for one partition: per size, draw
    modifications from [next] — keeping only those the engine routes to
    this partition — until [k] are queued, process them as one batch, and
    record the metered cost.  Like the bridge-level calibration this
    mutates the engine's database as it measures.  [max_draw] (default
    200k) bounds the filtering per batch; a class too rare in the stream
    raises [Invalid_argument].  Use insertion streams: discarding
    shadow-generated updates or deletes would desynchronize the feed. *)

val measure_blind_curve :
  Engine.t ->
  next:(unit -> Ivm.Change.t) ->
  table:int ->
  sizes:int list ->
  (int * float) list
(** The skew-blind baseline's curve for one logical table, metered on the
    partitioned engine: per size, queue [k] draws from [next] whatever
    their class, then drain both of the table's partitions (heavy first,
    one batch each); the point's cost is their sum.  The engine must start
    with empty queues; [Invalid_argument] otherwise. *)
