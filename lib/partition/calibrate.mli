(** Calibration for partitioned maintenance: key-frequency sketches from
    the current base tables or from a stream sample, splits for every
    table of a view, and one partition's metered cost curve, measured by
    {!Bridge.Calibrate.measure}.  The skew-blind baseline's curve for a
    logical table is {!Bridge.Calibrate.measure_curve} on the routed
    maintainer. *)

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
(** Measured [(k, cost_units)] points for one partition:
    {!Bridge.Calibrate.measure} on the engine's maintainer, with a fill
    that draws modifications from [next] — keeping only those the engine
    routes to this partition — until [k] are queued.  Like the
    bridge-level calibration this mutates the engine's database as it
    measures.  [max_draw] (default 200k)
    bounds the filtering per batch: a class too rare in the stream raises
    [Invalid_argument] at the size it starves.  What
    {!Bridge.Calibrate.measure} refuses (anything pending, a negative
    size) raises before any draw.  Use insertion streams: discarding
    shadow-generated updates or deletes would desynchronize the feed. *)
