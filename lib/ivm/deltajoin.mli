(** Row-id delta joins: the expansion-and-netting kernel behind every
    incremental maintenance path.

    A maintenance batch of table [delta] is expanded across the view's join
    edges into {e partials}.  A partial binds each table it has reached to
    an [int]: the delta slot holds an index into the batch's delta array,
    every other slot the absolute row id of a live partner row.  No tuple
    is built while expanding — on the [`Index] path an indexed partner is
    probed through {!Relation.Table.iter_ids}; an unindexed one, and every
    partner on the [`Scan] path, is scanned once per edge against a hash
    over the partials' join keys — and rows are read
    back by id only where something needs their values: the join keys of
    the next edge, the view filter, the netting hash, and the content
    update of each surviving net row.

    First-order maintenance expands across every table and nets
    ({!net_partials}); higher-order maintenance ({!Deltaview}) expands
    across one delta-view component and materializes only that
    component's member rows.

    Metering is the delta join's cost model: an index edge bumps one
    [index_probes] per partial and one [index_entries] per matched row
    (inside [iter_ids]); a scan edge bumps one [hash_build] per partial,
    one [hash_probe] per scanned row and the scan's own counters.

    The kernel allocates nothing per partial: expansion and netting run
    in a {!scratch} whose buffers grow geometrically and are reused by
    every later batch. *)

type batch
(** The signed delta tuples of one maintenance batch. *)

val batch : delta:int -> (Relation.Tuple.t * int) list -> batch
(** [batch ~delta deltas] — [deltas] are table [delta]'s signed tuples in
    processing order. *)

val delta : batch -> int

val tuple : batch -> int -> Relation.Tuple.t
(** [tuple b d] — the [d]-th delta tuple. *)

val sign : batch -> int -> int

type partials
(** A flat set of row-id partials, in expansion order.  The partials
    {!expand} returns live in its scratch and stay valid until the next
    {!expand} on that scratch. *)

type scratch
(** The kernel's working memory: two partial buffers, one read and one
    written by each expansion step and swapped after it, and the netting
    table.  A scratch belongs to one maintainer and is used by one domain
    at a time: it is never shared between maintainers (so never between
    domains), and a copied maintainer gets a fresh one.  It holds no
    state between batches, only capacity. *)

val scratch : unit -> scratch
(** An empty scratch; it serves expansions over any view. *)

val trim : scratch -> unit
(** Drop every buffer a large batch grew past 64 Ki words (512 KiB), so
    that between batches a scratch holds at most a few megabytes; the
    next batch that needs one grows it again.  Call after each batch. *)

val count : partials -> int

val id : partials -> int -> int -> int
(** [id ps p j] — slot [j] of partial [p]: a delta index if [j] is the
    batch's table, a row id of table [j] otherwise, [-1] if unbound. *)

val expand :
  Viewdef.t ->
  Relation.Meter.t ->
  path:[ `Index | `Scan ] ->
  scope:bool array ->
  scratch ->
  batch ->
  partials
(** Expand the batch across the in-scope tables, in the scratch's buffers
    (the batch's table must be in scope; the scope must be connected).
    Each step takes the first listed join edge with exactly one bound
    endpoint.  Under [`Index] an edge probes the partner's index where it
    has one on the join column and scans it otherwise; under [`Scan]
    every edge runs the shared scan.  The caller picks the path
    ({!Maintainer} from the batch's queue).  Hash-side bumps go to the
    meter given; scans and probes bump the partner table's meter. *)

type cells
(** Joined-schema positions resolved to (table, column) slots. *)

val cells : Viewdef.t -> int list -> cells

val cells_table : cells -> int
(** The one table every cell reads, or [-1] if they read several (or
    there are none). *)

val fill : Viewdef.t -> batch -> partials -> int -> cells -> Relation.Tuple.t -> unit
(** [fill v b ps p cells row] writes partial [p]'s values at [cells] into
    the joined-arity [row]; other positions are left alone. *)

val net :
  scratch ->
  count:int ->
  keep:(int -> bool) ->
  hash:(int -> int) ->
  equal:(int -> int -> bool) ->
  sign:(int -> int) ->
  (int -> int -> unit) ->
  unit
(** [net s ~count ~keep ~hash ~equal ~sign f] nets items [0 .. count -
    1] by value in the scratch's netting table: [keep] runs on every item
    in order; kept items with equal values ([hash]/[equal]) sum their
    [sign]s.  Then [f item net] runs on the first item of every value
    whose net is non-zero, in order of first occurrence.  The partial
    buffers are left alone, so the items may be partials of the same
    scratch; [f] must not use the scratch. *)

val net_partials :
  Viewdef.t ->
  scratch ->
  batch ->
  partials ->
  keep:(int -> bool) ->
  (int -> int -> unit) ->
  unit
(** {!net} over fully bound partials, by the value of the joined row they
    stand for, computed in place: the delta slot by the batch's canonical
    delta index (the first delta with an equal tuple), every partner slot
    by its row's column values ({!Relation.Table.hash_row},
    {!Relation.Table.equal_rows}), so equal-valued bag rows net. *)
