(** Materialized view definitions: select / equi-join / project views over
    [n] base tables, optionally topped by grouped aggregation.

    Columns in [filter], [group_by], [aggs] and [projection] refer to the
    *joined schema*: the concatenation of every base table's schema
    qualified by its alias, in table order.  The join graph must be a
    tree: connected, with no edge closing a cycle (write such an equality
    as a filter conjunct). *)

type join_edge = {
  left : int;  (** table index *)
  left_col : string;  (** unqualified column in the left table *)
  right : int;
  right_col : string;
}

type t

type order =
  | First_order
      (** classic delta-join maintenance: each batch re-joins its delta
          against the other base tables (the paper's setting) *)
  | Higher_order
      (** DBToaster-style second-order deltas: per base table, the view's
          first-order delta query [d(V)/d(R_i)] is itself materialized
          ({!Maintainer} keeps one {!Deltaview} per table), so applying a
          batch is a hash lookup-and-merge instead of a delta join — the
          batch cost curves [f_i(k)] become flat, index-like *)

val order_name : order -> string
(** ["first-order"] / ["higher-order"] — stable labels for telemetry,
    tenant manifests and CLI flags. *)

val order_of_name : string -> order option
(** Inverse of {!order_name} — for manifests and CLI flags. *)

val make :
  name:string ->
  tables:Relation.Table.t array ->
  ?aliases:string array ->
  join:join_edge list ->
  ?filter:Relation.Expr.t ->
  ?group_by:string list ->
  ?aggs:Relation.Agg.spec list ->
  ?projection:string list ->
  ?scan_tables:int list ->
  ?order:order ->
  unit ->
  t
(** Raises [Invalid_argument] when the join graph is disconnected (for two
    or more tables), an edge closes a cycle (the message names the first
    such edge in list order; a second edge between one table pair is a
    cycle of two), an edge references unknown tables/columns, or both
    [aggs] and [projection] are given, or [scan_tables] names an unknown
    table.

    A delta batch expands along the join edges in list order: each step
    takes the first listed edge with exactly one bound endpoint.

    [scan_tables] (default none) lists the tables whose maintenance
    statement loads every partner into memory: a batch of such a table
    runs the [`Scan] path, one shared scan of each partner against a hash
    over the batch, even where the partner has a usable index (the
    paper's "small joining tables are loaded into memory" effect, which
    makes that table's cost curve flat in the batch size).  Every other
    table runs [`Index]. *)

val name : t -> string
val tables : t -> Relation.Table.t array
val n_tables : t -> int
val alias : t -> int -> string
val join_edges : t -> join_edge list
val filter : t -> Relation.Expr.t option
val group_by : t -> string list
val aggs : t -> Relation.Agg.spec list
val projection : t -> string list option

val joined_schema : t -> Relation.Schema.t
(** Concatenation of qualified base schemas in table order. *)

val output_schema : t -> Relation.Schema.t

val reference_plan : t -> Relation.Ra.t
(** {!joined_plan} topped by the view's aggregation ({!Relation.Ra.aggregate})
    or projection: the view's content from scratch, computed by relational
    operators only — the ground truth consistency checks compare the
    maintained content against. *)

val joined_plan : t -> Relation.Ra.t
(** The filtered join of every base table, carrying exactly the columns the
    view's content reads (group-by and aggregate arguments, the projection,
    or every column of a plain join view) in canonical joined-schema order.
    Each filter conjunct over one alias is pushed onto that alias's scan,
    each scan is projected to the columns read above it, and every join is
    a hash join built on the smaller side; conjuncts spanning aliases stay
    one [Select] above the joins.  {!Maintainer.create} folds its batches
    into the view's initial content. *)

val scoped_plan : t -> int array -> Relation.Ra.t
(** [scoped_plan v members] — the unfiltered join of the listed tables
    (ascending indices, connected among themselves), every column of each
    member in ascending table order, planned like {!joined_plan}: one
    {!Deltaview} component recomputed from scratch. *)

val content_positions : t -> int list
(** The joined-schema positions the view's content reads: group-by and
    aggregate argument columns, the projection, or every column of a
    plain join view — the columns {!joined_plan} keeps. *)

val edges_of_table : t -> int -> join_edge list
(** Edges incident to a table (normalized so [left] is that table). *)

val path : t -> int -> [ `Index | `Scan ]
(** The physical delta-join path a batch of table [i] runs when its queue
    is not routed: [`Scan] for a listed scan table, [`Index] otherwise. *)

val order : t -> order
(** The configured maintenance order (default [First_order]). *)

val with_order : t -> order -> t
(** The same view definition under a different maintenance order — the
    seam calibration uses to meter both paths over one logical view. *)

val with_tables : t -> Relation.Table.t array -> t
(** The same view definition over other base tables, one per original
    table with an equal schema ([Invalid_argument] otherwise) — the seam
    {!Maintainer.copy} rebuilds a view over copied tables with. *)
