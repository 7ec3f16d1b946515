(** Materialized first-order delta views [d(V)/d(R_i)] — the auxiliary
    structures behind {!Viewdef.Higher_order} maintenance (DBToaster-style
    second-order delta processing).

    For each base table [i], removing [i] from the (connected) join graph
    splits the remaining tables into connected components; each component's
    sub-join is materialized as a flat slot store of the component's joined
    subtuples with multiplicity, chained by the values [i] joins against
    (the anchor key); a slot whose count reaches 0 is dead until revived
    or compacted away.  Applying a batch of [k] modifications of [i] is
    then one hash probe per (delta tuple, component) plus a cross product
    of the matches — index-like in [k] — instead of a delta join against
    the base tables.  Keeping components separate avoids materializing the
    cross product of unrelated branches (for a star join, the full rest
    join of the hub table would be the product of every spoke).

    The second-order part: when a batch of table [i] is processed, every
    other table's delta view contains [i] in exactly one component; that
    component is maintained by expanding the batch across the component's
    own edges (a strictly smaller join) and merging the subtuples.

    Metering: probes bump [hash_probe] (one per delta tuple per component)
    and [index_entries] (one per matched subtuple); maintenance merges
    bump [hash_build] (one per merged subtuple).  Expansions during
    maintenance are metered by the {!Deltajoin} kernel they share with
    first-order maintenance. *)

type t

val create : meter:Relation.Meter.t -> Viewdef.t -> t
(** Build and fill one delta view per base table from the current base
    table contents, each component from its {!Viewdef.scoped_plan}. *)

val copy : meter:Relation.Meter.t -> view:Viewdef.t -> t -> t
(** An independent copy of every component (array copies, the same slots
    in the same order), metered on [meter] and reading the base tables of
    [view] — the original's view over copied tables
    ({!Viewdef.with_tables}).  Unmetered. *)

val contributions :
  t -> int -> (Relation.Tuple.t * int) list -> (Relation.Tuple.t * int) list
(** [contributions t i deltas] — the signed joined-row contributions of a
    signed delta batch of table [i], computed purely from [i]'s delta view
    (no base-table access).  Rows are in canonical joined-schema order;
    the caller nets, filters and applies them. *)

val update :
  t ->
  scratch:Deltajoin.scratch ->
  path:[ `Index | `Scan ] ->
  Deltajoin.batch ->
  unit
(** Fold a processed batch into every other table's delta view (the base
    tables must not yet reflect the batch): the batch is expanded across
    the affected component ({!Deltajoin.expand}, under [path], in
    [scratch] — the owning maintainer's) and each row-id partial's member
    rows are materialized into one subtuple.  Owners whose affected
    component is the same table set share one expansion. *)

val entries : t -> int
(** Total materialized subtuple count (live slots) across all delta views
    — the memory footprint higher-order maintenance pays for its flat
    cost curves. *)

val check : t -> (unit, string) result
(** Compare every component against a from-scratch recompute over the
    current base tables ({!Viewdef.scoped_plan}).  The error names every
    diverged component, its owner, the first differing subtuple and its
    maintained and rebuilt counts. *)
