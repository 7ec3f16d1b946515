(** Deterministic TPC-R-style database generator.

    Generates the tables the paper's experiment needs — Region, Nation,
    Supplier, Part, PartSupp — at a configurable scale factor with TPC-R's
    cardinality ratios (SF 1.0 = 10,000 suppliers, 200,000 parts, 800,000
    partsupp rows; the paper quotes 800,000 PartSupp and 10,000 Supplier
    rows).  All tables share one meter.  Indexes mirror what a sane TPC-R
    deployment has: every primary key, plus [ps_suppkey] on PartSupp (the
    index that makes Supplier-delta maintenance an indexed path). *)

type db = {
  region : Relation.Table.t;
  nation : Relation.Table.t;
  supplier : Relation.Table.t;
  part : Relation.Table.t;
  partsupp : Relation.Table.t;
  meter : Relation.Meter.t;
}

val region_names : string array
(** The five TPC-R region names, ["MIDDLE EAST"] included. *)

val generate : ?seed:int -> scale:float -> unit -> db
(** [generate ~scale ()] builds and populates the database.  [scale] must
    be positive; cardinalities are rounded up so even tiny scales have at
    least one supplier/part.  Deterministic in [seed] (default 42). *)

val min_supplycost_view : ?region:string -> db -> Ivm.Viewdef.t
(** The paper's §5 view:

    {v
    SELECT MIN(PS.supplycost) FROM PartSupp PS, Supplier S, Nation N, Region R
    WHERE S.suppkey = PS.suppkey AND S.nationkey = N.nationkey
      AND N.regionkey = R.regionkey AND R.name = 'MIDDLE EAST'
    v}

    Table order (for the planner): 0 = PartSupp, 1 = Supplier, 2 = Nation,
    3 = Region.  PartSupp is the view's one scan table (its batches load
    the dimension tables into memory: a flat curve); the others probe
    indexes.  [region] defaults to ["MIDDLE EAST"]. *)
