(** Synthetic two-table join dataset reproducing the paper's §1 / Fig. 1
    setting: a view [R ⋈ S] where R is indexed on the join attribute and S
    is not.

    Consequences in the engine: a ΔS batch probes R's index per tuple
    (cost linear in the batch, the paper's [c_ΔS]); a ΔR batch triggers one
    shared scan of S with a hash built over the batch (cost nearly flat in
    the batch size, the paper's [c_ΔR]). *)

type db2 = {
  r : Relation.Table.t;
  s : Relation.Table.t;
  meter : Relation.Meter.t;
}

val generate :
  ?seed:int -> r_rows:int -> s_rows:int -> ?join_domain:int -> unit -> db2
(** [join_domain] (default [max r_rows s_rows / 4], at least 1) is the
    number of distinct join values; smaller domains mean higher join
    fan-out. *)

val view_over : Relation.Table.t array -> Ivm.Viewdef.t
(** [R ⋈ S] on [jk] as a COUNT aggregate view over [[| r; s |]]
    (planner table 0 = R, 1 = S) — over a fresh database's tables, or
    over tables a checkpoint restored. *)

val join_view : db2 -> Ivm.Viewdef.t
(** {!view_over} the database's own tables. *)

val insert_feeds : seed:int -> db2 -> Updates.feeds
(** Insertion streams for both tables (the §1 example uses insertions). *)

val zipf_feeds : seed:int -> ?exponent:float -> db2 -> Updates.feeds
(** Skewed insertion streams: join keys are drawn Zipfian over the
    recovered join domain (rank 0 hottest, weight [∝ 1/(rank+1)^exponent],
    default exponent [1.0]) instead of uniformly, so a few hot keys carry
    most of the join fan-out — the adversarial case for per-tuple probing
    and the stress stream of the skew-partitioning tests and benchmark.
    Deterministic in [seed]. *)
