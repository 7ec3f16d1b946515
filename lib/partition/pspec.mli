(** Partitioned planner specs: each logical table [i] contributes two
    planner "tables", one per partition, numbered as the maintainer's
    routed lanes ({!Ivm.Maintainer.lane}): the heavy partition runs the
    indexed lane at [2i], the light partition the scan lane at [2i + 1].
    The result is a plain {!Abivm.Spec.t} over [2n] tables, so every
    planner (NAIVE/LGM/ADAPT/ONLINE, A*, Exact) works on it unchanged, and
    a plan's [2n]-wide action is a batch count per lane. *)

val count : n:int -> int
(** [2n]. *)

val path : Split.cls -> [ `Index | `Scan ]
(** The physical path a class runs on: heavy keys the index, light keys
    the shared scan. *)

val index : table:int -> Split.cls -> int
(** Planner-table index of a logical table's partition: the lane of its
    {!path}. *)

val logical : int -> int * Split.cls
(** Inverse of {!index}. *)

val label : names:string array -> int -> string
(** ["R.heavy"]-style display label ([names] are the logical tables'). *)

val make :
  costs:Cost.Func.t array ->
  limit:float ->
  arrivals:int array array ->
  Abivm.Spec.t
(** {!Abivm.Spec.make} plus the even-width sanity check. *)
