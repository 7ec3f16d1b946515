(** Partitioned planner specs: each logical table [i] contributes two
    planner "tables" — its heavy partition at index [2i] and its light
    partition at [2i + 1].  The result is a plain {!Abivm.Spec.t} over
    [2n] tables, so every planner (NAIVE/LGM/ADAPT/ONLINE, A*, Exact)
    works on it unchanged; only the index algebra here knows which planner
    table is which partition. *)

val count : n:int -> int
(** [2n]. *)

val index : table:int -> Split.cls -> int
(** Planner-table index of a logical table's partition. *)

val logical : int -> int * Split.cls
(** Inverse of {!index}. *)

val label : names:string array -> int -> string
(** ["R.heavy"]-style display label ([names] are the logical tables'). *)

val merge : Abivm.Statevec.t -> Abivm.Statevec.t
(** Project a [2n]-wide vector down to [n] logical components (heavy +
    light per table).  Raises [Invalid_argument] on odd widths. *)

val make :
  costs:Cost.Func.t array ->
  limit:float ->
  arrivals:int array array ->
  Abivm.Spec.t
(** {!Abivm.Spec.make} plus the even-width sanity check. *)
