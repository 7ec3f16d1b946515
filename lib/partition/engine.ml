type t = {
  maintainer : Ivm.Maintainer.t;
  key_of : int -> Ivm.Change.t -> int option;
  splits : Split.t array;  (** per logical table *)
  online : Sketch.t array;  (** decayed per-table key-frequency sketches *)
  decay : float;
}

let copy e =
  {
    e with
    maintainer = Ivm.Maintainer.copy e.maintainer;
    online = Array.map Sketch.copy e.online;
  }

let n_logical e = Array.length e.splits
let n_partitions e = Pspec.count ~n:(n_logical e)
let maintainer e = e.maintainer

(* Join key of a change on table [i]: the value of [i]'s join column in
   the change's tuple ([after] for updates — routing tracks where the row
   is going).  Tables without a join edge, and non-integer or NULL join
   keys, yield [None] and route light. *)
let key_of_view view =
  let tables = Ivm.Viewdef.tables view in
  let col_pos =
    Array.mapi
      (fun i table ->
        let col =
          List.find_map
            (fun (e : Ivm.Viewdef.join_edge) ->
              if e.left = i then Some e.left_col
              else if e.right = i then Some e.right_col
              else None)
            (Ivm.Viewdef.join_edges view)
        in
        Option.map
          (Relation.Schema.index_of (Relation.Table.schema table))
          col)
      tables
  in
  fun i (change : Ivm.Change.t) ->
    match col_pos.(i) with
    | None -> None
    | Some pos -> (
        let tuple =
          match change with
          | Ivm.Change.Insert t | Ivm.Change.Delete t -> t
          | Ivm.Change.Update { after; _ } -> after
        in
        match Relation.Tuple.get tuple pos with
        | Relation.Value.Int k -> Some k
        | _ -> None)

let create ?(decay = 0.98) ~key_of ~splits maintainer =
  let n = Ivm.Viewdef.n_tables (Ivm.Maintainer.view maintainer) in
  if Array.length splits <> n then
    invalid_arg "Partition.Engine.create: one split per logical table";
  if not (decay > 0.0 && decay <= 1.0) then
    invalid_arg "Partition.Engine.create: decay must be in (0, 1]";
  let online = Array.init n (fun _ -> Sketch.create ()) in
  Ivm.Maintainer.route maintainer (fun i change ->
      Pspec.path (Split.classify splits.(i) (key_of i change)));
  { maintainer; key_of; splits; online; decay }

let partition_of e i change =
  Pspec.index ~table:i (Split.classify e.splits.(i) (e.key_of i change))

let arrive e i change =
  if i < 0 || i >= n_logical e then
    invalid_arg "Partition.Engine.arrive: bad table index";
  (match e.key_of i change with
  | Some key -> Sketch.observe e.online.(i) key
  | None -> ());
  Ivm.Maintainer.on_arrive e.maintainer i change

let pending e = Ivm.Maintainer.pending_sizes e.maintainer
let end_step e =
  Array.iter (fun sketch -> Sketch.decay sketch ~factor:e.decay) e.online

let drift e i =
  if i < 0 || i >= n_logical e then
    invalid_arg "Partition.Engine.drift: bad table index";
  abs_float
    (Split.heavy_share e.splits.(i) e.online.(i)
    -. Split.coverage e.splits.(i))

let rows e = Ivm.Maintainer.rows e.maintainer
