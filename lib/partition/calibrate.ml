(* Exact counts of the current rows' values in [col] (unmetered scan;
   non-integer values are skipped). *)
let sketch_of_table table ~col =
  let pos = Relation.Schema.index_of (Relation.Table.schema table) col in
  let sketch = Sketch.create () in
  List.iter
    (fun tuple ->
      match Relation.Tuple.get tuple pos with
      | Relation.Value.Int k -> Sketch.observe sketch k
      | _ -> ())
    (Relation.Table.to_list_unmetered table);
  sketch

let splits_of_view ?max_heavy ?min_share view =
  let tables = Ivm.Viewdef.tables view in
  let key_col i =
    List.find_map
      (fun (e : Ivm.Viewdef.join_edge) ->
        if e.left = i then Some e.left_col
        else if e.right = i then Some e.right_col
        else None)
      (Ivm.Viewdef.join_edges view)
  in
  Array.mapi
    (fun i table ->
      let sketch =
        match key_col i with
        | Some col -> sketch_of_table table ~col
        | None -> Sketch.create ()
      in
      Split.calibrate ?max_heavy ?min_share sketch)
    tables

let splits_of_sample ?min_share view ~next =
  let key_of = Engine.key_of_view view in
  Array.init (Array.length (Ivm.Viewdef.tables view)) (fun i ->
      let sketch = Sketch.create () in
      for _ = 1 to 1500 do
        Option.iter (Sketch.observe sketch) (key_of i (next i))
      done;
      Split.calibrate ?min_share sketch)

let check_start fn e ~sizes =
  if Array.exists (fun q -> q > 0) (Engine.pending e) then
    invalid_arg
      ("Partition.Calibrate." ^ fn ^ ": engine has pending modifications");
  if List.exists (fun k -> k < 0) sizes then
    invalid_arg ("Partition.Calibrate." ^ fn ^ ": negative batch size")

let measure_curve ?(max_draw = 200_000) e ~next ~table ~cls ~sizes =
  check_start "measure_curve" e ~sizes;
  let p = Pspec.index ~table cls and m = Engine.maintainer e in
  List.map
    (fun k ->
      let drawn = ref 0 in
      while Ivm.Maintainer.pending_size m p < k do
        incr drawn;
        if !drawn > max_draw then
          invalid_arg
            (Printf.sprintf
               "Partition.Calibrate.measure_curve: class %s of table %d too \
                rare in the stream (%d draws for a %d-batch)"
               (Split.cls_name cls) table max_draw k);
        let change = next () in
        (* Off-class draws are discarded — the curve prices this class
           alone.  Only insertion streams can be filtered this way. *)
        if Engine.partition_of e table change = p then
          Engine.arrive e table change
      done;
      (k, Relation.Meter.cost_units (Ivm.Maintainer.process m p k)))
    sizes

let measure_blind_curve e ~next ~table ~sizes =
  check_start "measure_blind_curve" e ~sizes;
  List.map
    (fun k ->
      for _ = 1 to k do
        Engine.arrive e table (next ())
      done;
      (k, Ivm.Maintainer.apply (Engine.maintainer e) (Engine.pending e)))
    sizes
