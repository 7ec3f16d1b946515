module Thash = Hashtbl.Make (struct
  type t = Relation.Tuple.t

  let equal = Relation.Tuple.equal
  let hash = Relation.Tuple.hash
end)

module Vhash = Hashtbl.Make (struct
  type t = Relation.Value.t

  let equal = Relation.Value.equal
  let hash = Relation.Value.hash
end)

type content =
  | Bag of { counts : int Thash.t; positions : int array }
      (** projected-tuple multiplicities; [positions] maps joined-schema
          positions to output positions *)
  | Grouped of Groups.t

type t = {
  view : Viewdef.t;
  pending : Pending.t array;
  content : content;
  filter_fn : (Relation.Tuple.t -> bool) option;
  meter : Relation.Meter.t;
  order : Viewdef.order;
  mutable dv : Deltaview.t option;
      (** the materialized [d(V)/d(R_i)] structures; [Some] iff
          [order = Higher_order] *)
  mutable path_override : [ `Index | `Scan ] option;
      (** physical-path override for the batch currently inside
          {!process}; [None] outside a batch and for default routing *)
}

let view m = m.view
let meter m = m.meter
let order m = m.order

let bag_apply counts tuple count =
  let current = match Thash.find_opt counts tuple with Some c -> c | None -> 0 in
  let updated = current + count in
  if updated < 0 then
    invalid_arg "Maintainer: view tuple multiplicity would go negative";
  if updated = 0 then Thash.remove counts tuple
  else Thash.replace counts tuple updated

let on_arrive m i change =
  if i < 0 || i >= Array.length m.pending then
    invalid_arg "Maintainer.on_arrive: bad table index";
  Pending.push m.pending.(i) change

let pending_sizes m = Array.map Pending.size m.pending

let pending_size m i = Pending.size m.pending.(i)

(* --- delta join expansion ---------------------------------------------- *)

(* A partial result binds a subset of the tables to concrete tuples. *)
type partial = { bindings : Relation.Tuple.t option array; sign : int }

let bind partial j tuple =
  let bindings = Array.copy partial.bindings in
  bindings.(j) <- Some tuple;
  { partial with bindings }

(* Candidate expansion edges: those inside the scope with exactly one
   endpoint bound, normalized so [left] is the bound side.  First-order
   maintenance always passes an all-true scope (the whole view); the
   higher-order path restricts expansion to one delta-view component. *)
let frontier_edges view ~scope bound =
  List.filter_map
    (fun (e : Viewdef.join_edge) ->
      if not (scope.(e.left) && scope.(e.right)) then None
      else if bound.(e.left) && not bound.(e.right) then Some e
      else if bound.(e.right) && not bound.(e.left) then
        Some
          {
            Viewdef.left = e.right;
            left_col = e.right_col;
            right = e.left;
            right_col = e.left_col;
          }
      else None)
    (Viewdef.join_edges view)

(* Estimated cost of expanding one partial across an edge: an indexed
   partner costs a probe returning its average bucket size; an unindexed
   partner costs its full row count (shared scan, but a conservative
   per-partial proxy keeps the heuristic simple). *)
let edge_cost_estimate view ~delta (e : Viewdef.join_edge) =
  let dst = (Viewdef.tables view).(e.right) in
  let rows = float_of_int (max 1 (Relation.Table.row_count dst)) in
  if
    Relation.Table.has_index dst e.right_col
    && not (Viewdef.force_scan view ~delta ~partner:e.right)
  then rows /. float_of_int (max 1 (Relation.Table.distinct_estimate dst e.right_col))
  else rows

(* Pick the next join edge from a bound table to an unbound one: first in
   edge-list order (Fixed) or cheapest estimated expansion (Adaptive). *)
let next_edge view ~delta ~scope bound =
  match frontier_edges view ~scope bound with
  | [] -> None
  | first :: rest -> (
      match Viewdef.join_order view with
      | Viewdef.Fixed -> Some first
      | Viewdef.Adaptive ->
          Some
            (List.fold_left
               (fun best e ->
                 if
                   edge_cost_estimate view ~delta e
                   < edge_cost_estimate view ~delta best
                 then e
                 else best)
               first rest))

let expand_step m ~delta partials (e : Viewdef.join_edge) =
  let tables = Viewdef.tables m.view in
  let src_table = tables.(e.left) and dst_table = tables.(e.right) in
  let src_pos =
    Relation.Schema.index_of (Relation.Table.schema src_table) e.left_col
  in
  let bound_value p =
    match p.bindings.(e.left) with
    | Some tuple -> Relation.Tuple.get tuple src_pos
    | None -> assert false
  in
  if
    Relation.Table.has_index dst_table e.right_col
    && (match m.path_override with
       | Some `Scan -> false
       | Some `Index -> true
       | None -> not (Viewdef.force_scan m.view ~delta ~partner:e.right))
  then
    (* Indexed nested-loop: one probe per partial. *)
    List.concat_map
      (fun p ->
        let matches = Relation.Table.lookup dst_table e.right_col (bound_value p) in
        List.map (fun rt -> bind p e.right rt) matches)
      partials
  else begin
    (* No index: build a hash over the batch, scan the partner once — in
       column batches, materializing a partner tuple only on a key match.
       Meter totals are row-equivalent to the old row-at-a-time path: one
       hash_build per partial, one hash_probe per scanned row (bumped per
       batch), plus the scan counters that [scan_batches] itself books. *)
    let dst_schema = Relation.Table.schema dst_table in
    let dst_pos = Relation.Schema.index_of dst_schema e.right_col in
    let parr = Array.of_list partials in
    Relation.Meter.bump_hash_build m.meter (Array.length parr);
    let out = ref [] in
    let int_key =
      Relation.Schema.column_type dst_schema dst_pos = Relation.Datatype.TInt
      && Array.for_all
           (fun p ->
             match bound_value p with
             | Relation.Value.Int _ | Relation.Value.Null -> true
             | _ -> false)
           parr
    in
    if int_key then begin
      (* unboxed probe set over the delta's join-key values; NULL-valued
         partials keep their own chain because NULL joins NULL here
         (Value.equal Null Null), as in the boxed hash path *)
      let h = Relation.Ihash.create (max 16 (Array.length parr)) in
      let null_partials = ref [] in
      Array.iteri
        (fun j p ->
          match bound_value p with
          | Relation.Value.Int k -> Relation.Ihash.add h k j
          | _ -> null_partials := j :: !null_partials)
        parr;
      let null_partials = List.rev !null_partials in
      Relation.Table.scan_batches dst_table (fun b ->
          Relation.Meter.bump_hash_probe m.meter b.Relation.Batch.n_sel;
          let col = b.Relation.Batch.cols.(dst_pos) in
          let data = Relation.Column.int_data col in
          let valid = Relation.Column.validity col in
          let base = b.Relation.Batch.base and sel = b.Relation.Batch.sel in
          for s = 0 to b.Relation.Batch.n_sel - 1 do
            let r = Array.unsafe_get sel s in
            let abs = base + r in
            if Relation.Column.bit valid abs then begin
              let cell =
                ref (Relation.Ihash.first h (Bigarray.Array1.unsafe_get data abs))
              in
              if !cell >= 0 then begin
                let rt = Relation.Batch.tuple b r in
                while !cell >= 0 do
                  let j = Relation.Ihash.payload_of h !cell in
                  out := bind parr.(j) e.right rt :: !out;
                  cell := Relation.Ihash.next_cell h !cell
                done
              end
            end
            else
              match null_partials with
              | [] -> ()
              | js ->
                  let rt = Relation.Batch.tuple b r in
                  List.iter
                    (fun j -> out := bind parr.(j) e.right rt :: !out)
                    js
          done)
    end
    else begin
      let by_value = Vhash.create (max 16 (Array.length parr)) in
      Array.iter (fun p -> Vhash.add by_value (bound_value p) p) parr;
      Relation.Table.scan_batches dst_table (fun b ->
          Relation.Meter.bump_hash_probe m.meter b.Relation.Batch.n_sel;
          Relation.Batch.iter_sel
            (fun r ->
              let v = Relation.Batch.value b dst_pos r in
              match Vhash.find_all by_value v with
              | [] -> ()
              | ps ->
                  let rt = Relation.Batch.tuple b r in
                  List.iter (fun p -> out := bind p e.right rt :: !out) ps)
            b)
    end;
    List.rev !out
  end

let joined_tuple m partial =
  let tables = Viewdef.tables m.view in
  let parts =
    Array.mapi
      (fun j _ ->
        match partial.bindings.(j) with
        | Some tuple -> tuple
        | None -> assert false)
      tables
  in
  Array.concat (Array.to_list parts)

(* Delta-join expansion of signed delta tuples of table [delta] across the
   in-scope tables (all bindings in the result cover exactly the scope). *)
let expand_scoped m ~scope ~delta deltas =
  let n = Viewdef.n_tables m.view in
  let bound = Array.make n false in
  bound.(delta) <- true;
  let partials =
    List.map
      (fun (tuple, sign) ->
        let bindings = Array.make n None in
        bindings.(delta) <- Some tuple;
        { bindings; sign })
      deltas
  in
  let rec expand partials bound =
    match next_edge m.view ~delta ~scope bound with
    | None -> partials
    | Some e ->
        let expanded = expand_step m ~delta partials e in
        bound.(e.right) <- true;
        expand expanded bound
  in
  expand partials bound

(* The scoped expansion in the shape {!Deltaview} consumes. *)
let expander m : Deltaview.expander =
 fun ~scope ~delta deltas ->
  List.map
    (fun p -> (p.bindings, p.sign))
    (expand_scoped m ~scope ~delta deltas)

(* Net signed joined rows per distinct row: expansion order depends on the
   physical path (index probes preserve delta order, shared scans emit in
   scan order), and a batch touching the same row twice must not apply a
   removal before the matching insertion.  Netting makes the application
   order-insensitive.  The view filter is applied here, on the full joined
   row. *)
let net_contributions m rows =
  let net = Thash.create 64 in
  let order = ref [] in
  List.iter
    (fun (row, count) ->
      let keep = match m.filter_fn with Some pred -> pred row | None -> true in
      if keep then
        match Thash.find_opt net row with
        | Some cell -> cell := !cell + count
        | None ->
            Thash.add net row (ref count);
            order := row :: !order)
    rows;
  List.rev !order
  |> List.map (fun row -> (row, !(Thash.find net row)))
  |> List.filter (fun (_, count) -> count <> 0)

(* Compute the signed joined contributions of a batch of delta tuples from
   table [i] by first-order delta join: expand across every other table,
   then net. *)
let expand_batch m i deltas =
  let scope = Array.make (Viewdef.n_tables m.view) true in
  let full = expand_scoped m ~scope ~delta:i deltas in
  net_contributions m (List.map (fun p -> (joined_tuple m p, p.sign)) full)

(* The initial content: the batches of {!Viewdef.joined_plan} folded
   straight into [Groups], or into the bag with only the output columns
   boxed. *)
let materialize view =
  let joined_schema = Viewdef.joined_schema view in
  let plan = Viewdef.joined_plan view in
  if Viewdef.aggs view <> [] then begin
    let groups =
      Groups.create ~schema:joined_schema ~group_by:(Viewdef.group_by view)
        ~specs:(Viewdef.aggs view)
    in
    Relation.Ra.iter_batches plan (Groups.add_batch groups);
    Grouped groups
  end
  else begin
    let positions =
      match Viewdef.projection view with
      | Some cols -> snd (Relation.Schema.project joined_schema cols)
      | None -> Array.init (Relation.Schema.arity joined_schema) Fun.id
    in
    let plan_schema = Relation.Ra.schema_of plan in
    let at =
      Array.map
        (fun p ->
          Relation.Schema.index_of plan_schema
            (Relation.Schema.column_name joined_schema p))
        positions
    in
    let counts = Thash.create 256 in
    Relation.Ra.iter_batches plan (fun b ->
        Relation.Batch.iter_sel
          (fun r ->
            bag_apply counts (Array.map (fun p -> Relation.Batch.value b p r) at) 1)
          b);
    Bag { counts; positions }
  end

let create ?meter ?order view =
  let tables = Viewdef.tables view in
  let meter =
    match meter with Some m -> m | None -> Relation.Table.meter tables.(0)
  in
  let order = match order with Some o -> o | None -> Viewdef.order view in
  let build () =
    let filter_fn =
      Option.map
        (Relation.Expr.compile_pred (Viewdef.joined_schema view))
        (Viewdef.filter view)
    in
    let m =
      {
        view;
        pending = Array.map (fun _ -> Pending.create ()) tables;
        content = materialize view;
        filter_fn;
        meter;
        order;
        dv = None;
        path_override = None;
      }
    in
    (match order with
    | Viewdef.First_order -> ()
    | Viewdef.Higher_order -> m.dv <- Some (Deltaview.create ~meter view));
    m
  in
  if not (Telemetry.enabled ()) then build ()
  else
    Telemetry.with_span ~name:"maintainer.materialize"
      ~attrs:
        [ ("view", Viewdef.name view); ("order", Viewdef.order_name order) ]
      build

let apply_contribution m (row, sign) =
  Relation.Meter.bump_output m.meter 1;
  match m.content with
  | Bag { counts; positions } ->
      bag_apply counts (Relation.Tuple.project row positions) sign
  | Grouped groups -> Groups.apply groups row sign

let apply_to_base m i change =
  let table = (Viewdef.tables m.view).(i) in
  match change with
  | Change.Insert t -> ignore (Relation.Table.insert table t)
  | Change.Delete t ->
      if not (Relation.Table.delete_tuple table t) then
        invalid_arg
          (Printf.sprintf
             "Maintainer.process: delete of missing tuple %s from %s"
             (Relation.Tuple.to_string t)
             (Relation.Table.name table))
  | Change.Update { before; after } ->
      if not (Relation.Table.delete_tuple table before) then
        invalid_arg
          (Printf.sprintf
             "Maintainer.process: update of missing tuple %s in %s"
             (Relation.Tuple.to_string before)
             (Relation.Table.name table));
      ignore (Relation.Table.insert table after)

(* Export one maintenance batch's meter delta as telemetry: the
   [meter.<counter>] family labelled by table, plus aggregate batch
   counters.  Guarded so the disabled path does no float conversion. *)
let book_batch_telemetry ~table ~k (d : Relation.Meter.snapshot) =
  if Telemetry.enabled () then begin
    let labels = [ ("table", table) ] in
    let add name v = if v <> 0 then Telemetry.add ~labels name (float_of_int v) in
    add "meter.seq_scanned" d.seq_scanned;
    add "meter.index_probes" d.index_probes;
    add "meter.index_entries" d.index_entries;
    add "meter.inserted" d.inserted;
    add "meter.deleted" d.deleted;
    add "meter.updated" d.updated;
    add "meter.hash_build" d.hash_build;
    add "meter.hash_probe" d.hash_probe;
    add "meter.output" d.output;
    add "meter.batch_setup" d.batch_setup;
    add "meter.batches" d.batches;
    Telemetry.incr "maintainer.batches";
    Telemetry.add "maintainer.cost_units" (Relation.Meter.cost_units d);
    Telemetry.observe "maintainer.batch_size" (float_of_int k)
  end

let process ?path m i k =
  if i < 0 || i >= Array.length m.pending then
    invalid_arg "Maintainer.process: bad table index";
  let table () = Relation.Table.name (Viewdef.tables m.view).(i) in
  let run_batch () =
    let before = Relation.Meter.snapshot m.meter in
    if k > 0 then begin
      let batch = Pending.take m.pending.(i) k in
      Relation.Meter.bump_batch_setup m.meter 1;
      let deltas = List.concat_map Change.signed_tuples batch in
      (match m.dv with
      | None ->
          let contributions = expand_batch m i deltas in
          List.iter (apply_contribution m) contributions
      | Some dv ->
          (* Higher-order: the view delta is a lookup-and-merge against
             [i]'s materialized delta view; then fold the batch into the
             other tables' delta views while their components' base
             tables still hold the pre-batch state. *)
          let contributions =
            net_contributions m (Deltaview.contributions dv i deltas)
          in
          List.iter (apply_contribution m) contributions;
          Deltaview.update dv ~delta:i deltas ~expand:(expander m));
      List.iter (apply_to_base m i) batch
    end;
    let delta = Relation.Meter.diff (Relation.Meter.snapshot m.meter) before in
    if Telemetry.enabled () then book_batch_telemetry ~table:(table ()) ~k delta;
    delta
  in
  let run () =
    m.path_override <- path;
    Fun.protect ~finally:(fun () -> m.path_override <- None) run_batch
  in
  if not (Telemetry.enabled ()) then run ()
  else
    Telemetry.with_span ~name:"maintainer.process"
      ~attrs:[ ("table", table ()); ("k", string_of_int k) ]
      run

let process_at_most ?path m i k =
  if i < 0 || i >= Array.length m.pending then
    invalid_arg "Maintainer.process_at_most: bad table index";
  if k < 0 then invalid_arg "Maintainer.process_at_most: negative count";
  let actual = min k (Pending.size m.pending.(i)) in
  (actual, process ?path m i actual)

let pending_changes m i =
  if i < 0 || i >= Array.length m.pending then
    invalid_arg "Maintainer.pending_changes: bad table index";
  Pending.peek_all m.pending.(i)

let refresh m =
  let before = Relation.Meter.snapshot m.meter in
  Array.iteri (fun i q -> ignore (process m i (Pending.size q))) m.pending;
  Relation.Meter.diff (Relation.Meter.snapshot m.meter) before

let rows m =
  match m.content with
  | Bag { counts; _ } ->
      let out = ref [] in
      Thash.iter
        (fun tuple count ->
          for _ = 1 to count do
            out := tuple :: !out
          done)
        counts;
      List.sort Relation.Tuple.compare !out
  | Grouped groups -> Groups.rows groups

let output_schema m =
  match m.content with
  | Bag _ -> Viewdef.output_schema m.view
  | Grouped groups -> Groups.output_schema groups

let check_consistent m =
  let check () =
    let reference =
      List.sort Relation.Tuple.compare
        (Relation.Ra.eval (Viewdef.reference_plan m.view))
    in
    let actual = rows m in
    (* Approximate comparison: incremental float aggregates sum in a
       different order than the recompute. *)
    if not (List.equal (Relation.Tuple.approx_equal ~eps:1e-9) reference actual)
    then
      Error
        (Printf.sprintf
           "view %s: incremental content (%d rows) differs from reference (%d \
            rows)"
           (Viewdef.name m.view) (List.length actual) (List.length reference))
    else match m.dv with None -> Ok () | Some dv -> Deltaview.check dv
  in
  if not (Telemetry.enabled ()) then check ()
  else
    Telemetry.with_span ~name:"maintainer.check"
      ~attrs:[ ("view", Viewdef.name m.view) ]
      check

let delta_view m = m.dv
