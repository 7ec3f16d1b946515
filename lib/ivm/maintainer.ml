module Thash = Hashtbl.Make (Relation.Tuple)

type content =
  | Bag of { counts : int Thash.t; positions : int array }
      (** projected-tuple multiplicities; [positions] maps joined-schema
          positions to output positions *)
  | Grouped of Groups.t

(* The compiled view filter and the joined positions it reads; [table] is
   the one table those positions belong to, or -1. *)
type filter = {
  cells : Deltajoin.cells;
  pred : Relation.Tuple.t -> bool;
  table : int;
}

(* A maintainer's working memory: the delta-join kernel's scratch, and
   the verdicts of a one-table filter by row id of that table (['\000']
   not yet evaluated, ['\001'] rejected, ['\002'] kept).  A row's values
   never change under its id (tables are append-only), so a verdict
   holds for the maintainer's life.  Owned by one maintainer; {!copy}
   makes a fresh one, so two maintainers (and two domains) never write
   the same buffer. *)
type work = { scratch : Deltajoin.scratch; mutable verdicts : Bytes.t }

let fresh_work () = { scratch = Deltajoin.scratch (); verdicts = Bytes.empty }

type t = {
  view : Viewdef.t;
  mutable pending : Pending.t array;
      (** one FIFO per table, or per lane once routed *)
  mutable route : (int -> Change.t -> [ `Index | `Scan ]) option;
  content : content;
  filter : filter option;
  content_cells : Deltajoin.cells;  (** the joined positions the content reads *)
  work : work;
  meter : Relation.Meter.t;
  order : Viewdef.order;
  mutable dv : Deltaview.t option;
      (** the materialized [d(V)/d(R_i)] structures; [Some] iff
          [order = Higher_order] *)
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

let lane ~table = function `Index -> 2 * table | `Scan -> (2 * table) + 1

let route m f =
  if Array.exists (fun q -> Pending.size q > 0) m.pending then
    invalid_arg "Maintainer.route: modifications are pending";
  m.pending <-
    Array.init (2 * Viewdef.n_tables m.view) (fun _ -> Pending.create ());
  m.route <- Some f

let on_arrive m i change =
  if i < 0 || i >= Viewdef.n_tables m.view then
    invalid_arg "Maintainer.on_arrive: bad table index";
  let q = match m.route with None -> i | Some f -> lane ~table:i (f i change) in
  Pending.push m.pending.(q) change

let pending_sizes m = Array.map Pending.size m.pending

let pending_size m i = Pending.size m.pending.(i)

(* --- first-order delta join ------------------------------------------------ *)

(* A first-order batch's signed contributions, each passed to [f]: the
   batch expanded across every other table into row-id partials, the view
   filter run on the columns it reads, the survivors netted by value, and
   the content row built per net row.  Netting makes the application
   order-insensitive: expansion order depends on the physical path, and a
   batch touching one row twice must not apply the removal before the
   insertion.  A batch that repeats no tuple, over tables that hold no
   two equal rows, skips it: each survivor is its own net row
   ({!Deltajoin.net_partials}).  A filter that reads one table other
   than the batch's runs once per row of that table, not once per
   partial.  The
   content row is one buffer rewritten for every net row (its other
   positions stay [Null]), so [f] must not keep it. *)
let first_order_contributions m ~path b f =
  let view = m.view and w = m.work in
  let ps =
    Deltajoin.expand view m.meter ~path
      ~scope:(Array.make (Viewdef.n_tables view) true)
      w.scratch b
  in
  let arity = Relation.Schema.arity (Viewdef.joined_schema view) in
  let keep =
    match m.filter with
    | None -> fun _ -> true
    | Some flt ->
        let row = Array.make arity Relation.Value.Null in
        let test p =
          Deltajoin.fill view b ps p flt.cells row;
          flt.pred row
        in
        if flt.table < 0 || flt.table = Deltajoin.delta b then test
        else fun p ->
          let r = Deltajoin.id ps p flt.table in
          let n = Bytes.length w.verdicts in
          if r >= n then begin
            let grown = Bytes.make (max (r + 1) (2 * n)) '\000' in
            Bytes.blit w.verdicts 0 grown 0 n;
            w.verdicts <- grown
          end;
          match Bytes.get w.verdicts r with
          | '\000' ->
              let ok = test p in
              Bytes.set w.verdicts r (if ok then '\002' else '\001');
              ok
          | v -> v = '\002'
  in
  let row = Array.make arity Relation.Value.Null in
  Deltajoin.net_partials view w.scratch b ps ~keep (fun p count ->
      Deltajoin.fill view b ps p m.content_cells row;
      f row count)

(* Net the joined rows of a higher-order probe, filtered first. *)
let net_rows m rows f =
  let rows = Array.of_list rows in
  let keep =
    match m.filter with
    | None -> fun _ -> true
    | Some flt -> fun k -> flt.pred (fst rows.(k))
  in
  Deltajoin.net m.work.scratch ~count:(Array.length rows) ~keep
    ~hash:(fun k -> Relation.Tuple.hash (fst rows.(k)))
    ~equal:(fun a b -> Relation.Tuple.equal (fst rows.(a)) (fst rows.(b)))
    ~sign:(fun k -> snd rows.(k))
    (fun k count -> f (fst rows.(k)) count)

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
    let schema = Viewdef.joined_schema view in
    let filter =
      Option.map
        (fun f ->
          let cells =
            Deltajoin.cells view
              (List.sort_uniq compare
                 (List.map (Relation.Schema.index_of schema) (Relation.Expr.columns f)))
          in
          {
            cells;
            pred = Relation.Expr.compile_pred schema f;
            table = Deltajoin.cells_table cells;
          })
        (Viewdef.filter view)
    in
    let m =
      {
        view;
        pending = Array.map (fun _ -> Pending.create ()) tables;
        route = None;
        content = materialize view;
        filter;
        content_cells = Deltajoin.cells view (Viewdef.content_positions view);
        work = fresh_work ();
        meter;
        order;
        dv = None;
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

let apply_contribution m row sign =
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
    add "meter.hash_build" d.hash_build;
    add "meter.hash_probe" d.hash_probe;
    add "meter.output" d.output;
    add "meter.batch_setup" d.batch_setup;
    add "meter.batches" d.batches;
    Telemetry.incr "maintainer.batches";
    Telemetry.add "maintainer.cost_units" (Relation.Meter.cost_units d);
    Telemetry.observe "maintainer.batch_size" (float_of_int k)
  end

(* The table queue [q] feeds, and the physical path its batches run: a
   routed lane's own path, or the path the view declares for an unrouted
   table.  The only place a batch's path is chosen. *)
let queue_path m q =
  match m.route with
  | None -> (q, Viewdef.path m.view q)
  | Some _ ->
      let table = q / 2 in
      (table, if q = lane ~table `Index then `Index else `Scan)

let process m q k =
  if q < 0 || q >= Array.length m.pending then
    invalid_arg "Maintainer.process: bad table index";
  let i, path = queue_path m q in
  let table () = Relation.Table.name (Viewdef.tables m.view).(i) in
  let run_batch () =
    let before = Relation.Meter.snapshot m.meter in
    if k > 0 then begin
      let batch = Pending.take m.pending.(q) k in
      Relation.Meter.bump_batch_setup m.meter 1;
      let deltas = List.concat_map Change.signed_tuples batch in
      let b = Deltajoin.batch ~delta:i deltas in
      (match m.dv with
      | None -> first_order_contributions m ~path b (apply_contribution m)
      | Some dv ->
          (* Higher-order: the view delta is a lookup-and-merge against
             [i]'s materialized delta view; then fold the batch into the
             other tables' delta views while their components' base
             tables still hold the pre-batch state. *)
          net_rows m (Deltaview.contributions dv i deltas) (apply_contribution m);
          Deltaview.update dv ~scratch:m.work.scratch ~path b);
      Deltajoin.trim m.work.scratch;
      List.iter (apply_to_base m i) batch
    end;
    let delta = Relation.Meter.diff (Relation.Meter.snapshot m.meter) before in
    if Telemetry.enabled () then book_batch_telemetry ~table:(table ()) ~k delta;
    delta
  in
  if not (Telemetry.enabled ()) then run_batch ()
  else
    Telemetry.with_span ~name:"maintainer.process"
      ~attrs:[ ("table", table ()); ("k", string_of_int k) ]
      run_batch

(* --- the maintenance step ------------------------------------------------- *)

let ingest ?(on_arrival = fun ~table:_ _ -> ()) m ~next counts =
  Array.iteri
    (fun table count ->
      for _ = 1 to count do
        let change = next table in
        on_arrive m table change;
        on_arrival ~table change
      done)
    counts

let apply ?(on_applied = fun ~table:_ ~count:_ ~cost:_ -> ()) m batches =
  (* Every count against its queue before any batch runs, so a refused
     action processes nothing. *)
  Array.iteri
    (fun q count ->
      if count > 0 then begin
        if q >= Array.length m.pending then
          invalid_arg "Maintainer.apply: bad table index";
        let held = pending_size m q in
        if count > held then
          invalid_arg
            (Printf.sprintf
               "Maintainer.apply: %s %d has %d pending changes, the action \
                takes %d"
               (if Option.is_some m.route then "lane" else "table")
               q held count)
      end)
    batches;
  let total = ref 0.0 in
  Array.iteri
    (fun table count ->
      if count > 0 then begin
        let cost = Relation.Meter.cost_units (process m table count) in
        total := !total +. cost;
        on_applied ~table ~count ~cost
      end)
    batches;
  !total

let replay_applied m ~table ~count ~cost =
  if table < 0 || table >= Array.length m.pending then
    Error (Printf.sprintf "applied record for unknown table %d" table)
  else if count < 0 || count > pending_size m table then
    Error
      (Printf.sprintf
         "applied record wants %d pending changes of table %d but only %d \
          are pending"
         count table (pending_size m table))
  else
    match Relation.Meter.cost_units (process m table count) with
    | exception Invalid_argument e -> Error e
    | recomputed when Int64.bits_of_float recomputed <> Int64.bits_of_float cost
      ->
        Error
          (Printf.sprintf
             "table %d: recomputed cost %.17g differs from recorded %.17g — \
              non-deterministic replay"
             table recomputed cost)
    | _ -> Ok ()

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

(* The filter's predicate and the cells are pure, so the copy shares
   them; a table listed twice in the view is copied once.  The working
   memory is not shared: the copy gets its own. *)
let copy m =
  let meter = Relation.Meter.create () in
  let copies = ref [] in
  let copy_table table =
    match List.assq_opt table !copies with
    | Some c -> c
    | None ->
        let c = Relation.Table.copy ~meter table in
        copies := (table, c) :: !copies;
        c
  in
  let view =
    Viewdef.with_tables m.view (Array.map copy_table (Viewdef.tables m.view))
  in
  {
    m with
    view;
    pending = Array.map Pending.copy m.pending;
    content =
      (match m.content with
      | Bag { counts; positions } -> Bag { counts = Thash.copy counts; positions }
      | Grouped groups -> Grouped (Groups.copy groups));
    meter;
    work = fresh_work ();
    dv = Option.map (Deltaview.copy ~meter ~view) m.dv;
  }
