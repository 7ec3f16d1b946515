(* Heavy-light partitioning tests:

   - the frequency sketch is deterministic, decays exactly, and survives
     lazy renormalization;
   - threshold calibration takes hot keys in rank order and respects
     [max_heavy]/[min_share];
   - partitioned maintenance is bit-identical to the unpartitioned engine
     on the same stream — uniform and Zipfian — whatever the routing;
   - the [?path] override actually moves batches between the indexed and
     scan paths (the partitions' cost asymmetry is real);
   - key-frequency drift trips the monitor and repartitioning adopts the
     new hot set, re-routing queued modifications;
   - per-partition calibration measures usable curves;
   - on a Zipfian stream the skew-aware 4-table plan executes cheaper
     than a skew-blind plan over one averaged curve per table. *)

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- sketch ----------------------------------------------------------------- *)

let test_sketch () =
  let s1 = Partition.Sketch.create () and s2 = Partition.Sketch.create () in
  let feed s =
    List.iter
      (fun k -> Partition.Sketch.observe s k)
      [ 3; 1; 3; 3; 2; 1; 3 ]
  in
  feed s1;
  feed s2;
  Alcotest.(check (list (pair int (float 0.0))))
    "deterministic ranking"
    (Partition.Sketch.ranked s1)
    (Partition.Sketch.ranked s2);
  Alcotest.(check (float 0.0)) "exact count" 4.0 (Partition.Sketch.count s1 3);
  Alcotest.(check (float 0.0)) "total" 7.0 (Partition.Sketch.total s1);
  Partition.Sketch.decay s1 ~factor:0.5;
  Alcotest.(check (float 0.0)) "decayed count" 2.0 (Partition.Sketch.count s1 3);
  Partition.Sketch.observe s1 3;
  Alcotest.(check (float 1e-12)) "observe after decay" 3.0
    (Partition.Sketch.count s1 3);
  (* Drive the scale far below the renormalization threshold. *)
  let s3 = Partition.Sketch.create () in
  Partition.Sketch.observe s3 42;
  for _ = 1 to 4 do
    Partition.Sketch.decay s3 ~factor:1e-3
  done;
  Partition.Sketch.observe s3 42;
  let c = Partition.Sketch.count s3 42 in
  if not (c > 0.999 && c < 1.001) then
    Alcotest.failf "renormalized count drifted: %.9f" c;
  Alcotest.(check int) "distinct" 1 (Partition.Sketch.distinct s3)

(* --- split calibration ------------------------------------------------------- *)

let test_split () =
  let s = Partition.Sketch.create () in
  List.iter
    (fun (k, w) -> Partition.Sketch.observe ~weight:w s k)
    [ (0, 50.0); (1, 30.0); (2, 5.0); (3, 1.0) ];
  let split = Partition.Split.calibrate ~min_share:0.1 s in
  Alcotest.(check int) "two heavy keys" 2 (Partition.Split.heavy_count split);
  Alcotest.(check (list int)) "hot keys" [ 0; 1 ]
    (Partition.Split.heavy_keys split);
  Alcotest.(check (float 0.0)) "threshold = lightest heavy" 30.0
    (Partition.Split.threshold split);
  Alcotest.(check (float 1e-12)) "coverage" (80.0 /. 86.0)
    (Partition.Split.coverage split);
  Alcotest.(check bool) "cold key light" true
    (Partition.Split.classify split (Some 2) = Partition.Split.Light);
  Alcotest.(check bool) "keyless light" true
    (Partition.Split.classify split None = Partition.Split.Light);
  let one = Partition.Split.calibrate ~max_heavy:1 ~min_share:0.1 s in
  Alcotest.(check (list int)) "max_heavy caps in rank order" [ 0 ]
    (Partition.Split.heavy_keys one);
  let empty = Partition.Split.calibrate (Partition.Sketch.create ()) in
  Alcotest.(check int) "empty sketch all-light" 0
    (Partition.Split.heavy_count empty)

(* --- partitioned = unpartitioned -------------------------------------------- *)

let partitioned_twin p =
  let e = Gen.engine_of_params ~order:Ivm.Viewdef.First_order p in
  let view = Ivm.Maintainer.view e.Gen.maintainer in
  let splits = Partition.Calibrate.splits_of_view view in
  ( e,
    Partition.Engine.create
      ~key_of:(Partition.Engine.key_of_view view)
      ~splits e.Gen.maintainer )

let prop_bit_identical ~zipf name =
  QCheck.Test.make ~name ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let p = Gen.engine_params ~seed in
      let base = Gen.engine_of_params ~zipf ~order:Ivm.Viewdef.First_order p in
      let twin, part = partitioned_twin p in
      ignore twin;
      let g = Util.Prng.create ~seed:(seed + 17) in
      let horizon = 3 + Util.Prng.int g 3 in
      let arrivals =
        Array.init (horizon + 1) (fun _ ->
            Array.init 2 (fun _ -> Util.Prng.int g 4))
      in
      let stream =
        Partition.Runner.materialize ~feeds:base.Gen.feeds ~arrivals
      in
      (* Twin feeds are seed-identical; keep them aligned by replaying the
         materialized stream into the partitioned engine. *)
      Array.iter
        (fun step ->
          List.iter
            (fun (i, change) ->
              Ivm.Maintainer.on_arrive base.Gen.maintainer i change;
              Partition.Engine.arrive part i change)
            step;
          ignore (Ivm.Maintainer.refresh base.Gen.maintainer);
          ignore (Partition.Engine.refresh part))
        stream;
      let rows_base = Ivm.Maintainer.rows base.Gen.maintainer in
      let rows_part = Partition.Engine.rows part in
      List.equal Relation.Tuple.equal rows_base rows_part
      && Partition.Engine.check_consistent part = Ok ()
      && Array.for_all (fun q -> q = 0) (Partition.Engine.pending part))

(* --- the ?path override ------------------------------------------------------ *)

let test_path_override () =
  let feed_s db k =
    let m = Ivm.Maintainer.create (Tpcr.Synth.join_view db) in
    let feeds = Tpcr.Synth.insert_feeds ~seed:5 db in
    for _ = 1 to k do
      Ivm.Maintainer.on_arrive m 1 (feeds.Tpcr.Updates.next 1)
    done;
    m
  in
  (* ΔS joins the indexed partner R: the default and `Index use probes,
     `Scan pays a shared scan of R instead. *)
  let db = Tpcr.Synth.generate ~seed:11 ~r_rows:40 ~s_rows:40 ~join_domain:4 () in
  let m = feed_s db 5 in
  let d = Ivm.Maintainer.process ~path:`Index m 1 5 in
  Alcotest.(check bool) "index path probes" true (d.Relation.Meter.index_probes >= 5);
  Alcotest.(check int) "index path does not scan" 0 d.Relation.Meter.seq_scanned;
  let db2 = Tpcr.Synth.generate ~seed:11 ~r_rows:40 ~s_rows:40 ~join_domain:4 () in
  let m2 = feed_s db2 5 in
  let d2 = Ivm.Maintainer.process ~path:`Scan m2 1 5 in
  Alcotest.(check int) "scan path does not probe" 0 d2.Relation.Meter.index_probes;
  Alcotest.(check bool) "scan path scans R" true
    (d2.Relation.Meter.seq_scanned >= 40);
  (* Identical batches, identical view content, different metered cost. *)
  Alcotest.(check bool) "same content" true
    (List.equal Relation.Tuple.equal (Ivm.Maintainer.rows m)
       (Ivm.Maintainer.rows m2))

(* --- drift trips repartitioning ---------------------------------------------- *)

let test_repartition_on_drift () =
  let db = Tpcr.Synth.generate ~seed:3 ~r_rows:30 ~s_rows:30 ~join_domain:10 () in
  let view = Tpcr.Synth.join_view db in
  (* Pretend keys {0, 1} were calibrated hot... *)
  let hot = Partition.Sketch.create () in
  List.iter
    (fun (k, w) -> Partition.Sketch.observe ~weight:w hot k)
    [ (0, 40.0); (1, 40.0); (2, 2.0); (3, 2.0) ];
  let split = Partition.Split.calibrate ~min_share:0.3 hot in
  let splits = [| split; split |] in
  (* ...with the plan predicting 4 heavy + 1 light arrivals per step on S,
     while the actual stream hammers the formerly-light key 7. *)
  let monitor =
    Robust.Monitor.create ~predicted_rates:[| 0.0; 0.0; 4.0; 1.0 |] ()
  in
  let maintainer = Ivm.Maintainer.create view in
  let e =
    Partition.Engine.create ~monitor
      ~key_of:(Partition.Engine.key_of_view view)
      ~splits maintainer
  in
  Alcotest.(check bool) "key 1 heavy before" true
    (Partition.Split.is_heavy (Partition.Engine.splits e).(1) 1);
  let fresh = ref 1_000_000 in
  let insert_s () =
    incr fresh;
    Ivm.Change.Insert
      [| Relation.Value.Int !fresh; Relation.Value.Int 7; Relation.Value.Float 1.0 |]
  in
  let repartitioned = ref 0 in
  Partition.Engine.set_repartition_hook e (fun _ -> incr repartitioned);
  let steps = ref 0 in
  while !repartitioned = 0 && !steps < 40 do
    incr steps;
    for _ = 1 to 5 do
      Partition.Engine.arrive e 1 (insert_s ())
    done;
    ignore (Partition.Engine.end_step e)
  done;
  if !repartitioned = 0 then Alcotest.fail "monitor never tripped";
  Alcotest.(check int) "repartitions counted" !repartitioned
    (Partition.Engine.repartitions e);
  let split' = (Partition.Engine.splits e).(1) in
  Alcotest.(check bool) "drifted key now heavy" true
    (Partition.Split.is_heavy split' 7);
  (* Queued key-7 modifications moved to the heavy partition... *)
  let pending = Partition.Engine.pending e in
  Alcotest.(check int) "re-routed to heavy queue" (5 * !steps) pending.(2);
  Alcotest.(check int) "light queue drained" 0 pending.(3);
  (* ...and the view still converges. *)
  ignore (Partition.Engine.refresh e);
  Alcotest.(check (result unit string)) "consistent after repartition" (Ok ())
    (Partition.Engine.check_consistent e)

(* --- per-partition calibration ----------------------------------------------- *)

let test_measure_curve () =
  let db = Tpcr.Synth.generate ~seed:9 ~r_rows:60 ~s_rows:60 ~join_domain:12 () in
  let view = Tpcr.Synth.join_view db in
  let splits = Partition.Calibrate.splits_of_view ~min_share:0.05 view in
  let maintainer = Ivm.Maintainer.create view in
  let e =
    Partition.Engine.create
      ~key_of:(Partition.Engine.key_of_view view)
      ~splits maintainer
  in
  let feeds = Tpcr.Synth.zipf_feeds ~seed:21 ~exponent:1.2 db in
  let next () = feeds.Tpcr.Updates.next 1 in
  List.iter
    (fun cls ->
      let curve =
        Partition.Calibrate.measure_curve e ~next ~table:1 ~cls
          ~sizes:[ 1; 2; 4 ]
      in
      Alcotest.(check (list int))
        (Partition.Split.cls_name cls ^ " sizes")
        [ 1; 2; 4 ] (List.map fst curve);
      List.iter
        (fun (k, c) ->
          if c <= 0.0 then
            Alcotest.failf "%s curve: non-positive cost at k=%d"
              (Partition.Split.cls_name cls) k)
        curve)
    [ Partition.Split.Heavy; Partition.Split.Light ]

(* --- skew-aware planning beats the skew-blind plan ----------------------------- *)

(* R is small and indexed (probe-friendly), S is big and gets the heavy
   path's index on its join column, so hot dR keys apply eagerly through
   probes and only the tail still scans S.  Splits come from a sketch over
   a Zipfian sample; the skew-aware planner works the 4-table spec of
   per-partition curves, the skew-blind one a single averaged curve per
   logical table metered on the same partitioned engine.  Both plans run
   on the same materialized stream. *)
let skew_sizes = [ 1; 4; 16 ]

let skew_db ~indexed () =
  let db = Tpcr.Synth.generate ~seed:7 ~r_rows:100 ~s_rows:500 () in
  if indexed then Relation.Table.create_index db.Tpcr.Synth.s "jk";
  Relation.Meter.reset db.Tpcr.Synth.meter;
  db

let skew_feeds ~seed db = Tpcr.Synth.zipf_feeds ~seed ~exponent:1.1 db

let skew_splits =
  lazy
    (let db = skew_db ~indexed:true () in
     let key_of = Partition.Engine.key_of_view (Tpcr.Synth.join_view db) in
     let feeds = skew_feeds ~seed:11 db in
     Array.init 2 (fun i ->
         let sk = Partition.Sketch.create () in
         for _ = 1 to 1500 do
           match key_of i (feeds.Tpcr.Updates.next i) with
           | Some k -> Partition.Sketch.observe sk k
           | None -> ()
         done;
         Partition.Split.calibrate ~min_share:0.02 sk))

let skew_engine () =
  let db = skew_db ~indexed:true () in
  let view = Tpcr.Synth.join_view db in
  let m = Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter view in
  ( db,
    Partition.Engine.create
      ~key_of:(Partition.Engine.key_of_view view)
      ~splits:(Lazy.force skew_splits) m )

let hull name curve =
  Cost.Func.subadditive_hull ~upto:64 (Bridge.Calibrate.tabulated ~name curve)

let process_cost e p k =
  Relation.Meter.cost_units (Partition.Engine.process e ~partition:p k)

(* Execute a plan over the logical tables: batch [k_i] drains the first
   [k_i] arrivals of table [i] in FIFO order, i.e. the (heavy, light)
   counts of that prefix, since per-partition queues keep arrival order. *)
let run_blind stream plan =
  let _, e = skew_engine () in
  let fifo = Array.init 2 (fun _ -> Queue.create ()) in
  let cost = ref 0.0 in
  Array.iteri
    (fun t step ->
      List.iter
        (fun (i, change) ->
          Partition.Engine.arrive e i change;
          Queue.push (Partition.Engine.classify e i change) fifo.(i))
        step;
      Option.iter
        (Array.iteri (fun i k ->
             let counts = Array.make 2 0 in
             for _ = 1 to k do
               match Queue.pop fifo.(i) with
               | Partition.Split.Heavy -> counts.(0) <- counts.(0) + 1
               | Partition.Split.Light -> counts.(1) <- counts.(1) + 1
             done;
             List.iteri
               (fun c cls ->
                 if counts.(c) > 0 then
                   cost :=
                     !cost
                     +. process_cost e (Partition.Pspec.index ~table:i cls)
                          counts.(c))
               [ Partition.Split.Heavy; Partition.Split.Light ]))
        (Abivm.Plan.action_at plan t))
    stream;
  if Array.exists (fun q -> q > 0) (Partition.Engine.pending e) then
    Alcotest.fail "blind plan left modifications queued";
  !cost

let test_skew_aware_beats_blind () =
  let names = [| "R"; "S" |] in
  let costs_part =
    let db, e = skew_engine () in
    let feeds = skew_feeds ~seed:11 db in
    Array.init (Partition.Pspec.count ~n:2) (fun p ->
        let table, cls = Partition.Pspec.logical p in
        hull (Partition.Pspec.label ~names p)
          (Partition.Calibrate.measure_curve e
             ~next:(fun () -> feeds.Tpcr.Updates.next table)
             ~table ~cls ~sizes:skew_sizes))
  in
  let costs_blind =
    let db, e = skew_engine () in
    let feeds = skew_feeds ~seed:11 db in
    Array.init 2 (fun table ->
        hull ("blind_" ^ names.(table))
          (List.map
             (fun k ->
               for _ = 1 to k do
                 Partition.Engine.arrive e table (feeds.Tpcr.Updates.next table)
               done;
               ( k,
                 List.fold_left
                   (fun acc cls ->
                     let p = Partition.Pspec.index ~table cls in
                     let n = Partition.Engine.pending_in e p in
                     if n = 0 then acc else acc +. process_cost e p n)
                   0.0
                   [ Partition.Split.Heavy; Partition.Split.Light ] ))
             skew_sizes))
  in
  let arrivals = Array.init 21 (fun _ -> [| 4; 8 |]) in
  let db, engine = skew_engine () in
  let stream =
    Partition.Runner.materialize ~feeds:(skew_feeds ~seed:13 db) ~arrivals
  in
  let limit =
    let worst = Array.fold_left (fun acc f -> Float.max acc (Cost.Func.eval f 1)) 0.0 in
    1.45 *. Float.max (worst costs_blind) (worst costs_part)
  in
  let spec_part =
    Partition.Pspec.make ~costs:costs_part ~limit
      ~arrivals:(Partition.Runner.partitioned_arrivals engine stream)
  in
  let aware =
    Partition.Runner.run engine stream ~spec:spec_part
      ~plan:(Abivm.Astar.solve spec_part).Abivm.Astar.plan
  in
  let blind =
    run_blind stream
      (Abivm.Astar.solve (Abivm.Spec.make ~costs:costs_blind ~limit ~arrivals))
        .Abivm.Astar.plan
  in
  let aware_cost = aware.Partition.Runner.cost_units in
  if not (aware_cost < blind) then
    Alcotest.failf "skew-aware executed %.1f units, skew-blind %.1f" aware_cost
      blind;
  (* Routing is content-neutral: the unpartitioned engine fed the same
     Zipfian stream holds the same view. *)
  let plain = skew_db ~indexed:false () in
  let m = Ivm.Maintainer.create ~meter:plain.Tpcr.Synth.meter (Tpcr.Synth.join_view plain) in
  Array.iter (List.iter (fun (i, change) -> Ivm.Maintainer.on_arrive m i change)) stream;
  ignore (Ivm.Maintainer.refresh m);
  Alcotest.(check bool) "zipfian run = unpartitioned engine" true
    (List.equal Relation.Tuple.equal (Partition.Engine.rows engine)
       (Ivm.Maintainer.rows m))

(* Uniform keys under the same splits: after every step the partitioned
   engine holds the unpartitioned engine's view, bit for bit. *)
let test_uniform_routing_per_step () =
  let plain = skew_db ~indexed:false () in
  let m = Ivm.Maintainer.create ~meter:plain.Tpcr.Synth.meter (Tpcr.Synth.join_view plain) in
  let _, e = skew_engine () in
  let stream =
    Partition.Runner.materialize
      ~feeds:(Tpcr.Synth.insert_feeds ~seed:13 plain)
      ~arrivals:(Array.init 9 (fun _ -> [| 3; 3 |]))
  in
  Array.iteri
    (fun t step ->
      List.iter
        (fun (i, change) ->
          Ivm.Maintainer.on_arrive m i change;
          Partition.Engine.arrive e i change)
        step;
      ignore (Ivm.Maintainer.refresh m);
      ignore (Partition.Engine.refresh e);
      Alcotest.(check bool)
        (Printf.sprintf "step %d bit-identical" t)
        true
        (List.equal Relation.Tuple.equal (Ivm.Maintainer.rows m)
           (Partition.Engine.rows e)))
    stream;
  Alcotest.(check (result unit string)) "consistent" (Ok ())
    (Partition.Engine.check_consistent e)

let () =
  Alcotest.run "partition"
    [
      ( "sketch",
        [
          Alcotest.test_case "determinism, decay, renormalization" `Quick
            test_sketch;
          Alcotest.test_case "threshold calibration" `Quick test_split;
        ] );
      ( "engine",
        Alcotest.test_case "?path override moves the physical path" `Quick
          test_path_override
        :: Alcotest.test_case "drift trips repartitioning" `Quick
             test_repartition_on_drift
        :: Alcotest.test_case "per-partition calibration curves" `Quick
             test_measure_curve
        :: Alcotest.test_case "skew-aware plan beats skew-blind, same view"
             `Quick test_skew_aware_beats_blind
        :: Alcotest.test_case "uniform keys bit-identical every step" `Quick
             test_uniform_routing_per_step
        :: List.map to_alcotest
             [
               prop_bit_identical ~zipf:false
                 "partitioned = unpartitioned (uniform keys)";
               prop_bit_identical ~zipf:true
                 "partitioned = unpartitioned (zipfian keys)";
             ] );
    ]
