(* Heavy-light partitioning tests:

   - the frequency sketch is deterministic, decays exactly, and survives
     lazy renormalization;
   - threshold calibration takes hot keys in rank order and respects
     [max_heavy]/[min_share];
   - partitioned maintenance is bit-identical to the unpartitioned engine
     on the same stream — uniform and Zipfian — whatever the routing;
   - a routed lane's path actually moves batches between the indexed and
     scan paths (the partitions' cost asymmetry is real);
   - the maintainer's routed lanes: [route] refuses a busy maintainer,
     heavy keys queue on lane [2i] and light keys on [2i + 1], and a plan
     applied to the lanes by [Runner.run] meters what a hand-driven
     routed maintainer meters;
   - [Runner.run] consults [key_of] exactly twice per arrival, in step
     order (perfbench reads its step times off those calls);
   - the online sketch's drift reads a hammered light key;
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
          ignore (Ivm.Maintainer.refresh (Partition.Engine.maintainer part)))
        stream;
      let rows_base = Ivm.Maintainer.rows base.Gen.maintainer in
      let rows_part = Partition.Engine.rows part in
      List.equal Relation.Tuple.equal rows_base rows_part
      && Ivm.Maintainer.check_consistent (Partition.Engine.maintainer part) = Ok ()
      && Array.for_all (fun q -> q = 0) (Partition.Engine.pending part))

(* --- a lane's path ------------------------------------------------------------ *)

let test_lane_path () =
  (* A maintainer routing every change to [path]'s lane, [k] S inserts
     queued on S's lane of that path. *)
  let feed_s db path k =
    let m = Ivm.Maintainer.create (Tpcr.Synth.join_view db) in
    Ivm.Maintainer.route m (fun _ _ -> path);
    let feeds = Tpcr.Synth.insert_feeds ~seed:5 db in
    for _ = 1 to k do
      Ivm.Maintainer.on_arrive m 1 (feeds.Tpcr.Updates.next 1)
    done;
    m
  in
  (* ΔS joins the indexed partner R: the index lane probes, the scan lane
     pays a shared scan of R instead. *)
  let db = Tpcr.Synth.generate ~seed:11 ~r_rows:40 ~s_rows:40 ~join_domain:4 () in
  let m = feed_s db `Index 5 in
  let d = Ivm.Maintainer.process m (Ivm.Maintainer.lane ~table:1 `Index) 5 in
  Alcotest.(check bool) "index path probes" true (d.Relation.Meter.index_probes >= 5);
  Alcotest.(check int) "index path does not scan" 0 d.Relation.Meter.seq_scanned;
  let db2 = Tpcr.Synth.generate ~seed:11 ~r_rows:40 ~s_rows:40 ~join_domain:4 () in
  let m2 = feed_s db2 `Scan 5 in
  let d2 = Ivm.Maintainer.process m2 (Ivm.Maintainer.lane ~table:1 `Scan) 5 in
  Alcotest.(check int) "scan path does not probe" 0 d2.Relation.Meter.index_probes;
  Alcotest.(check bool) "scan path scans R" true
    (d2.Relation.Meter.seq_scanned >= 40);
  (* Identical batches, identical view content, different metered cost. *)
  Alcotest.(check bool) "same content" true
    (List.equal Relation.Tuple.equal (Ivm.Maintainer.rows m)
       (Ivm.Maintainer.rows m2))

(* --- drift ------------------------------------------------------------------ *)

let insert_s =
  let fresh = ref 1_000_000 in
  fun key ->
    incr fresh;
    Ivm.Change.Insert
      [| Relation.Value.Int !fresh; Relation.Value.Int key; Relation.Value.Float 1.0 |]

let test_drift () =
  let db = Tpcr.Synth.generate ~seed:3 ~r_rows:30 ~s_rows:30 ~join_domain:10 () in
  let view = Tpcr.Synth.join_view db in
  (* Keys {0, 1} were calibrated hot... *)
  let hot = Partition.Sketch.create () in
  List.iter
    (fun (k, w) -> Partition.Sketch.observe ~weight:w hot k)
    [ (0, 40.0); (1, 40.0); (2, 2.0); (3, 2.0) ];
  let split = Partition.Split.calibrate ~min_share:0.3 hot in
  let e =
    Partition.Engine.create
      ~key_of:(Partition.Engine.key_of_view view)
      ~splits:[| split; split |] (Ivm.Maintainer.create view)
  in
  let step keys =
    List.iter (fun k -> Partition.Engine.arrive e 1 (insert_s k)) keys;
    Partition.Engine.end_step e
  in
  (* ...and the stream agrees at first... *)
  for _ = 1 to 10 do
    step [ 0; 1; 0; 1; 2 ]
  done;
  let calm = Partition.Engine.drift e 1 in
  if not (calm < 0.5) then Alcotest.failf "drift %.3f on the calibrated stream" calm;
  (* ...until it hammers the light key 7. *)
  let steps = ref 0 in
  while Partition.Engine.drift e 1 <= 0.5 && !steps < 200 do
    incr steps;
    step [ 7; 7; 7; 7; 7 ]
  done;
  if Partition.Engine.drift e 1 <= 0.5 then
    Alcotest.failf "drift %.3f after %d hammered steps" (Partition.Engine.drift e 1) !steps;
  Alcotest.(check bool) "key 7 still light" false (Partition.Split.is_heavy split 7);
  Alcotest.(check (array int)) "hot keys on S's index lane, the rest on its scan lane"
    [| 0; 0; 40; 10 + (5 * !steps) |]
    (Partition.Engine.pending e);
  ignore (Ivm.Maintainer.refresh (Partition.Engine.maintainer e));
  Alcotest.(check (result unit string)) "consistent after the drift" (Ok ())
    (Ivm.Maintainer.check_consistent (Partition.Engine.maintainer e))

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

(* Both partition calibrations refuse a negative size before measuring
   the sizes ahead of it: no draw, no batch, no metered unit. *)
let test_measure_rejects_negative_size () =
  let db = Tpcr.Synth.generate ~seed:9 ~r_rows:60 ~s_rows:60 ~join_domain:12 () in
  let view = Tpcr.Synth.join_view db in
  let e =
    Partition.Engine.create
      ~key_of:(Partition.Engine.key_of_view view)
      ~splits:(Partition.Calibrate.splits_of_view ~min_share:0.05 view)
      (Ivm.Maintainer.create view)
  in
  let feeds = Tpcr.Synth.zipf_feeds ~seed:21 ~exponent:1.2 db in
  let draws = ref 0 in
  let next () =
    incr draws;
    feeds.Tpcr.Updates.next 1
  in
  let meter = Relation.Meter.snapshot db.Tpcr.Synth.meter in
  Alcotest.check_raises "per-partition curve"
    (Invalid_argument "Partition.Calibrate.measure_curve: negative batch size")
    (fun () ->
      ignore
        (Partition.Calibrate.measure_curve e ~next ~table:1
           ~cls:Partition.Split.Light ~sizes:[ 2; -1 ]));
  Alcotest.check_raises "skew-blind curve"
    (Invalid_argument "Partition.Calibrate.measure_blind_curve: negative batch size")
    (fun () ->
      ignore (Partition.Calibrate.measure_blind_curve e ~next ~table:1 ~sizes:[ 2; -3 ]));
  Alcotest.(check int) "no draw" 0 !draws;
  Alcotest.(check bool) "meter untouched" true
    (Relation.Meter.snapshot db.Tpcr.Synth.meter = meter)

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
     Partition.Calibrate.splits_of_sample ~min_share:0.02
       (Tpcr.Synth.join_view db)
       ~next:(skew_feeds ~seed:11 db).Tpcr.Updates.next)

let skew_engine () =
  let db = skew_db ~indexed:true () in
  let view = Tpcr.Synth.join_view db in
  let m = Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter view in
  ( db,
    Partition.Engine.create
      ~key_of:(Partition.Engine.key_of_view view)
      ~splits:(Lazy.force skew_splits) m )

let test_skew_aware_beats_blind () =
  let db, engine = skew_engine () in
  let stream =
    Partition.Runner.materialize ~feeds:(skew_feeds ~seed:13 db)
      ~arrivals:(Array.init 21 (fun _ -> [| 4; 8 |]))
  in
  let c =
    Partition.Runner.compare_blind ~sizes:skew_sizes ~limit_factor:1.45 engine
      stream ~fresh:(fun () ->
        let db, e = skew_engine () in
        (e, skew_feeds ~seed:11 db))
  in
  let aware = c.aware.exec.cost_units and blind = c.blind.exec.cost_units in
  if not (aware < blind) then
    Alcotest.failf "skew-aware executed %.1f units, skew-blind %.1f" aware
      blind;
  Alcotest.(check (pair string string))
    "executed units (skew-aware, skew-blind)" ("8830.0", "11700.0")
    (Printf.sprintf "%.1f" aware, Printf.sprintf "%.1f" blind);
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
      ignore (Ivm.Maintainer.refresh (Partition.Engine.maintainer e));
      Alcotest.(check bool)
        (Printf.sprintf "step %d bit-identical" t)
        true
        (List.equal Relation.Tuple.equal (Ivm.Maintainer.rows m)
           (Partition.Engine.rows e)))
    stream;
  Alcotest.(check (result unit string)) "consistent" (Ok ())
    (Ivm.Maintainer.check_consistent (Partition.Engine.maintainer e))

(* --- routed lanes ------------------------------------------------------------- *)

let test_route () =
  let db = Tpcr.Synth.generate ~seed:3 ~r_rows:30 ~s_rows:30 ~join_domain:10 () in
  let m = Ivm.Maintainer.create (Tpcr.Synth.join_view db) in
  let by_key _ = function
    | Ivm.Change.Insert t when Relation.Tuple.get t 1 = Relation.Value.Int 0 -> `Index
    | _ -> `Scan
  in
  Ivm.Maintainer.on_arrive m 1 (insert_s 0);
  Alcotest.check_raises "route refuses a pending change"
    (Invalid_argument "Maintainer.route: modifications are pending") (fun () ->
      Ivm.Maintainer.route m by_key);
  ignore (Ivm.Maintainer.refresh m);
  Ivm.Maintainer.route m by_key;
  List.iter (fun k -> Ivm.Maintainer.on_arrive m 1 (insert_s k)) [ 0; 5; 0 ];
  Alcotest.(check (array int)) "S's index lane 2, scan lane 3" [| 0; 0; 2; 1 |]
    (Ivm.Maintainer.pending_sizes m);
  Alcotest.(check (pair int bool)) "Pspec numbers partitions as lanes" (3, true)
    ( Partition.Pspec.index ~table:1 Partition.Split.Light,
      Partition.Pspec.logical 2 = (1, Partition.Split.Heavy) );
  ignore (Ivm.Maintainer.refresh m);
  Alcotest.(check (result unit string)) "routed refresh consistent" (Ok ())
    (Ivm.Maintainer.check_consistent m)

(* A 4-lane spec over [e]'s classification of [stream] and its NAIVE plan. *)
let lane_plan e stream =
  let spec =
    Partition.Pspec.make
      ~costs:(Array.init 4 (fun p -> Cost.Func.affine ~a:1.0 ~b:(float_of_int (4 * (p + 1)))))
      ~limit:60.0
      ~arrivals:(Partition.Runner.partitioned_arrivals e stream)
  in
  (spec, Abivm.Naive.plan spec)

let zipf_stream db steps =
  Partition.Runner.materialize ~feeds:(skew_feeds ~seed:13 db)
    ~arrivals:(Array.init steps (fun _ -> [| 4; 8 |]))

(* The plan's [2n] actions applied to the lanes by [Runner.run] against
   a reference driven by hand: a maintainer routed by the engine's
   classification, each arrival queued on its partition's lane and each
   batch of the plan processed from that lane.  Same batches, same paths,
   so the same metered bits and rows. *)
let test_lanes_match_partition_queues () =
  let db, e = skew_engine () in
  let stream = zipf_stream db 13 in
  let spec, plan = lane_plan e stream in
  let r = Partition.Runner.run e stream ~spec ~plan in
  let plain = skew_db ~indexed:true () in
  let m = Ivm.Maintainer.create ~meter:plain.Tpcr.Synth.meter (Tpcr.Synth.join_view plain) in
  Ivm.Maintainer.route m (fun i change ->
      Partition.Pspec.path (snd (Partition.Pspec.logical (Partition.Engine.partition_of e i change))));
  let cost = ref 0.0 and batches = ref 0 in
  Array.iteri
    (fun t step ->
      List.iter (fun (i, change) -> Ivm.Maintainer.on_arrive m i change) step;
      Option.iter
        (Array.iteri (fun p k ->
             if k > 0 then begin
               let d = Ivm.Maintainer.process m p k in
               cost := !cost +. Relation.Meter.cost_units d;
               incr batches
             end))
        (Abivm.Plan.action_at plan t))
    stream;
  Alcotest.(check int) "batches" !batches r.batches;
  Alcotest.(check int64) "cost bits" (Int64.bits_of_float !cost)
    (Int64.bits_of_float r.cost_units);
  Alcotest.(check bool) "meter" true
    (Relation.Meter.snapshot (Ivm.Maintainer.meter m)
    = Relation.Meter.snapshot (Ivm.Maintainer.meter (Partition.Engine.maintainer e)));
  Alcotest.(check bool) "rows" true
    (List.equal Relation.Tuple.equal (Ivm.Maintainer.rows m) (Partition.Engine.rows e))

(* perfbench's skew-partition reads each step's start off the engine's
   [key_of] calls, so [Runner.run] must make exactly two per arrival
   (sketch, then route), arrival by arrival in step order, and none from
   [apply]. *)
let test_key_of_calls () =
  let db = skew_db ~indexed:true () in
  let view = Tpcr.Synth.join_view db in
  let base = Partition.Engine.key_of_view view in
  let seen = ref [] in
  let key_of i change =
    seen := change :: !seen;
    base i change
  in
  let e =
    Partition.Engine.create ~key_of ~splits:(Lazy.force skew_splits)
      (Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter view)
  in
  let stream = zipf_stream db 9 in
  let spec, plan = lane_plan e stream in
  seen := [];
  ignore (Partition.Runner.run e stream ~spec ~plan);
  let twice = List.concat_map (fun (_, c) -> [ c; c ]) (List.concat (Array.to_list stream)) in
  Alcotest.(check int) "calls" (List.length twice) (List.length !seen);
  Alcotest.(check bool) "each arrival twice, in step order" true
    (List.equal ( == ) twice (List.rev !seen))

(* [Runner.run]'s refusals come before anything is classified or
   enqueued: no [key_of] call, and the queues, meter and rows as they
   were.  [key_of] counts calls as in [test_key_of_calls]. *)
let test_run_refusals () =
  let db = skew_db ~indexed:true () in
  let view = Tpcr.Synth.join_view db in
  let base = Partition.Engine.key_of_view view in
  let calls = ref 0 in
  let key_of i change =
    incr calls;
    base i change
  in
  let e =
    Partition.Engine.create ~key_of ~splits:(Lazy.force skew_splits)
      (Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter view)
  in
  let m = Partition.Engine.maintainer e in
  let state () =
    ( Ivm.Maintainer.pending_sizes m,
      Relation.Meter.snapshot (Ivm.Maintainer.meter m),
      Partition.Engine.rows e )
  in
  let stream = zipf_stream db 9 in
  let spec, plan = lane_plan e stream in
  let refused what ?(stream = stream) ?(spec = spec) plan =
    let before = state () in
    calls := 0;
    (match Partition.Runner.run e stream ~spec ~plan with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ());
    Alcotest.(check int) (what ^ ": key_of calls") 0 !calls;
    Alcotest.(check bool) (what ^ ": queues, meter and rows untouched") true
      (state () = before)
  in
  refused "a stream one step short" ~stream:(Array.sub stream 0 8) plan;
  refused "a plan Plan.validate refuses" (Abivm.Plan.of_actions []);
  (* Valid for a spec over the 2 logical tables, but its actions are 2
     wide and the engine has 4 lanes. *)
  let logical =
    Abivm.Spec.make
      ~costs:(Array.make 2 (Cost.Func.affine ~a:1.0 ~b:4.0))
      ~limit:1000.0
      ~arrivals:(Array.init 9 (fun _ -> [| 4; 8 |]))
  in
  refused "a lane action as wide as the logical tables" ~spec:logical
    (Abivm.Naive.plan logical);
  Partition.Engine.arrive e 0 (List.assoc 0 stream.(0));
  refused "an engine with a pending change" plan

(* A lane plan built from one stream, run on another of the same shape:
   the spec's lane counts are not the stream's.  [Runner.run] fails at
   the first step whose action takes more from a lane than the lane
   holds, naming the step, the lane and both counts, and that step's
   lanes are all left unprocessed. *)
let test_run_other_stream () =
  let db, e = skew_engine () in
  let spec, plan = lane_plan e (zipf_stream db 9) in
  let stream =
    Partition.Runner.materialize ~feeds:(skew_feeds ~seed:99 db)
      ~arrivals:(Array.init 9 (fun _ -> [| 4; 8 |]))
  in
  (* Where the lanes run short, from the stream's own lane counts. *)
  let held = Array.make 4 0 in
  let rec first_short t =
    if t >= Array.length stream then Alcotest.fail "no lane runs short"
    else begin
      Array.iteri
        (fun p k -> held.(p) <- held.(p) + k)
        (Partition.Runner.partitioned_arrivals e [| stream.(t) |]).(0);
      let action = Option.value (Abivm.Plan.action_at plan t) ~default:[||] in
      match
        List.find_opt
          (fun p -> action.(p) > held.(p))
          (List.init (Array.length action) Fun.id)
      with
      | Some p -> (t, p, action.(p))
      | None ->
          Array.iteri (fun p k -> held.(p) <- held.(p) - k) action;
          first_short (t + 1)
    end
  in
  let t, lane, takes = first_short 0 in
  match Partition.Runner.run e stream ~spec ~plan with
  | _ -> Alcotest.fail "accepted"
  | exception Invalid_argument msg ->
      Alcotest.(check string) "message"
        (Printf.sprintf
           "Partition.Runner.run: Runner.execute: at t=%d: Maintainer.apply: \
            lane %d has %d pending changes, the action takes %d"
           t lane held.(lane) takes)
        msg;
      Alcotest.(check (array int)) "step's lanes unprocessed" held
        (Partition.Engine.pending e)

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
        Alcotest.test_case "a lane's path moves the physical path" `Quick
          test_lane_path
        :: Alcotest.test_case "route refuses pending, lanes by parity" `Quick
             test_route
        :: Alcotest.test_case "lanes applied = per-partition queues" `Quick
             test_lanes_match_partition_queues
        :: Alcotest.test_case "Runner.run: 2 key_of calls per arrival" `Quick
             test_key_of_calls
        :: Alcotest.test_case "drift reads a hammered light key" `Quick
             test_drift
        :: Alcotest.test_case "per-partition calibration curves" `Quick
             test_measure_curve
        :: Alcotest.test_case "calibration refuses a negative size" `Quick
             test_measure_rejects_negative_size
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
             ]
        @ [
            Alcotest.test_case "Runner.run refusals touch nothing"
              `Quick test_run_refusals;
            Alcotest.test_case "Runner.run: a stream the spec was not built on"
              `Quick test_run_other_stream;
          ] );
    ]
