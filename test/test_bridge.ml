(* Integration tests across planner + engine: calibration of cost curves
   from the live engine and executed-mode plan runs (the Fig. 5
   simulation-validation machinery). *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let env ?(scale = 0.002) ~seed () =
  let db = Tpcr.Gen.generate ~scale () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter
      (Tpcr.Gen.min_supplycost_view db)
  in
  Relation.Meter.reset db.Tpcr.Gen.meter;
  let feeds = Tpcr.Updates.paper_feeds ~seed db in
  (db, m, feeds)

let test_calibrate_curve_shape () =
  let _, m, feeds = env ~seed:1 () in
  let sizes = [ 1; 5; 20; 50 ] in
  let curve = Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes in
  checki "one sample per size" (List.length sizes) (List.length curve);
  List.iter (fun (_, c) -> checkb "positive cost" true (c > 0.0)) curve;
  (* Supplier updates are the steep linear path. *)
  checkb "monotone-ish growth" true (List.assoc 50 curve > List.assoc 1 curve)

let test_calibrate_leaves_queue_empty () =
  let _, m, feeds = env ~seed:2 () in
  ignore (Bridge.Calibrate.measure_curve m feeds ~table:0 ~sizes:[ 1; 2; 3 ]);
  checki "drained" 0 (Ivm.Maintainer.pending_size m 0)

(* Anything pending refuses a curve, on the measured table or another. *)
let test_calibrate_rejects_dirty_queue () =
  let _, m, feeds = env ~seed:3 () in
  Ivm.Maintainer.on_arrive m 0 (feeds.Tpcr.Updates.next 0);
  List.iter
    (fun table ->
      Alcotest.check_raises "dirty"
        (Invalid_argument "Bridge.Calibrate.measure: modifications are pending")
        (fun () ->
          ignore (Bridge.Calibrate.measure_curve m feeds ~table ~sizes:[ 1 ])))
    [ 0; 1 ];
  checki "nothing more queued" 1 (Ivm.Maintainer.pending_size m 0)

(* A negative size anywhere in the list is refused before the first
   size is measured: nothing arrives, nothing is processed or metered. *)
let test_calibrate_rejects_negative_size () =
  let _, m, feeds = env ~seed:3 () in
  let meter = Relation.Meter.snapshot (Ivm.Maintainer.meter m) in
  let rows = Ivm.Maintainer.rows m in
  Alcotest.check_raises "negative"
    (Invalid_argument "Bridge.Calibrate.measure: negative batch size")
    (fun () ->
      ignore (Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes:[ 1; 5; -1 ]));
  checkb "meter untouched" true
    (Relation.Meter.snapshot (Ivm.Maintainer.meter m) = meter);
  checkb "rows untouched" true (List.equal Relation.Tuple.equal rows (Ivm.Maintainer.rows m));
  checki "nothing queued" 0 (Ivm.Maintainer.pending_size m 1)

let test_calibrate_rejects_bad_table () =
  let _, m, feeds = env ~seed:3 () in
  List.iter
    (fun table ->
      Alcotest.check_raises "bad table"
        (Invalid_argument "Bridge.Calibrate.measure_curve: bad table index")
        (fun () ->
          ignore (Bridge.Calibrate.measure_curve m feeds ~table ~sizes:[ 1 ])))
    [ -1; 4 ]

let test_calibrate_fitted_function () =
  let _, m, feeds = env ~seed:4 () in
  let curve =
    Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes:[ 1; 5; 10; 20; 40 ]
  in
  let f, fit = Bridge.Calibrate.fitted ~name:"supplier" curve in
  checkb "good linear fit" true (fit.Cost.Fit.r2 > 0.95);
  checkb "positive slope" true (fit.Cost.Fit.a > 0.0);
  checkb "monotone" true (Cost.Check.is_monotone ~upto:100 f);
  checkb "subadditive" true (Cost.Check.is_subadditive ~upto:100 f)

let test_calibrate_tabulated_function () =
  let noisy = [ (5, 10.0); (1, 3.0); (5, 9.0); (10, 8.0) ] in
  (* duplicates and a non-monotone tail must be cleaned *)
  let f = Bridge.Calibrate.tabulated ~name:"measured" noisy in
  checkb "monotone after cleaning" true (Cost.Check.is_monotone ~upto:20 f);
  checkb "eval at breakpoint" true (Cost.Func.eval f 1 = 3.0)

let fitted_spec m feeds ~limit ~horizon =
  let ps_curve = Bridge.Calibrate.measure_curve m feeds ~table:0 ~sizes:[ 1; 10; 40 ] in
  let s_curve = Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes:[ 1; 10; 40 ] in
  let f_ps, _ = Bridge.Calibrate.fitted ~name:"ps" ps_curve in
  let f_s, _ = Bridge.Calibrate.fitted ~name:"s" s_curve in
  let zero = Cost.Func.linear ~a:1.0 in
  Abivm.Spec.make
    ~costs:[| f_ps; f_s; zero; zero |]
    ~limit
    ~arrivals:(Array.init (horizon + 1) (fun _ -> [| 1; 1; 0; 0 |]))

let test_runner_executes_naive () =
  let _, cal_m, cal_feeds = env ~seed:5 () in
  let spec = fitted_spec cal_m cal_feeds ~limit:3000.0 ~horizon:30 in
  let plan = Abivm.Naive.plan spec in
  checkb "plan valid" true (Abivm.Plan.is_valid spec plan);
  let _, m, feeds = env ~seed:6 () in
  (* Per-action costs travel in the report's telemetry, so run collected. *)
  Telemetry.enable ();
  let report =
    Fun.protect ~finally:Telemetry.disable (fun () ->
        Bridge.Runner.run_plan m ~feeds spec plan)
  in
  checkb "final consistent" true report.Abivm.Report.valid;
  checkb "executed cost positive" true
    (Option.value ~default:0.0 report.Abivm.Report.cost_units > 0.0);
  checki "one measured cost per action"
    (List.length (Abivm.Plan.actions plan))
    (List.length (Bridge.Runner.action_costs report))

let test_runner_simulated_close_to_executed () =
  (* The Fig. 5 claim: simulated plan costs track executed engine costs. *)
  let _, cal_m, cal_feeds = env ~seed:7 () in
  let spec = fitted_spec cal_m cal_feeds ~limit:3000.0 ~horizon:40 in
  List.iter
    (fun plan ->
      let _, m, feeds = env ~seed:8 () in
      let report = Bridge.Runner.run_plan m ~feeds spec plan in
      let simulated = Abivm.Plan.cost spec plan in
      let executed =
        Option.value ~default:0.0 report.Abivm.Report.cost_units
      in
      let err = Float.abs (simulated -. executed) /. executed in
      checkb
        (Printf.sprintf "within 25%% (sim %.0f vs exec %.0f)" simulated executed)
        true (err < 0.25))
    [ Abivm.Naive.plan spec; Abivm.Online.plan spec ]

let test_runner_rejects_invalid_plan () =
  let _, cal_m, cal_feeds = env ~seed:9 () in
  let spec = fitted_spec cal_m cal_feeds ~limit:3000.0 ~horizon:5 in
  (* Asks to process 100 partsupp mods at t=0 when only 1 arrived. *)
  let plan = Abivm.Plan.of_actions [ (0, [| 100; 0; 0; 0 |]) ] in
  let _, m, feeds = env ~seed:10 () in
  checkb "raises" true
    (try
       ignore (Bridge.Runner.run_plan m ~feeds spec plan);
       false
     with Invalid_argument _ -> true)

let test_runner_rejected_plan_leaves_engine_intact () =
  (* Regression: an invalid action deep in the plan used to be detected
     only when execution reached it, after earlier steps had already
     drawn modifications and mutated the queues — a rejected plan
     corrupted the engine.  Validation now happens before any
     modification is drawn, so rejection must leave the engine
     bit-identical and reusable. *)
  let _, cal_m, cal_feeds = env ~seed:21 () in
  let spec = fitted_spec cal_m cal_feeds ~limit:3000.0 ~horizon:8 in
  let _, m, feeds = env ~seed:22 () in
  (* Pre-existing pending state the run must not disturb. *)
  Ivm.Maintainer.on_arrive m 0 (feeds.Tpcr.Updates.next 0);
  let before_pending = Ivm.Maintainer.pending_sizes m in
  let before_changes = Ivm.Maintainer.pending_changes m 0 in
  let before_rows = Ivm.Maintainer.rows m in
  let before_meter = Relation.Meter.snapshot (Ivm.Maintainer.meter m) in
  (* Valid at t = 0, impossible at t = 3: the old code would execute
     steps 0..2 before noticing. *)
  let plan =
    Abivm.Plan.of_actions [ (0, [| 1; 0; 0; 0 |]); (3, [| 100; 0; 0; 0 |]) ]
  in
  (try
     ignore (Bridge.Runner.run_plan m ~feeds spec plan);
     Alcotest.fail "invalid plan accepted"
   with Invalid_argument _ -> ());
  checkb "pending sizes untouched" true
    (Ivm.Maintainer.pending_sizes m = before_pending);
  checkb "pending changes untouched" true
    (Ivm.Maintainer.pending_changes m 0 = before_changes);
  checkb "view rows untouched" true (Ivm.Maintainer.rows m = before_rows);
  checkb "meter untouched" true
    (Relation.Meter.snapshot (Ivm.Maintainer.meter m) = before_meter);
  (* ... and the engine is still usable for a valid plan. *)
  let report = Bridge.Runner.run_plan m ~feeds spec (Abivm.Naive.plan spec) in
  checkb "engine reusable after rejection" true report.Abivm.Report.valid

let test_runner_asymmetric_plan_consistent () =
  (* An OPT-LGM plan (asymmetric by construction) must keep the executed
     view consistent end-to-end. *)
  let _, cal_m, cal_feeds = env ~seed:11 () in
  let spec = fitted_spec cal_m cal_feeds ~limit:2500.0 ~horizon:25 in
  let { Abivm.Astar.cost = _; plan = plan; stats = _ } = Abivm.Astar.solve spec in
  checkb "asymmetric somewhere" true
    (List.exists
       (fun (_, a) ->
         (a.(0) > 0 && a.(1) = 0) || (a.(1) > 0 && a.(0) = 0))
       (Abivm.Plan.actions plan));
  let _, m, feeds = env ~seed:12 () in
  let report = Bridge.Runner.run_plan m ~feeds spec plan in
  checkb "consistent" true report.Abivm.Report.valid

(* --- codec / changelog ----------------------------------------------------- *)

open Relation

let vi x = Value.Int x
let vf x = Value.Float x
let vs x = Value.Str x

let roundtrip_value v =
  match Ivm.Codec.value_of_string (Ivm.Codec.value_to_string v) with
  | Ok v' -> Value.equal v v'
  | Error _ -> false

let test_codec_value_roundtrip () =
  List.iter
    (fun v -> checkb (Ivm.Codec.value_to_string v) true (roundtrip_value v))
    [
      vi 0; vi (-42); vi max_int;
      vf 0.0; vf (-3.25); vf 1e-300; vf Float.pi;
      vs ""; vs "plain"; vs "with\ttab"; vs "with\nnewline"; vs "back\\slash";
      vs "s:looks-like-a-tag"; vs "->";
      Value.Bool true; Value.Bool false; Value.Null;
    ]

let test_codec_value_errors () =
  List.iter
    (fun text ->
      match Ivm.Codec.value_of_string text with
      | Ok _ -> Alcotest.fail (text ^ " should not parse")
      | Error _ -> ())
    [ ""; "x:1"; "i:"; "i:abc"; "f:zz"; "b:maybe"; "nul" ]

let test_codec_change_roundtrip () =
  let t1 = Tuple.make [ vi 1; vs "a\tb"; vf 2.5 ] in
  let t2 = Tuple.make [ vi 1; vs "c"; Value.Null ] in
  List.iter
    (fun change ->
      match Ivm.Codec.change_of_string (Ivm.Codec.change_to_string change) with
      | Ok back ->
          checkb "same signed tuples" true
            (Ivm.Change.signed_tuples change = Ivm.Change.signed_tuples back)
      | Error e -> Alcotest.fail e)
    [
      Ivm.Change.Insert t1;
      Ivm.Change.Delete t2;
      Ivm.Change.Update { before = t1; after = t2 };
      Ivm.Change.Insert (Tuple.make []);
    ]

let () =
  Alcotest.run "bridge"
    [
      ( "calibrate",
        [
          Alcotest.test_case "curve shape" `Quick test_calibrate_curve_shape;
          Alcotest.test_case "leaves queue empty" `Quick
            test_calibrate_leaves_queue_empty;
          Alcotest.test_case "rejects dirty queue" `Quick
            test_calibrate_rejects_dirty_queue;
          Alcotest.test_case "rejects a negative size untouched" `Quick
            test_calibrate_rejects_negative_size;
          Alcotest.test_case "rejects a bad table" `Quick
            test_calibrate_rejects_bad_table;
          Alcotest.test_case "fitted function" `Quick test_calibrate_fitted_function;
          Alcotest.test_case "tabulated function" `Quick
            test_calibrate_tabulated_function;
        ] );
      ( "runner",
        [
          Alcotest.test_case "executes naive" `Quick test_runner_executes_naive;
          Alcotest.test_case "simulated close to executed" `Quick
            test_runner_simulated_close_to_executed;
          Alcotest.test_case "rejected plan leaves engine intact" `Quick
            test_runner_rejected_plan_leaves_engine_intact;
          Alcotest.test_case "rejects invalid plan" `Quick
            test_runner_rejects_invalid_plan;
          Alcotest.test_case "asymmetric plan consistent" `Quick
            test_runner_asymmetric_plan_consistent;
        ] );
      ( "codec",
        [
          Alcotest.test_case "value roundtrip" `Quick test_codec_value_roundtrip;
          Alcotest.test_case "value errors" `Quick test_codec_value_errors;
          Alcotest.test_case "change roundtrip" `Quick test_codec_change_roundtrip;
        ] );
    ]
