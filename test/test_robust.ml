(* Tests for the robustness loop (lib/robust): seed-reproducible fault
   injection, the drift monitor's signals and hysteresis, and the
   acceptance scenario for drift-triggered replanning — on a drifted
   stream the monitored replanner must cost no more than the static
   ADAPT schedule while rescuing strictly less often. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf ?(eps = 1e-6) msg = Alcotest.check (Alcotest.float eps) msg

(* --- injection ------------------------------------------------------------ *)

let test_inject_rate_shift () =
  let m = Array.make 4 [| 2; 2 |] in
  let s = Robust.Inject.rate_shift ~at:2 ~factor:2.0 m in
  checkb "prefix untouched" true (s.(0) = [| 2; 2 |] && s.(1) = [| 2; 2 |]);
  checkb "suffix scaled" true (s.(2) = [| 4; 4 |] && s.(3) = [| 4; 4 |]);
  let z = Robust.Inject.rate_shift ~tables:[ 1 ] ~at:0 ~factor:0.0 m in
  checkb "restricted to table 1" true
    (Array.for_all (fun row -> row = [| 2; 0 |]) z)

let test_inject_blackout_burst_swap () =
  let m = [| [| 1; 2 |]; [| 3; 4 |]; [| 5; 6 |]; [| 7; 8 |] |] in
  let b = Robust.Inject.blackout ~from:1 ~len:2 m in
  checkb "window zeroed" true (b.(1) = [| 0; 0 |] && b.(2) = [| 0; 0 |]);
  checkb "outside intact" true (b.(0) = [| 1; 2 |] && b.(3) = [| 7; 8 |]);
  let u = Robust.Inject.burst ~at:0 ~extra:3 ~len:2 m in
  checkb "burst added" true (u.(0) = [| 4; 5 |] && u.(1) = [| 6; 7 |]);
  checkb "burst bounded" true (u.(2) = [| 5; 6 |]);
  let w = Robust.Inject.table_swap ~at:2 0 1 m in
  checkb "swap after at" true (w.(2) = [| 6; 5 |] && w.(3) = [| 8; 7 |]);
  checkb "swap not before" true (w.(0) = [| 1; 2 |] && w.(1) = [| 3; 4 |])

let test_inject_deterministic () =
  (* The whole point of first-class injection: the same seeds give the
     same degraded world, bit for bit. *)
  let arrivals =
    Workload.Arrivals.generate ~seed:7 ~horizon:40
      [| Workload.Arrivals.fast_stable; Workload.Arrivals.slow_unstable |]
  in
  let costs = [| Cost.Func.linear ~a:1.0; Cost.Func.affine ~a:1.0 ~b:2.0 |] in
  let model = Abivm.Spec.make ~costs ~limit:9.0 ~arrivals in
  let s1 = Robust.Inject.drifted model and s2 = Robust.Inject.drifted model in
  checkb "same actual arrivals" true
    (Abivm.Spec.arrivals s1.Robust.Inject.actual
    = Abivm.Spec.arrivals s2.Robust.Inject.actual);
  let c1 = Abivm.Spec.costs s1.Robust.Inject.actual
  and c2 = Abivm.Spec.costs s2.Robust.Inject.actual in
  Array.iteri
    (fun i f1 ->
      for k = 0 to 20 do
        checkf "same actual costs" (Cost.Func.eval f1 k)
          (Cost.Func.eval c2.(i) k)
      done)
    c1;
  let n1 = Robust.Inject.cost_noise ~seed:5 ~amp:0.3 costs
  and n2 = Robust.Inject.cost_noise ~seed:5 ~amp:0.3 costs in
  for k = 0 to 30 do
    checkf "noise stream reproducible" (Cost.Func.eval n1.(0) k)
      (Cost.Func.eval n2.(0) k)
  done

let test_inject_scenario_shape () =
  let arrivals = Array.make 11 [| 2; 2 |] in
  let costs = [| Cost.Func.linear ~a:1.0; Cost.Func.linear ~a:2.0 |] in
  let model = Abivm.Spec.make ~costs ~limit:9.0 ~arrivals in
  let sc = Robust.Inject.drifted ~cost_factor:2.0 model in
  let actual = sc.Robust.Inject.actual in
  checkf "limit is shared (it is the contract)" (Abivm.Spec.limit model)
    (Abivm.Spec.limit actual);
  checki "same horizon" (Abivm.Spec.horizon model) (Abivm.Spec.horizon actual);
  checki "same width" (Abivm.Spec.n_tables model) (Abivm.Spec.n_tables actual);
  checkf "true costs are 2x the model"
    (2.0 *. Abivm.Spec.f model [| 3; 3 |])
    (Abivm.Spec.f actual [| 3; 3 |]);
  checkb "label names the perturbations" true (sc.Robust.Inject.label <> "")

(* --- monitor -------------------------------------------------------------- *)

let test_monitor_trips_on_rate_drift () =
  let mon = Robust.Monitor.create ~predicted_rates:[| 1.0 |] () in
  checkb "starts clean" false (Robust.Monitor.tripped mon);
  checkf "initial score" 0.0 (Robust.Monitor.score mon);
  for _ = 1 to 50 do
    Robust.Monitor.observe_arrivals mon [| 5 |]
  done;
  checkb "tripped on a 5x rate" true (Robust.Monitor.tripped mon);
  checkb "learned the observed rate" true
    (Float.abs ((Robust.Monitor.rates mon).(0) -. 5.0) < 0.1);
  checki "observations counted" 50 (Robust.Monitor.observations mon)

let test_monitor_hysteresis () =
  let config = { Robust.Monitor.default_config with Robust.Monitor.alpha = 0.5 } in
  let trip = config.Robust.Monitor.trip and clear = config.Robust.Monitor.clear in
  let mon = Robust.Monitor.create ~config ~predicted_rates:[| 1.0 |] () in
  for _ = 1 to 10 do
    Robust.Monitor.observe_arrivals mon [| 4 |]
  done;
  checkb "tripped" true (Robust.Monitor.tripped mon);
  (* Back to the predicted rate: the score decays through the
     (clear, trip) band, where the detector must stay tripped — only a
     score below [clear] re-arms it. *)
  let seen_band = ref false in
  for _ = 1 to 40 do
    Robust.Monitor.observe_arrivals mon [| 1 |];
    let s = Robust.Monitor.score mon in
    if s >= clear then begin
      if s <= trip then seen_band := true;
      checkb "still tripped above clear" true (Robust.Monitor.tripped mon)
    end
  done;
  checkb "score passed through the hysteresis band" true !seen_band;
  checkb "re-armed once quiet" false (Robust.Monitor.tripped mon);
  checkb "score decayed below clear" true (Robust.Monitor.score mon < clear)

let test_monitor_cost_drift_and_rebase () =
  let mon = Robust.Monitor.create ~predicted_rates:[| 1.0 |] () in
  checkf "ratio starts at 1" 1.0 (Robust.Monitor.cost_ratio mon);
  for _ = 1 to 30 do
    Robust.Monitor.observe_cost mon ~expected:1.0 ~observed:2.0
  done;
  checkb "tripped on 2x costs" true (Robust.Monitor.tripped mon);
  checkb "ratio near 2" true
    (Float.abs (Robust.Monitor.cost_ratio mon -. 2.0) < 0.05);
  (* Zero or negative expectations carry no information. *)
  Robust.Monitor.observe_cost mon ~expected:0.0 ~observed:5.0;
  checkb "ratio unchanged by empty actions" true
    (Float.abs (Robust.Monitor.cost_ratio mon -. 2.0) < 0.05);
  Robust.Monitor.rebase mon;
  checkb "re-armed after rebase" false (Robust.Monitor.tripped mon);
  checkf "score reset" 0.0 (Robust.Monitor.score mon);
  checkf "ratio reset" 1.0 (Robust.Monitor.cost_ratio mon)

let test_monitor_rebase_adopts_rates () =
  let mon = Robust.Monitor.create ~predicted_rates:[| 1.0 |] () in
  for _ = 1 to 60 do
    Robust.Monitor.observe_arrivals mon [| 3 |]
  done;
  Robust.Monitor.rebase mon;
  (* The shifted world is now the expectation: steady 3/step arrivals must
     not re-trip the detector. *)
  for _ = 1 to 60 do
    Robust.Monitor.observe_arrivals mon [| 3 |]
  done;
  checkb "steady post-rebase stream is clean" false
    (Robust.Monitor.tripped mon);
  checkb "score stays low" true (Robust.Monitor.score mon < 0.1)

(* --- replanning ----------------------------------------------------------- *)

(* The acceptance scenario, identical to
   [abivm robust --cost plateau:1,6 --cost affine:1,2 --stream fs
    --stream fs -C 10 -T 60 --adapt-t0 20]: a rate shift at mid-horizon
   plus 2x cost misestimation. *)
let demo_scenario () =
  let arrivals =
    Workload.Arrivals.generate ~seed:42 ~horizon:60
      [| Workload.Arrivals.fast_stable; Workload.Arrivals.fast_stable |]
  in
  let costs =
    [| Cost.Func.plateau ~a:1.0 ~cap:6.0; Cost.Func.affine ~a:1.0 ~b:2.0 |]
  in
  let model = Abivm.Spec.make ~costs ~limit:10.0 ~arrivals in
  Robust.Inject.drifted model

let test_replan_beats_static () =
  let sc = demo_scenario () in
  let model = sc.Robust.Inject.model and actual = sc.Robust.Inject.actual in
  let static = Robust.Replan.static_adapt ~model ~actual ~t0:20 in
  let static_cost = Abivm.Plan.cost actual static.Abivm.Adapt.plan in
  let re = Robust.Replan.run ~model ~actual ~t0:20 () in
  checkb "static plan valid on the actual world" true
    (Abivm.Plan.is_valid actual static.Abivm.Adapt.plan);
  checkb "replanner plan valid on the actual world" true
    (Abivm.Plan.is_valid actual re.Robust.Replan.plan);
  checkb "drift detected" true (re.Robust.Replan.drift_peak > 0.5);
  checkb "replanned at least once" true (re.Robust.Replan.replans >= 1);
  checkb "cost no worse than the static schedule" true
    (re.Robust.Replan.cost <= static_cost +. 1e-9);
  checkb "strictly fewer rescue flushes" true
    (re.Robust.Replan.rescues < static.Abivm.Adapt.rescues)

let test_replan_deterministic () =
  let sc = demo_scenario () in
  let model = sc.Robust.Inject.model and actual = sc.Robust.Inject.actual in
  let r1 = Robust.Replan.run ~model ~actual ~t0:20 () in
  let r2 = Robust.Replan.run ~model ~actual ~t0:20 () in
  checkf "same cost" r1.Robust.Replan.cost r2.Robust.Replan.cost;
  checki "same rescues" r1.Robust.Replan.rescues r2.Robust.Replan.rescues;
  checki "same replans" r1.Robust.Replan.replans r2.Robust.Replan.replans;
  checkb "same actions" true
    (Abivm.Plan.actions r1.Robust.Replan.plan
    = Abivm.Plan.actions r2.Robust.Replan.plan)

let test_replan_quiet_world_no_replans () =
  (* A world that exactly matches the model must never trip the monitor:
     no replans, and the lazy-gated replay stays valid. *)
  let arrivals = Array.make 41 [| 1; 1 |] in
  let costs =
    [| Cost.Func.plateau ~a:1.0 ~cap:5.0; Cost.Func.linear ~a:1.0 |]
  in
  let model = Abivm.Spec.make ~costs ~limit:7.0 ~arrivals in
  let re = Robust.Replan.run ~model ~actual:model ~t0:20 () in
  checkb "valid" true (Abivm.Plan.is_valid model re.Robust.Replan.plan);
  checki "no replans without drift" 0 re.Robust.Replan.replans;
  checkf "no drift score" 0.0 re.Robust.Replan.drift_peak

let test_bridge_feeds_monitor () =
  (* Executed mode: [Bridge.Runner.run_plan ~monitor] streams per-step
     arrivals and the engine's metered per-action cost units into the
     drift monitor, so detection works against real costs, not just
     simulated ones. *)
  let db = Tpcr.Gen.generate ~scale:0.002 () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter
      (Tpcr.Gen.min_supplycost_view db)
  in
  Relation.Meter.reset db.Tpcr.Gen.meter;
  let feeds = Tpcr.Updates.paper_feeds ~seed:11 db in
  let zero = Cost.Func.linear ~a:1.0 in
  let spec =
    Abivm.Spec.make
      ~costs:
        [| Cost.Func.affine ~a:60.0 ~b:40_000.0; Cost.Func.linear ~a:15.0;
           zero; zero |]
      ~limit:50_000.0
      ~arrivals:(Array.init 21 (fun _ -> [| 1; 1; 0; 0 |]))
  in
  let plan = Abivm.Naive.plan spec in
  let mon =
    Robust.Monitor.create ~predicted_rates:(Robust.Replan.mean_rates spec) ()
  in
  let report =
    Bridge.Runner.run_plan ~monitor:mon m ~feeds spec plan
  in
  checkb "view consistent after the run" true report.Abivm.Report.valid;
  checki "one arrival observation per step" 21
    (Robust.Monitor.observations mon);
  checkb "cost ratio updated from metered units" true
    (Robust.Monitor.cost_ratio mon > 0.0
    && Robust.Monitor.cost_ratio mon <> 1.0)

let test_replan_rejects_mismatched_worlds () =
  let mk h = Abivm.Spec.make ~costs:[| Cost.Func.linear ~a:1.0 |] ~limit:5.0
      ~arrivals:(Array.make (h + 1) [| 1 |])
  in
  checkb "horizon mismatch raises" true
    (try
       ignore (Robust.Replan.run ~model:(mk 10) ~actual:(mk 20) ~t0:5 ());
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "robust"
    [
      ( "inject",
        [
          Alcotest.test_case "rate shift" `Quick test_inject_rate_shift;
          Alcotest.test_case "blackout / burst / swap" `Quick
            test_inject_blackout_burst_swap;
          Alcotest.test_case "seed-deterministic" `Quick
            test_inject_deterministic;
          Alcotest.test_case "scenario shape" `Quick test_inject_scenario_shape;
        ] );
      ( "monitor",
        [
          Alcotest.test_case "trips on rate drift" `Quick
            test_monitor_trips_on_rate_drift;
          Alcotest.test_case "hysteresis band" `Quick test_monitor_hysteresis;
          Alcotest.test_case "cost drift and rebase" `Quick
            test_monitor_cost_drift_and_rebase;
          Alcotest.test_case "rebase adopts rates" `Quick
            test_monitor_rebase_adopts_rates;
        ] );
      ( "replan",
        [
          Alcotest.test_case "beats static under drift" `Quick
            test_replan_beats_static;
          Alcotest.test_case "deterministic" `Quick test_replan_deterministic;
          Alcotest.test_case "quiet world" `Quick
            test_replan_quiet_world_no_replans;
          Alcotest.test_case "mismatched worlds" `Quick
            test_replan_rejects_mismatched_worlds;
          Alcotest.test_case "bridge feeds the monitor" `Quick
            test_bridge_feeds_monitor;
        ] );
    ]
