(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (see DESIGN.md for the experiment index), plus this repo's
   own ablations and bechamel micro-benchmarks.

   Usage:
     dune exec bench/main.exe            -- run every section
     dune exec bench/main.exe -- fig6    -- run one section
   Sections: fig1 intro fig4 fig5 fig6 fig7 tightness ablation opflow
   conjectures multiview multiview-par multiview-par-smoke astar
   astar-smoke robust robust-smoke durable durable-smoke columnar
   columnar-smoke serve serve-smoke serve-io serve-io-smoke ho ho-smoke
   micro
   Flags: --csv DIR (also write tables as CSV), --trace FILE.jsonl
   (telemetry trace), --metrics (print the metrics table at the end),
   --domains 1,2,4 (domain counts swept by the parallel sections)

   The astar sections additionally write BENCH_astar.json (search-engine
   scaling data), the robust sections BENCH_robust.json (drifted-stream
   comparison), the durable sections BENCH_durable.json (WAL/checkpoint
   overhead and recovery time), the multiview-par sections
   BENCH_multiview.json (pooled coordinator + concurrent flush data), the
   serve sections BENCH_serve.json (shared SLO scheduler vs independent
   per-tenant ONLINE), the serve-io sections BENCH_serveio.json
   (group-commit window fsync accounting, throughput vs per-tenant
   Always WALs, off-thread checkpoint stall — each a hard gate) and the
   ho sections BENCH_ho.json (first-order vs
   higher-order cost curves and re-derived planner bounds) to
   the working directory, each stamped with a "meta" block (commit,
   ocaml_version, domains swept, host cores); the -smoke variants are
   tiny grids wired to the @bench-smoke alias so the bench binary cannot
   rot. *)

let section title =
  Printf.printf "\n==== %s ====\n%!" title

let fcell = Util.Tablefmt.float_cell

(* When --csv DIR is given, every table is also written to DIR/<name>.csv. *)
let csv_dir : string option ref = ref None

let emit ~name ?aligns ~header rows =
  Util.Tablefmt.print ?aligns ~header rows;
  match !csv_dir with
  | Some dir ->
      let path = Filename.concat dir (name ^ ".csv") in
      Util.Tablefmt.write_csv ~path ~header rows;
      Printf.printf "(written to %s)\n" path
  | None -> ()

(* Scale and seeds used throughout; deterministic. *)
let tpcr_scale = 0.05
let base_seed = 42

(* Domain counts swept by the parallel sections (multiview-par, the
   partition grids' parallel Exact gate) and the fan-out width for
   scenario-parallel sections; --domains overrides. *)
let bench_domains : int list ref = ref [ 1; 2; 4 ]
let fanout_domains () = List.fold_left max 1 !bench_domains

(* Run metadata stamped into every BENCH_*.json so the perf trajectory is
   comparable across PRs and machines. *)
let git_commit =
  lazy
    (try
       let ic = Unix.open_process_in "git rev-parse --short HEAD 2>/dev/null" in
       let line = try input_line ic with End_of_file -> "" in
       match Unix.close_process_in ic with
       | Unix.WEXITED 0 when line <> "" -> line
       | _ -> "unknown"
     with _ -> "unknown")

let meta_json ?(domains = !bench_domains) () =
  Printf.sprintf
    "\"meta\": { \"commit\": %S, \"ocaml_version\": %S, \"domains\": [%s], \
     \"host_cores\": %d }"
    (Lazy.force git_commit) Sys.ocaml_version
    (String.concat ", " (List.map string_of_int domains))
    (Domain.recommended_domain_count ())

(* The batch sizes swept for the cost-curve figures. *)
let curve_sizes = [ 1; 2; 5; 10; 20; 50; 100; 200; 400; 600; 800; 1000 ]

(* --- shared environments -------------------------------------------------- *)

let fresh_tpcr ?(seed = base_seed) () =
  let db = Tpcr.Gen.generate ~seed ~scale:tpcr_scale () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter
      (Tpcr.Gen.min_supplycost_view db)
  in
  Relation.Meter.reset db.Tpcr.Gen.meter;
  (db, m)

(* Calibrated TPC-R cost functions (Fig. 4 data) with the planner spec
   parameters derived from them.  Computed once and reused by the intro,
   fig5, fig6, fig7 and ablation sections. *)
let calibration =
  lazy
    (let db, m = fresh_tpcr () in
     let feeds = Tpcr.Updates.paper_feeds ~seed:7 db in
     let ps_curve = Bridge.Calibrate.measure_curve m feeds ~table:0 ~sizes:curve_sizes in
     let s_curve = Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes:curve_sizes in
     (* The planner simulates with the measured (tabulated) curves — the
        paper's methodology; the affine fits are reported for Fig. 4. *)
     let f_ps = Bridge.Calibrate.tabulated ~name:"c_dPartSupp" ps_curve in
     let f_s = Bridge.Calibrate.tabulated ~name:"c_dSupplier" s_curve in
     let _, fit_ps = Bridge.Calibrate.fitted ~name:"c_dPartSupp" ps_curve in
     let _, fit_s = Bridge.Calibrate.fitted ~name:"c_dSupplier" s_curve in
     List.iter
       (fun f ->
         if not (Cost.Check.is_subadditive ~upto:256 f) then
           Printf.printf
             "note: measured curve %s deviates slightly from subadditivity \
              (measurement noise; cf. paper §7 — Cost.Func.subadditive_hull \
              can repair it)\n"
             (Cost.Func.name f))
       [ f_ps; f_s ];
     (ps_curve, s_curve, f_ps, fit_ps, f_s, fit_s))

let paper_costs () =
  let _, _, f_ps, _, f_s, _ = Lazy.force calibration in
  let untouched = Cost.Func.linear ~a:1.0 in
  [| f_ps; f_s; untouched; untouched |]

(* Response-time constraint used for fig5/fig6: twice the flat part of the
   PartSupp curve, the regime the paper's Fig. 6 operates in (the
   constraint is a small multiple of one batch's fixed cost). *)
let fig6_limit () =
  let _, _, f_ps, _, _, _ = Lazy.force calibration in
  2.0 *. Cost.Func.eval f_ps 1

let uniform_spec ~limit ~horizon =
  Abivm.Spec.make ~costs:(paper_costs ()) ~limit
    ~arrivals:(Array.init (horizon + 1) (fun _ -> [| 1; 1; 0; 0 |]))

(* --- Fig. 1: two-table join cost functions --------------------------------- *)

let run_fig1 () =
  section "Fig. 1 — cost functions c_dR (indexed) and c_dS (no index), view R |x| S";
  let db2 = Tpcr.Synth.generate ~seed:base_seed ~r_rows:20_000 ~s_rows:20_000 () in
  let m = Ivm.Maintainer.create ~meter:db2.Tpcr.Synth.meter (Tpcr.Synth.join_view db2) in
  Relation.Meter.reset db2.Tpcr.Synth.meter;
  let feeds = Tpcr.Synth.insert_feeds ~seed:11 db2 in
  let r_curve = Bridge.Calibrate.measure_curve m feeds ~table:0 ~sizes:curve_sizes in
  let s_curve = Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes:curve_sizes in
  emit ~name:"fig1"
    ~aligns:[ Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "batch size"; "c_dR (cost units)"; "c_dS (cost units)" ]
    (List.map2
       (fun (k, cr) (_, cs) -> [ string_of_int k; fcell cr; fcell cs ])
       r_curve s_curve);
  let growth curve = List.assoc 1000 curve /. List.assoc 1 curve in
  Printf.printf
    "shape check: c_dR grows %.1fx over 1..1000 (paper: ~flat), c_dS grows \
     %.1fx (paper: linear)\n"
    (growth r_curve) (growth s_curve)

(* --- §1 intro example: symmetric vs asymmetric cost per modification ------- *)

let run_intro () =
  section "§1 example — symmetric vs asymmetric amortized cost (R |x| S)";
  let db2 = Tpcr.Synth.generate ~seed:base_seed ~r_rows:20_000 ~s_rows:20_000 () in
  let m = Ivm.Maintainer.create ~meter:db2.Tpcr.Synth.meter (Tpcr.Synth.join_view db2) in
  Relation.Meter.reset db2.Tpcr.Synth.meter;
  let feeds = Tpcr.Synth.insert_feeds ~seed:13 db2 in
  let sizes = [ 1; 10; 50; 100; 300; 600; 1000 ] in
  let r_curve = Bridge.Calibrate.measure_curve m feeds ~table:0 ~sizes in
  let s_curve = Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes in
  let f_r = Bridge.Calibrate.tabulated ~name:"c_dR" r_curve in
  let f_s, _ = Bridge.Calibrate.fitted ~name:"c_dS" s_curve in
  (* The paper's setting: C is where c_dR saturates (0.35 s there). *)
  let limit = 1.05 *. Cost.Func.eval f_r 600 in
  let horizon = 3000 in
  let arrivals = Array.init (horizon + 1) (fun _ -> [| 1; 1 |]) in
  let spec = Abivm.Spec.make ~costs:[| f_r; f_s |] ~limit ~arrivals in
  let naive = Abivm.Simulate.naive spec in
  let online = Abivm.Simulate.online spec in
  emit ~name:"intro"
    ~aligns:[ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "strategy"; "total cost"; "cost per modification" ]
    [
      [ "symmetric (NAIVE)"; fcell naive.Abivm.Report.total_cost;
        fcell ~decimals:4 (Abivm.Simulate.cost_per_modification spec naive) ];
      [ "asymmetric (ONLINE)"; fcell online.Abivm.Report.total_cost;
        fcell ~decimals:4 (Abivm.Simulate.cost_per_modification spec online) ];
    ];
  Printf.printf
    "shape check: asymmetric/symmetric per-mod ratio = %.2f (paper: 0.42/0.97 \
     = 0.43)\n"
    (Abivm.Simulate.cost_per_modification spec online
    /. Abivm.Simulate.cost_per_modification spec naive)

(* --- Fig. 4: TPC-R maintenance cost curves --------------------------------- *)

let run_fig4 () =
  section "Fig. 4 — TPC-R view maintenance cost vs batch size";
  let ps_curve, s_curve, _, fit_ps, _, fit_s = Lazy.force calibration in
  emit ~name:"fig4"
    ~aligns:[ Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "batch size"; "PartSupp updates"; "Supplier updates" ]
    (List.map2
       (fun (k, cp) (_, cs) -> [ string_of_int k; fcell cp; fcell cs ])
       ps_curve s_curve);
  Printf.printf
    "affine fits: PartSupp a=%.1f b=%.1f (r2=%.3f) | Supplier a=%.1f b=%.1f \
     (r2=%.3f)\n"
    fit_ps.Cost.Fit.a fit_ps.Cost.Fit.b fit_ps.Cost.Fit.r2 fit_s.Cost.Fit.a
    fit_s.Cost.Fit.b fit_s.Cost.Fit.r2;
  Printf.printf
    "shape check: Supplier curve linear and steeper (slope ratio %.1fx); \
     PartSupp flat-ish after initial increase\n"
    (fit_s.Cost.Fit.a /. fit_ps.Cost.Fit.a)

(* --- Fig. 5: simulation validation ----------------------------------------- *)

let run_fig5 () =
  section "Fig. 5 — simulated vs executed (real engine) plan costs";
  let limit = fig6_limit () in
  let spec = uniform_spec ~limit ~horizon:300 in
  let plans =
    [
      ("NAIVE", Abivm.Naive.plan spec);
      ("ONLINE", Abivm.Online.plan spec);
      ("OPT-LGM", (Abivm.Astar.solve spec).Abivm.Astar.plan);
    ]
  in
  let rows =
    List.map
      (fun (name, plan) ->
        let db, m = fresh_tpcr ~seed:101 () in
        let feeds = Tpcr.Updates.paper_feeds ~seed:23 db in
        let report =
          Bridge.Runner.run_plan
            (Bridge.Runner.engine ~maintainer:m ~feeds)
            spec plan
        in
        let simulated = report.Abivm.Report.total_cost in
        let executed =
          Option.value ~default:0.0 report.Abivm.Report.cost_units
        in
        [
          name;
          fcell simulated;
          fcell executed;
          Printf.sprintf "%.1f%%" (100.0 *. Float.abs (simulated -. executed) /. executed);
          string_of_bool report.Abivm.Report.valid;
        ])
      plans
  in
  emit ~name:"fig5"
    ~aligns:[ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
              Util.Tablefmt.Right; Util.Tablefmt.Left ]
    ~header:[ "plan"; "simulated cost"; "executed cost"; "error"; "view consistent" ]
    rows;
  print_endline
    "shape check: negligible simulated-vs-executed difference (paper: curves overlap)"

(* --- Fig. 6: varying refresh time ------------------------------------------ *)

let run_fig6 () =
  section "Fig. 6 — total cost vs refresh time (1 PartSupp + 1 Supplier update per step)";
  let limit = fig6_limit () in
  Printf.printf "response-time constraint C = %.0f cost units\n" limit;
  let refresh_times = [ 100; 200; 300; 400; 500; 600; 700; 800; 900; 1000 ] in
  let rows =
    List.map
      (fun horizon ->
        let spec = uniform_spec ~limit ~horizon in
        let reports = Abivm.Simulate.all ~adapt_t0:500 spec in
        string_of_int horizon
        :: List.map
             (fun (r : Abivm.Report.t) ->
               assert r.valid;
               fcell ~decimals:0 r.total_cost)
             reports)
      refresh_times
  in
  emit ~name:"fig6"
    ~aligns:
      [ Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "refresh time"; "NAIVE"; "OPT-LGM"; "ADAPT(T0=500)"; "ONLINE" ]
    rows;
  let spec = uniform_spec ~limit ~horizon:1000 in
  let cost name =
    (List.find
       (fun (r : Abivm.Report.t) -> Abivm.Report.name r = name)
       (Abivm.Simulate.all ~adapt_t0:500 spec))
      .Abivm.Report.total_cost
  in
  Printf.printf
    "shape check at T=1000: NAIVE/OPT = %.2f (worst), ADAPT/OPT = %.2f, \
     ONLINE/OPT = %.2f (paper: NAIVE clearly worst; ADAPT and ONLINE close \
     to OPT)\n"
    (cost "NAIVE" /. cost "OPT-LGM")
    (cost "ADAPT" /. cost "OPT-LGM")
    (cost "ONLINE" /. cost "OPT-LGM")

(* --- Fig. 7: non-uniform arrivals ------------------------------------------ *)

let run_fig7 () =
  section "Fig. 7 — non-uniform modification arrivals (SS/SU/FS/FU)";
  let limit = fig6_limit () *. 20.0 /. 12.0 in
  (* paper: C goes 12 s -> 20 s *)
  Printf.printf "response-time constraint C = %.0f cost units\n" limit;
  let streams =
    [
      ("SS", Workload.Arrivals.slow_stable);
      ("SU", Workload.Arrivals.slow_unstable);
      ("FS", Workload.Arrivals.fast_stable);
      ("FU", Workload.Arrivals.fast_unstable);
    ]
  in
  let rows =
    List.map
      (fun (label, stream) ->
        let arrivals =
          Workload.Arrivals.generate ~seed:(base_seed + 5) ~horizon:1000
            [| stream; stream;
               Workload.Arrivals.Constant 0; Workload.Arrivals.Constant 0 |]
        in
        let spec = Abivm.Spec.make ~costs:(paper_costs ()) ~limit ~arrivals in
        let reports = Abivm.Simulate.all ~adapt_t0:500 spec in
        label
        :: List.map
             (fun (r : Abivm.Report.t) ->
               assert r.valid;
               fcell ~decimals:0 r.total_cost)
             reports)
      streams
  in
  emit ~name:"fig7"
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "stream"; "NAIVE"; "OPT-LGM"; "ADAPT(T0=500)"; "ONLINE" ]
    rows;
  print_endline
    "shape check: NAIVE worst on all four streams; ONLINE close to OPT on \
     stable (SS/FS), further on unstable (SU/FU)"

(* --- §3.2 tightness of Theorem 1 -------------------------------------------- *)

let run_tightness () =
  section "§3.2 — tightness of the factor-2 LGM bound (step cost function)";
  let rows =
    List.map
      (fun eps ->
        let limit = 10.0 in
        let f = Cost.Func.step_tightness ~eps ~limit in
        let per_step = int_of_float (2.0 /. eps) + 1 in
        let arrivals = Array.make 4 [| per_step |] in
        let spec = Abivm.Spec.make ~costs:[| f |] ~limit ~arrivals in
        let exact_cost, _ = Abivm.Exact.solve spec in
        let lgm_cost = (Abivm.Astar.solve spec).Abivm.Astar.cost in
        [
          Printf.sprintf "%.3f" eps;
          string_of_int per_step;
          fcell exact_cost;
          fcell lgm_cost;
          fcell ~decimals:3 (lgm_cost /. exact_cost);
        ])
      [ 1.0; 0.5; 0.25; 0.125 ]
  in
  emit ~name:"tightness"
    ~aligns:
      [ Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "eps"; "arrivals/step"; "OPT"; "OPT-LGM"; "ratio" ]
    rows;
  print_endline
    "shape check: ratio climbs toward 2 as eps shrinks (Theorem 1 is tight)"

(* --- ablations --------------------------------------------------------------- *)

let run_ablation () =
  section "Ablation — ONLINE rate predictors on unstable streams";
  let limit = fig6_limit () *. 20.0 /. 12.0 in
  let predictors =
    [
      ("EWMA(0.2)", Abivm.Online.Ewma 0.2);
      ("EWMA(0.05)", Abivm.Online.Ewma 0.05);
      ("EWMA+1sd", Abivm.Online.Ewma_conservative { alpha = 0.2; z = 1.0 });
      ("Window(10)", Abivm.Online.Window 10);
      ("Oracle", Abivm.Online.Oracle);
    ]
  in
  let streams =
    [ ("FS", Workload.Arrivals.fast_stable); ("FU", Workload.Arrivals.fast_unstable) ]
  in
  let rows =
    List.map
      (fun (label, stream) ->
        let arrivals =
          Workload.Arrivals.generate ~seed:(base_seed + 9) ~horizon:1000
            [| stream; stream;
               Workload.Arrivals.Constant 0; Workload.Arrivals.Constant 0 |]
        in
        let spec = Abivm.Spec.make ~costs:(paper_costs ()) ~limit ~arrivals in
        let opt = (Abivm.Astar.solve spec).Abivm.Astar.cost in
        label :: fcell ~decimals:0 opt
        :: List.map
             (fun (_, predictor) ->
               fcell ~decimals:0
                 (Abivm.Plan.cost spec (Abivm.Online.plan ~predictor spec)))
             predictors)
      streams
  in
  emit ~name:"ablation_predictors"
    ~aligns:(List.init 7 (fun _ -> Util.Tablefmt.Right))
    ~header:("stream" :: "OPT-LGM" :: List.map fst predictors)
    rows;
  section "Ablation — ONLINE scoring criterion (is the paper's H the right one?)";
  let rows =
    List.map
      (fun (label, stream) ->
        let arrivals =
          Workload.Arrivals.generate ~seed:(base_seed + 9) ~horizon:1000
            [| stream; stream;
               Workload.Arrivals.Constant 0; Workload.Arrivals.Constant 0 |]
        in
        let spec = Abivm.Spec.make ~costs:(paper_costs ()) ~limit ~arrivals in
        let opt = (Abivm.Astar.solve spec).Abivm.Astar.cost in
        let with_scorer scorer =
          fcell ~decimals:0 (Abivm.Plan.cost spec (Abivm.Online.plan ~scorer spec))
        in
        [
          label;
          fcell ~decimals:0 opt;
          with_scorer Abivm.Online.Amortized_total;
          with_scorer Abivm.Online.Amortized_marginal;
          with_scorer Abivm.Online.Cheapest;
        ])
      [ ("constant", Workload.Arrivals.Constant 1);
        ("FS", Workload.Arrivals.fast_stable);
        ("FU", Workload.Arrivals.fast_unstable) ]
  in
  emit ~name:"ablation_scorers"
    ~aligns:(List.init 5 (fun _ -> Util.Tablefmt.Right))
    ~header:[ "stream"; "OPT-LGM"; "H (paper)"; "marginal"; "cheapest" ]
    rows;
  section "Ablation — A* heuristic pruning";
  let rows =
    List.map
      (fun horizon ->
        let spec = uniform_spec ~limit:(fig6_limit ()) ~horizon in
        let with_h = (Abivm.Astar.solve ~use_heuristic:true spec).Abivm.Astar.stats in
        let without_h = (Abivm.Astar.solve ~use_heuristic:false spec).Abivm.Astar.stats in
        [
          string_of_int horizon;
          string_of_int with_h.Abivm.Astar.expanded;
          string_of_int without_h.Abivm.Astar.expanded;
          Printf.sprintf "%.2fx"
            (float_of_int without_h.Abivm.Astar.expanded
            /. float_of_int (max 1 with_h.Abivm.Astar.expanded));
        ])
      [ 200; 500; 1000 ]
  in
  emit ~name:"ablation_astar"
    ~aligns:(List.init 4 (fun _ -> Util.Tablefmt.Right))
    ~header:[ "horizon"; "A* expanded"; "Dijkstra expanded"; "pruning" ]
    rows

(* --- §7 future work: operator-level batching (lib/opflow) ------------------- *)

let run_opflow () =
  section
    "§7 extension — operator-level batching (propagate through cheap \
     operators, batch before expensive ones)";
  let stage name cost selectivity = { Opflow.Pipeline.name; cost; selectivity } in
  let chain limit =
    Opflow.Pipeline.make ~limit
      [
        stage "filter" (Cost.Func.linear ~a:1.0) 0.2;
        stage "join" (Cost.Func.plateau ~a:30.0 ~cap:800.0) 1.0;
        stage "aggregate" (Cost.Func.linear ~a:0.5) 1.0;
      ]
  in
  let rows =
    List.map
      (fun limit ->
        let p = chain limit in
        let arrivals = Array.make 1000 2 in
        let naive = Opflow.Strategy.naive p ~arrivals in
        let greedy = Opflow.Strategy.greedy p ~arrivals in
        assert (naive.Opflow.Strategy.valid && greedy.Opflow.Strategy.valid);
        [
          fcell ~decimals:0 limit;
          fcell ~decimals:0 naive.Opflow.Strategy.total_cost;
          fcell ~decimals:0 greedy.Opflow.Strategy.total_cost;
          Printf.sprintf "%.2fx"
            (naive.Opflow.Strategy.total_cost /. greedy.Opflow.Strategy.total_cost);
        ])
      [ 900.0; 1200.0; 1600.0; 2400.0 ]
  in
  emit ~name:"opflow"
    ~aligns:(List.init 4 (fun _ -> Util.Tablefmt.Right))
    ~header:[ "limit C"; "NAIVE (all ops)"; "GREEDY (asym ops)"; "gain" ]
    rows;
  (* Exact optimum on a small constrained instance to situate greedy. *)
  let p = chain 300.0 in
  let arrivals = Array.make 40 6 in
  let exact = Opflow.Strategy.exact p ~arrivals in
  let greedy = (Opflow.Strategy.greedy p ~arrivals).Opflow.Strategy.total_cost in
  let naive = (Opflow.Strategy.naive p ~arrivals).Opflow.Strategy.total_cost in
  Printf.printf
    "small instance (T=40): exact %.0f <= greedy %.0f (%.2fx) <= naive %.0f \
     (%.2fx)\n"
    exact greedy (greedy /. exact) naive (naive /. exact)

(* --- §7 open questions, studied empirically ---------------------------------- *)

let run_conjectures () =
  section
    "§7 open question 1 — how far can ONLINE drift from OPT? (empirical \
     worst case over random instances)";
  let prng = Util.Prng.create ~seed:2718 in
  let worst = ref 1.0 and total_ratio = ref 0.0 in
  let trials = 150 in
  for _ = 1 to trials do
    let a1 = 0.5 +. Util.Prng.float prng 3.0 in
    let cap = 5.0 +. Util.Prng.float prng 40.0 in
    let a2 = 0.5 +. Util.Prng.float prng 3.0 in
    let b2 = Util.Prng.float prng 5.0 in
    let costs = [| Cost.Func.plateau ~a:a1 ~cap; Cost.Func.affine ~a:a2 ~b:b2 |] in
    let limit = cap +. 5.0 +. Util.Prng.float prng 30.0 in
    let horizon = 40 + Util.Prng.int prng 160 in
    let arrivals =
      Array.init (horizon + 1) (fun _ ->
          [| Util.Prng.int prng 3; Util.Prng.int prng 3 |])
    in
    let spec = Abivm.Spec.make ~costs ~limit ~arrivals in
    let opt = (Abivm.Astar.solve spec).Abivm.Astar.cost in
    if opt > 0.0 then begin
      let online = Abivm.Plan.cost spec (Abivm.Online.plan spec) in
      let ratio = online /. opt in
      total_ratio := !total_ratio +. ratio;
      if ratio > !worst then worst := ratio
    end
  done;
  Printf.printf
    "over %d random plateau+affine instances: mean ONLINE/OPT-LGM = %.3f, \
     worst = %.3f\n"
    trials
    (!total_ratio /. float_of_int trials)
    !worst;
  section
    "§7 open question 2 — is the LGM bound better than 2 for CONCAVE costs?";
  let prng = Util.Prng.create ~seed:3141 in
  let worst = ref 1.0 in
  let trials = 80 in
  let attempted = ref 0 in
  for _ = 1 to trials do
    let costs =
      Array.init
        (1 + Util.Prng.int prng 1)
        (fun _ ->
          if Util.Prng.bool prng then
            Cost.Func.concave_sqrt
              ~a:(1.0 +. Util.Prng.float prng 4.0)
              ~b:(Util.Prng.float prng 3.0)
          else
            Cost.Func.logarithmic
              ~a:(1.0 +. Util.Prng.float prng 5.0)
              ~b:(Util.Prng.float prng 3.0))
    in
    let limit = 4.0 +. Util.Prng.float prng 8.0 in
    let horizon = 3 + Util.Prng.int prng 3 in
    let n = Array.length costs in
    let arrivals =
      Array.init (horizon + 1) (fun _ ->
          Array.init n (fun _ -> Util.Prng.int prng 3))
    in
    let spec = Abivm.Spec.make ~costs ~limit ~arrivals in
    match Abivm.Exact.solve ~max_expansions:300_000 spec with
    | exception Abivm.Exact.Too_large _ -> ()
    | opt, _ when opt > 0.0 ->
        incr attempted;
        let lgm = (Abivm.Astar.solve spec).Abivm.Astar.cost in
        if lgm /. opt > !worst then worst := lgm /. opt
    | _ -> ()
  done;
  Printf.printf
    "over %d solvable random concave instances: worst OPT-LGM/OPT = %.4f \
     (step costs reach %.3f at eps=0.125 — concavity seems to close the \
     gap, supporting the paper's conjecture)\n"
    !attempted !worst
    (42.5 /. 22.5)

(* --- multi-view coordination -------------------------------------------------- *)

let run_multiview () =
  section
    "Multi-view extension — sharing maintenance work across views \
     (piggyback co-flushing)";
  let steep = Cost.Func.affine ~a:3.0 ~b:10.0 in
  let flat = Cost.Func.plateau ~a:5.0 ~cap:50.0 in
  let views =
    [|
      { Multiview.Coordinator.name = "tight"; costs = [| steep; flat |]; limit = 60.0 };
      { Multiview.Coordinator.name = "medium"; costs = [| steep; flat |]; limit = 120.0 };
      { Multiview.Coordinator.name = "loose"; costs = [| steep; flat |]; limit = 240.0 };
    |]
  in
  let arrivals =
    Workload.Arrivals.generate ~seed:77 ~horizon:1000
      [| Workload.Arrivals.Constant 1; Workload.Arrivals.fast_stable |]
  in
  let rows =
    List.map
      (fun discount ->
        let shared_setup = [| discount; discount |] in
        let ind =
          Multiview.Coordinator.independent ~views ~shared_setup ~arrivals ()
        in
        let pig =
          Multiview.Coordinator.piggyback ~views ~shared_setup ~arrivals ()
        in
        assert (ind.Multiview.Coordinator.valid && pig.Multiview.Coordinator.valid);
        [
          fcell ~decimals:0 discount;
          fcell ~decimals:0 ind.Multiview.Coordinator.total_cost;
          string_of_int ind.Multiview.Coordinator.co_flushes;
          fcell ~decimals:0 pig.Multiview.Coordinator.total_cost;
          string_of_int pig.Multiview.Coordinator.co_flushes;
          Printf.sprintf "%.2fx"
            (ind.Multiview.Coordinator.total_cost
            /. pig.Multiview.Coordinator.total_cost);
        ])
      [ 0.0; 8.0; 14.0; 25.0 ]
  in
  emit ~name:"multiview"
    ~aligns:(List.init 6 (fun _ -> Util.Tablefmt.Right))
    ~header:
      [ "shared setup"; "independent"; "co-flushes"; "piggyback"; "co-flushes";
        "gain" ]
    rows;
  print_endline
    "three subscriptions with different QoS limits over the same streams: \
     coordination aligns their flushes to share base-table work"

(* --- parallel multiview flushes ----------------------------------------------- *)

(* Two-part section.  Part 1 runs the planning coordinator with its
   per-view flush decisions fanned out over the domain pool and asserts the
   outcome is identical to the sequential run at every domain count (the
   per-view choices depend only on each view's own frozen state, so
   parallelism must not change the answer).  Part 2 builds four real IVM
   engine views (independent TPC-R-style databases and maintainers) that
   share one {!Relation.Meter}, flushes them concurrently, and asserts the
   merged sharded counters equal the sequential totals bit-for-bit. *)
let run_multiview_par_grid ~name ~horizon ~rows ~steps () =
  let domains_list = !bench_domains in
  section
    (Printf.sprintf
       "Parallel multiview (%s grid) — pooled coordinator + concurrent \
        engine flushes at domains in {%s}"
       name
       (String.concat ", " (List.map string_of_int domains_list)));
  (* Part 1: coordinator. *)
  let steep = Cost.Func.affine ~a:3.0 ~b:10.0 in
  let flat = Cost.Func.plateau ~a:5.0 ~cap:50.0 in
  let views =
    Array.init 4 (fun v ->
        {
          Multiview.Coordinator.name = Printf.sprintf "view%d" v;
          costs = [| steep; flat |];
          limit = 60.0 *. float_of_int (v + 1);
        })
  in
  let arrivals =
    Workload.Arrivals.generate ~seed:77 ~horizon
      [| Workload.Arrivals.Constant 1; Workload.Arrivals.fast_stable |]
  in
  let shared_setup = [| 8.0; 8.0 |] in
  let outcomes_equal (a : Multiview.Coordinator.outcome)
      (b : Multiview.Coordinator.outcome) =
    a.Multiview.Coordinator.total_cost = b.Multiview.Coordinator.total_cost
    && a.Multiview.Coordinator.undiscounted_cost
       = b.Multiview.Coordinator.undiscounted_cost
    && a.Multiview.Coordinator.co_flushes = b.Multiview.Coordinator.co_flushes
    && a.Multiview.Coordinator.valid = b.Multiview.Coordinator.valid
    && a.Multiview.Coordinator.per_view_cost
       = b.Multiview.Coordinator.per_view_cost
  in
  let seq_outcome =
    Multiview.Coordinator.independent ~views ~shared_setup ~arrivals ()
  in
  let coord_runs =
    List.map
      (fun domains ->
        Parallel.Pool.with_pool ~domains (fun pool ->
            let t0 = Unix.gettimeofday () in
            let out =
              Multiview.Coordinator.independent ~pool ~views ~shared_setup
                ~arrivals ()
            in
            let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
            if not (outcomes_equal seq_outcome out) then begin
              Printf.eprintf
                "FAIL: pooled coordinator (domains=%d) diverged from the \
                 sequential outcome\n"
                domains;
              exit 1
            end;
            (domains, wall_ms, out.Multiview.Coordinator.total_cost)))
      domains_list
  in
  (* Part 2: concurrent engine flushes over one shared meter. *)
  let flush_views pool_opt =
    let shared = Relation.Meter.create () in
    let engines =
      Array.init 4 (fun v ->
          let db =
            Tpcr.Synth.generate ~seed:(base_seed + 31 + v) ~r_rows:rows
              ~s_rows:rows ()
          in
          let m =
            Ivm.Maintainer.create ~meter:shared (Tpcr.Synth.join_view db)
          in
          let feeds = Tpcr.Synth.insert_feeds ~seed:(base_seed + 57 + v) db in
          (m, feeds))
    in
    let work (m, feeds) =
      for step = 1 to steps do
        let i = step land 1 in
        Ivm.Maintainer.on_arrive m i (feeds.Tpcr.Updates.next i);
        if step mod 8 = 0 then ignore (Ivm.Maintainer.refresh m)
      done;
      ignore (Ivm.Maintainer.refresh m)
    in
    let t0 = Unix.gettimeofday () in
    (match pool_opt with
    | Some pool -> ignore (Parallel.Pool.map pool work engines)
    | None -> Array.iter work engines);
    let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
    (Relation.Meter.snapshot shared, wall_ms)
  in
  let seq_snap, seq_flush_ms = flush_views None in
  let flush_runs =
    List.map
      (fun domains ->
        Parallel.Pool.with_pool ~domains (fun pool ->
            let snap, wall_ms = flush_views (Some pool) in
            if snap <> seq_snap then begin
              Printf.eprintf
                "FAIL: concurrent flush (domains=%d) meter totals diverged \
                 from the sequential totals\n"
                domains;
              exit 1
            end;
            (domains, wall_ms)))
      domains_list
  in
  emit
    ~name:("multiview_par_" ^ name)
    ~aligns:(List.init 5 (fun _ -> Util.Tablefmt.Right))
    ~header:
      [ "domains"; "coordinator (ms)"; "total cost"; "flush 4 views (ms)";
        "meter totals" ]
    (List.map2
       (fun (domains, coord_ms, total_cost) (_, flush_ms) ->
         [
           string_of_int domains;
           fcell ~decimals:1 coord_ms;
           fcell ~decimals:0 total_cost;
           fcell ~decimals:1 flush_ms;
           "match";
         ])
       coord_runs flush_runs);
  Printf.printf
    "sequential flush of the same 4 views: %.1f ms; every pooled run's \
     shared-meter snapshot equals the sequential one bit-for-bit\n"
    seq_flush_ms;
  (* Machine-readable copy for regression tracking across PRs. *)
  let path = "BENCH_multiview.json" in
  let oc = open_out path in
  let coord_entry (domains, wall_ms, total_cost) =
    Printf.sprintf
      "    { \"domains\": %d, \"wall_ms\": %.3f, \"total_cost\": %.6f, \
       \"matches_sequential\": true }"
      domains wall_ms total_cost
  in
  let flush_entry (domains, wall_ms) =
    Printf.sprintf
      "    { \"domains\": %d, \"wall_ms\": %.3f, \"totals_match\": true }"
      domains wall_ms
  in
  Printf.fprintf oc
    "{\n  \"grid\": \"%s\",\n  %s,\n  \"views\": 4,\n  \
     \"sequential_flush_wall_ms\": %.3f,\n  \"coordinator\": [\n%s\n  ],\n  \
     \"flush\": [\n%s\n  ]\n}\n"
    name (meta_json ()) seq_flush_ms
    (String.concat ",\n" (List.map coord_entry coord_runs))
    (String.concat ",\n" (List.map flush_entry flush_runs));
  close_out oc;
  Printf.printf "(written to %s)\n" path

let run_multiview_par () =
  run_multiview_par_grid ~name:"reference" ~horizon:1000 ~rows:1200 ~steps:400
    ()

let run_multiview_par_smoke () =
  run_multiview_par_grid ~name:"smoke" ~horizon:120 ~rows:150 ~steps:48 ()

(* --- A* search-engine scaling ------------------------------------------------ *)

(* Synthetic planner instances that stress the search layer itself (no
   TPC-R calibration): alternating plateau/linear costs with a limit tight
   enough that full states offer many minimal greedy subsets, so both the
   action enumeration and the open list grow with table count. *)
let astar_grid_spec ~tables ~horizon =
  let costs =
    Array.init tables (fun i ->
        if i mod 2 = 0 then Cost.Func.plateau ~a:1.0 ~cap:6.0
        else Cost.Func.linear ~a:1.5)
  in
  let limit = 3.0 +. (1.5 *. float_of_int tables) in
  let arrivals = Array.init (horizon + 1) (fun _ -> Array.make tables 1) in
  Abivm.Spec.make ~costs ~limit ~arrivals

let run_astar_grid ~name grid =
  section (Printf.sprintf "A* engine scaling (%s grid)" name);
  let results =
    List.map
      (fun (tables, horizon) ->
        let spec = astar_grid_spec ~tables ~horizon in
        let t0 = Unix.gettimeofday () in
        let r = Abivm.Astar.solve spec in
        let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
        (tables, horizon, r, wall_ms))
      grid
  in
  emit ~name:("astar_" ^ name)
    ~aligns:(List.init 8 (fun _ -> Util.Tablefmt.Right))
    ~header:
      [ "tables"; "horizon"; "cost"; "expanded"; "generated"; "pruned";
        "peak queue"; "wall (ms)" ]
    (List.map
       (fun (tables, horizon, (r : Abivm.Astar.result), wall_ms) ->
         [
           string_of_int tables;
           string_of_int horizon;
           fcell r.Abivm.Astar.cost;
           string_of_int r.Abivm.Astar.stats.Abivm.Astar.expanded;
           string_of_int r.Abivm.Astar.stats.Abivm.Astar.generated;
           string_of_int r.Abivm.Astar.stats.Abivm.Astar.pruned;
           string_of_int r.Abivm.Astar.stats.Abivm.Astar.max_queue;
           fcell ~decimals:1 wall_ms;
         ])
       results);
  (* Machine-readable copy for regression tracking across PRs. *)
  let path = "BENCH_astar.json" in
  let oc = open_out path in
  let entry (tables, horizon, (r : Abivm.Astar.result), wall_ms) =
    let s = r.Abivm.Astar.stats in
    Printf.sprintf
      "    { \"tables\": %d, \"horizon\": %d, \"cost\": %.6f, \
       \"expanded\": %d, \"generated\": %d, \"reopened\": %d, \
       \"pruned\": %d, \"queue_peak\": %d, \"live_peak\": %d, \"wall_ms\": \
       %.3f }"
      tables horizon r.Abivm.Astar.cost s.Abivm.Astar.expanded
      s.Abivm.Astar.generated s.Abivm.Astar.reopened s.Abivm.Astar.pruned
      s.Abivm.Astar.max_queue s.Abivm.Astar.max_live wall_ms
  in
  Printf.fprintf oc "{\n  \"grid\": \"%s\",\n  %s,\n  \"runs\": [\n%s\n  ]\n}\n"
    name (meta_json ~domains:[ 1 ] ())
    (String.concat ",\n" (List.map entry results));
  close_out oc;
  Printf.printf "(written to %s)\n" path

let astar_reference_grid =
  [ (2, 60); (2, 240); (4, 60); (4, 240); (6, 30); (6, 60) ]

let astar_smoke_grid = [ (2, 20); (3, 15); (4, 10) ]

let run_astar () = run_astar_grid ~name:"reference" astar_reference_grid
let run_astar_smoke () = run_astar_grid ~name:"smoke" astar_smoke_grid

(* --- robustness: drift injection, detection, replanning ----------------------- *)

let robust_streams =
  [
    ("SS", Workload.Arrivals.slow_stable);
    ("SU", Workload.Arrivals.slow_unstable);
    ("FS", Workload.Arrivals.fast_stable);
    ("FU", Workload.Arrivals.fast_unstable);
  ]

(* Each stream is degraded by the canonical drifted scenario (arrival rates
   x2 from mid-horizon, true costs 2x the calibrated model) and maintained
   three ways: ADAPT replaying its stale cyclic schedule (rescue-flushing
   on constraint violations), the monitored replanner of Robust.Replan,
   and ONLINE given the true costs as an adaptive reference point. *)
let run_robust_grid ~name ~costs ~limit ~horizon ~t0 () =
  section
    (Printf.sprintf
       "Robustness (%s grid) — static ADAPT vs replanning ADAPT vs ONLINE \
        under drift"
       name);
  Printf.printf
    "drift: arrival rates x2 from t=%d, true costs 2x the model; C = %.0f, \
     T0 = %d\n"
    ((horizon / 2) + 1)
    limit t0;
  let n = Array.length costs in
  let eval (label, stream) =
    let arrivals =
      Workload.Arrivals.generate ~seed:(base_seed + 17) ~horizon
        (Array.init n (fun i ->
             if i < 2 then stream else Workload.Arrivals.Constant 0))
    in
    let model = Abivm.Spec.make ~costs ~limit ~arrivals in
    let sc = Robust.Inject.drifted model in
    let actual = sc.Robust.Inject.actual in
    let static = Robust.Replan.static_adapt ~model ~actual ~t0 in
    let static_cost = Abivm.Plan.cost actual static.Abivm.Adapt.plan in
    let re = Robust.Replan.run ~model ~actual ~t0 () in
    let online_cost = Abivm.Plan.cost actual (Abivm.Online.plan actual) in
    (label, static_cost, static.Abivm.Adapt.rescues, re, online_cost)
  in
  (* The four streams are independent scenarios, so fan the evaluation out
     across the pool; each closure touches only its own spec/replanner
     state, and [map] keeps the results in stream order. *)
  let results =
    Parallel.Pool.with_pool ~domains:(fanout_domains ()) (fun pool ->
        Array.to_list
          (Parallel.Pool.map pool eval (Array.of_list robust_streams)))
  in
  emit
    ~name:("robust_" ^ name)
    ~aligns:
      (Util.Tablefmt.Left :: List.init 7 (fun _ -> Util.Tablefmt.Right))
    ~header:
      [ "stream"; "ADAPT static"; "rescues"; "ADAPT replan"; "rescues";
        "replans"; "drift peak"; "ONLINE (true costs)" ]
    (List.map
       (fun (label, static_cost, static_rescues,
             (re : Robust.Replan.result), online_cost) ->
         [
           label;
           fcell ~decimals:0 static_cost;
           string_of_int static_rescues;
           fcell ~decimals:0 re.Robust.Replan.cost;
           string_of_int re.Robust.Replan.rescues;
           string_of_int re.Robust.Replan.replans;
           fcell ~decimals:2 re.Robust.Replan.drift_peak;
           fcell ~decimals:0 online_cost;
         ])
       results);
  (* Machine-readable copy for regression tracking across PRs. *)
  let path = "BENCH_robust.json" in
  let oc = open_out path in
  let entry (label, static_cost, static_rescues,
             (re : Robust.Replan.result), online_cost) =
    Printf.sprintf
      "    { \"stream\": %S, \"static_cost\": %.6f, \"static_rescues\": %d, \
       \"replan_cost\": %.6f, \"replan_rescues\": %d, \"replans\": %d, \
       \"drift_peak\": %.4f, \"online_cost\": %.6f }"
      label static_cost static_rescues re.Robust.Replan.cost
      re.Robust.Replan.rescues re.Robust.Replan.replans
      re.Robust.Replan.drift_peak online_cost
  in
  Printf.fprintf oc
    "{\n  \"grid\": \"%s\",\n  %s,\n  \"horizon\": %d,\n  \"t0\": %d,\n  \
     \"runs\": [\n%s\n  ]\n}\n"
    name (meta_json ()) horizon t0
    (String.concat ",\n" (List.map entry results));
  close_out oc;
  Printf.printf "(written to %s)\n" path;
  print_endline
    "shape check: replanning ADAPT should match or beat static ADAPT with \
     fewer rescue flushes on every stream"

let run_robust () =
  let limit = fig6_limit () *. 20.0 /. 12.0 in
  run_robust_grid ~name:"reference" ~costs:(paper_costs ()) ~limit
    ~horizon:1000 ~t0:500 ()

let run_robust_smoke () =
  let costs =
    [| Cost.Func.plateau ~a:1.0 ~cap:6.0; Cost.Func.affine ~a:1.0 ~b:2.0 |]
  in
  run_robust_grid ~name:"smoke" ~costs ~limit:10.0 ~horizon:60 ~t0:20 ()

(* --- durability: WAL + checkpoint overhead, recovery time --------------------- *)

let rec rmtree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> rmtree (Filename.concat path entry))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let durable_scratch = "_durable_bench"

(* The SS-workload scenario shared by the baseline and every durability
   configuration: a synthetic equi-join view maintained under the ONLINE
   plan.  Durability may slow the run down but must never change it, so
   the grid checks every configuration's engine cost bit-for-bit against
   the WAL-off baseline. *)
let durable_env ~rows ~join_domain ~horizon =
  let seed = base_seed + 23 in
  let arrivals =
    Workload.Arrivals.generate ~seed:(seed + 2) ~horizon
      [| Workload.Arrivals.slow_stable; Workload.Arrivals.slow_stable |]
  in
  let costs =
    [| Cost.Func.affine ~a:1.0 ~b:5.0; Cost.Func.affine ~a:1.0 ~b:5.0 |]
  in
  let spec = Abivm.Spec.make ~costs ~limit:60.0 ~arrivals in
  let plan = Abivm.Online.plan spec in
  let fresh () =
    let db =
      Tpcr.Synth.generate ~seed ~r_rows:rows ~s_rows:rows ~join_domain ()
    in
    let m =
      Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter (Tpcr.Synth.join_view db)
    in
    Relation.Meter.reset db.Tpcr.Synth.meter;
    (m, Tpcr.Synth.insert_feeds ~seed:(seed + 1) db)
  in
  let view_of tables =
    Ivm.Viewdef.make ~name:"r_join_s" ~tables
      ~join:
        [ { Ivm.Viewdef.left = 0; left_col = "jk"; right = 1; right_col = "jk" } ]
      ~aggs:[ Relation.Agg.count "pairs" ]
      ()
  in
  { Durable.Exec.fresh; view_of; spec; plan; params = [] }

let durable_sync_label = function
  | Durable.Wal.Always -> "always"
  | Durable.Wal.Never -> "never"
  | Durable.Wal.Interval n -> Printf.sprintf "interval:%d" n

(* (label, segment_bytes, ckpt_actions, sync) *)
let durable_configs =
  [
    ("fsync-always", 64 * 1024, 16, Durable.Wal.Always);
    ("group-commit-32", 256 * 1024, 64, Durable.Wal.Interval 32);
    ("no-fsync", 256 * 1024, 64, Durable.Wal.Never);
    ("big-segments", 1024 * 1024, 256, Durable.Wal.Interval 32);
  ]

let time_best ~repeat f =
  let best = ref infinity and out = ref None in
  for _ = 1 to repeat do
    let t0 = Unix.gettimeofday () in
    let v = f () in
    let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
    if wall_ms < !best then best := wall_ms;
    out := Some v
  done;
  (Option.get !out, !best)

let run_durable_grid ~name ~rows ~join_domain ~horizon ~repeat () =
  section
    (Printf.sprintf
       "Durability (%s grid) — steady-state WAL/checkpoint overhead and \
        recovery time vs the WAL-off baseline"
       name);
  let env = durable_env ~rows ~join_domain ~horizon in
  let baseline () =
    let m, feeds = env.Durable.Exec.fresh () in
    Bridge.Runner.run_plan
      (Bridge.Runner.engine ~maintainer:m ~feeds)
      env.Durable.Exec.spec env.Durable.Exec.plan
  in
  let report, baseline_ms = time_best ~repeat baseline in
  let baseline_cost =
    Option.value ~default:Float.nan report.Abivm.Report.cost_units
  in
  Printf.printf
    "SS workload, %d rows/table, T = %d; WAL-off baseline: %.1f ms, %.2f \
     cost units (best of %d)\n"
    rows horizon baseline_ms baseline_cost repeat;
  rmtree durable_scratch;
  Unix.mkdir durable_scratch 0o755;
  let results =
    List.map
      (fun (label, segment_bytes, ckpt_actions, sync) ->
        let counter = ref 0 in
        let run_once () =
          incr counter;
          let dir =
            Filename.concat durable_scratch
              (Printf.sprintf "%s-%s-%d" name label !counter)
          in
          rmtree dir;
          let config =
            {
              (Durable.Exec.default_config ~dir) with
              Durable.Exec.segment_bytes;
              ckpt_actions;
              sync;
            }
          in
          (config, Durable.Exec.run config env)
        in
        let (config, outcome), wall_ms = time_best ~repeat run_once in
        (* Recovery: reopen the finished run from disk, restore the latest
           checkpoint, replay the WAL tail, deep-check the view. *)
        let (), recovery_ms =
          time_best ~repeat:1 (fun () ->
              match Durable.Exec.verify config env with
              | Ok _ -> ()
              | Error e -> failwith ("durable grid: verify: " ^ e))
        in
        let overhead_pct = 100.0 *. (wall_ms -. baseline_ms) /. baseline_ms in
        let cost_match =
          Int64.bits_of_float outcome.Durable.Exec.total_cost
          = Int64.bits_of_float baseline_cost
        in
        ( label, segment_bytes, ckpt_actions, sync, wall_ms, overhead_pct,
          recovery_ms, outcome, cost_match ))
      durable_configs
  in
  emit
    ~name:("durable_" ^ name)
    ~aligns:
      (Util.Tablefmt.Left :: Util.Tablefmt.Left
      :: List.init 7 (fun _ -> Util.Tablefmt.Right))
    ~header:
      [ "config"; "sync"; "seg KiB"; "ckpt every"; "wall (ms)"; "overhead %";
        "recovery (ms)"; "wal records"; "cost = baseline" ]
    (List.map
       (fun (label, segment_bytes, ckpt_actions, sync, wall_ms, overhead_pct,
             recovery_ms, (o : Durable.Exec.outcome), cost_match) ->
         [
           label;
           durable_sync_label sync;
           string_of_int (segment_bytes / 1024);
           string_of_int ckpt_actions;
           fcell ~decimals:1 wall_ms;
           fcell ~decimals:1 overhead_pct;
           fcell ~decimals:1 recovery_ms;
           string_of_int o.Durable.Exec.lsn;
           string_of_bool cost_match;
         ])
       results);
  (* Machine-readable copy for regression tracking across PRs. *)
  let path = "BENCH_durable.json" in
  let oc = open_out path in
  let entry (label, segment_bytes, ckpt_actions, sync, wall_ms, overhead_pct,
             recovery_ms, (o : Durable.Exec.outcome), cost_match) =
    Printf.sprintf
      "    { \"config\": %S, \"sync\": %S, \"segment_bytes\": %d, \
       \"ckpt_actions\": %d, \"wall_ms\": %.3f, \"overhead_pct\": %.2f, \
       \"recovery_ms\": %.3f, \"wal_records\": %d, \"checkpoints\": %d, \
       \"cost_units\": %.6f, \"cost_matches_baseline\": %b }"
      label (durable_sync_label sync) segment_bytes ckpt_actions wall_ms
      overhead_pct recovery_ms o.Durable.Exec.lsn o.Durable.Exec.checkpoints
      o.Durable.Exec.total_cost cost_match
  in
  Printf.fprintf oc
    "{\n  \"grid\": \"%s\",\n  %s,\n  \"rows\": %d,\n  \"horizon\": %d,\n  \
     \"baseline_wall_ms\": %.3f,\n  \"baseline_cost_units\": %.6f,\n  \
     \"runs\": [\n%s\n  ]\n}\n"
    name (meta_json ()) rows horizon baseline_ms baseline_cost
    (String.concat ",\n" (List.map entry results));
  close_out oc;
  Printf.printf "(written to %s)\n" path;
  let best_label, _, _, _, _, best_overhead, _, _, _ =
    List.fold_left
      (fun (( _, _, _, _, _, acc_overhead, _, _, _ ) as acc) candidate ->
        let _, _, _, _, _, overhead, _, _, _ = candidate in
        if overhead < acc_overhead then candidate else acc)
      (List.hd results) (List.tl results)
  in
  Printf.printf
    "shape check: every config's engine cost must equal the baseline \
     bit-for-bit, and the best config (%s, %.1f%% overhead) should stay \
     within the 25%% steady-state budget\n"
    best_label best_overhead;
  rmtree durable_scratch

let run_durable () =
  run_durable_grid ~name:"reference" ~rows:2500 ~join_domain:25 ~horizon:1000 ~repeat:3 ()

let run_durable_smoke () =
  run_durable_grid ~name:"smoke" ~rows:250 ~join_domain:10 ~horizon:40 ~repeat:1 ()

(* --- bechamel micro-benchmarks ----------------------------------------------- *)

let run_micro () =
  section "Micro-benchmarks (bechamel; one Test.make per figure kernel)";
  let open Bechamel in
  let limit = fig6_limit () in
  let spec200 = uniform_spec ~limit ~horizon:200 in
  let db2 = Tpcr.Synth.generate ~seed:3 ~r_rows:5_000 ~s_rows:5_000 () in
  let m2 = Ivm.Maintainer.create ~meter:db2.Tpcr.Synth.meter (Tpcr.Synth.join_view db2) in
  let feeds2 = Tpcr.Synth.insert_feeds ~seed:4 db2 in
  let tests =
    [
      Test.make ~name:"fig1/maintain-batch-100 (engine kernel)"
        (Staged.stage (fun () ->
             for _ = 1 to 100 do
               Ivm.Maintainer.on_arrive m2 1 (feeds2.Tpcr.Updates.next 1)
             done;
             ignore (Ivm.Maintainer.process m2 1 100)));
      Test.make ~name:"fig5/naive-plan-T200"
        (Staged.stage (fun () -> ignore (Abivm.Naive.plan spec200)));
      Test.make ~name:"fig6/astar-T200"
        (Staged.stage (fun () -> ignore (Abivm.Astar.solve spec200)));
      Test.make ~name:"fig6/online-T200"
        (Staged.stage (fun () -> ignore (Abivm.Online.plan spec200)));
      Test.make ~name:"fig7/online-bursty-T200"
        (Staged.stage
           (let arrivals =
              Workload.Arrivals.generate ~seed:6 ~horizon:200
                [| Workload.Arrivals.fast_unstable; Workload.Arrivals.fast_unstable;
                   Workload.Arrivals.Constant 0; Workload.Arrivals.Constant 0 |]
            in
            let spec = Abivm.Spec.make ~costs:(paper_costs ()) ~limit ~arrivals in
            fun () -> ignore (Abivm.Online.plan spec)));
      Test.make ~name:"tightness/exact-dp"
        (Staged.stage (fun () ->
             let f = Cost.Func.step_tightness ~eps:0.5 ~limit:10.0 in
             let spec =
               Abivm.Spec.make ~costs:[| f |] ~limit:10.0
                 ~arrivals:(Array.make 4 [| 5 |])
             in
             ignore (Abivm.Exact.solve spec)));
    ]
  in
  let benchmark test =
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
    in
    let instances = [ Toolkit.Instance.monotonic_clock ] in
    let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
    let raw = Benchmark.all cfg instances test in
    let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort compare
  in
  List.iter
    (fun test ->
      List.iter
        (fun (name, ols) ->
          let nanos =
            match Analyze.OLS.estimates ols with
            | Some [ est ] -> est
            | Some _ | None -> Float.nan
          in
          Printf.printf "  %-45s %12.0f ns/run\n" name nanos)
        (benchmark test))
    tests

(* --- columnar engine: boxed vs vectorized --------------------------------- *)

(* Head-to-head of the two engine paths on the kernels the columnar redesign
   targets: (1) scan + predicate, Ra.eval_boxed with the row compiler vs
   draining Ra.cursor with the unboxed filter kernels; (2) delta
   application, the pre-columnar row-at-a-time expand loop (boxed hash of
   the delta keys probed once per materialized scan row) vs the maintainer's
   vectorized scan_batches/Ihash probe over the raw int column.  Both sides
   of each pair produce the same row counts; the JSON records the speedups
   the acceptance bar checks (>= 3x). *)

(* Join keys span rows/4 distinct values (~4 partner rows per key), the
   sparse-probe regime delta application runs in. *)
let columnar_key_domain rows = max 1 (rows / 4)

let columnar_table ~rows =
  let open Relation in
  let schema =
    Schema.make
      [ ("k", Datatype.TInt); ("v", Datatype.TFloat); ("tag", Datatype.TString) ]
  in
  let t = Table.create ~name:"col" ~schema () in
  let st = Random.State.make [| 0xBA7C; rows |] in
  let domain = columnar_key_domain rows in
  for i = 0 to rows - 1 do
    let k = Random.State.int st domain in
    let v =
      if i mod 97 = 0 then Value.Null
      else Value.Float (float_of_int (Random.State.int st 500))
    in
    ignore
      (Table.insert t
         (Tuple.make
            [ Value.Int k; v; Value.Str (if k land 1 = 0 then "even" else "odd") ]))
  done;
  t

let time_ms f =
  (* settle the heap first: the boxed kernels allocate heavily, and major
     GC debt from one measurement would otherwise bleed into the next *)
  Gc.compact ();
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, 1000.0 *. (Unix.gettimeofday () -. t0))

let run_columnar_grid ~name ~rows ~deltas ~repeat () =
  let open Relation in
  section
    (Printf.sprintf
       "Columnar engine: boxed vs vectorized (%s grid; %d rows, %d deltas, \
        repeat %d)"
       name rows deltas repeat);
  let t = columnar_table ~rows in
  (* -- scan + predicate: a kernel-eligible conjunction ---------------------- *)
  let pred =
    (* ~40% of keys, then ~80% of those on v: selective but not degenerate *)
    Expr.(
      And
        ( Lt (col "k", int (2 * columnar_key_domain rows / 5)),
          Ge (col "v", float 100.0) ))
  in
  let plan = Ra.select pred (Ra.scan t) in
  let repeat_count f =
    let n = ref 0 in
    for _ = 1 to repeat do
      n := f ()
    done;
    !n
  in
  let boxed_rows, boxed_scan_ms =
    time_ms (fun () -> repeat_count (fun () -> List.length (Ra.eval_boxed plan)))
  in
  let vec_rows, vec_scan_ms =
    time_ms (fun () ->
        repeat_count (fun () ->
            let c = Ra.cursor plan in
            let n = ref 0 in
            let rec loop () =
              match c () with
              | None -> !n
              | Some b ->
                  n := !n + b.Batch.n_sel;
                  loop ()
            in
            loop ()))
  in
  if boxed_rows <> vec_rows then
    failwith
      (Printf.sprintf "columnar bench: scan row mismatch (%d boxed vs %d vec)"
         boxed_rows vec_rows);
  let scan_speedup = boxed_scan_ms /. vec_scan_ms in
  (* -- delta application ---------------------------------------------------- *)
  (* Delta keys hitting ~deltas/1000 of the key domain, as the maintainer
     sees when a batch of updates joins an unindexed partner table. *)
  let st = Random.State.make [| 0xDE17A; deltas |] in
  let domain = columnar_key_domain rows in
  let delta_keys = Array.init deltas (fun _ -> Random.State.int st domain) in
  let boxed_matches, boxed_delta_ms =
    time_ms (fun () ->
        repeat_count (fun () ->
            (* the pre-columnar expand loop: boxed Value hash of the delta
               keys, probed once per scanned (materialized) row *)
            let h = Hashtbl.create (Array.length delta_keys) in
            Array.iter
              (fun k ->
                let v = Value.Int k in
                Hashtbl.replace h v (1 + Option.value ~default:0 (Hashtbl.find_opt h v)))
              delta_keys;
            let n = ref 0 in
            Table.scan t (fun _ tup ->
                match Hashtbl.find_opt h (Tuple.get tup 0) with
                | Some c -> n := !n + c
                | None -> ());
            !n))
  in
  let vec_matches, vec_delta_ms =
    time_ms (fun () ->
        repeat_count (fun () ->
            (* the maintainer's vectorized expand: unboxed Ihash probe over
               the raw int column, partner tuple materialized on match *)
            let h = Ihash.create (Array.length delta_keys) in
            Array.iter (fun k -> Ihash.add h k 0) delta_keys;
            let n = ref 0 in
            Table.scan_batches t (fun b ->
                let col = b.Batch.cols.(0) in
                let data = Column.int_data col and valid = Column.validity col in
                let base = b.Batch.base in
                for s = 0 to b.Batch.n_sel - 1 do
                  let r = Array.unsafe_get b.Batch.sel s in
                  let abs = base + r in
                  if Column.bit valid abs then begin
                    let cell =
                      ref (Ihash.first h (Bigarray.Array1.unsafe_get data abs))
                    in
                    while !cell >= 0 do
                      ignore (Batch.tuple b r);
                      incr n;
                      cell := Ihash.next_cell h !cell
                    done
                  end
                done);
            !n))
  in
  if boxed_matches <> vec_matches then
    failwith
      (Printf.sprintf "columnar bench: delta match mismatch (%d boxed vs %d vec)"
         boxed_matches vec_matches);
  let delta_speedup = boxed_delta_ms /. vec_delta_ms in
  emit ~name:("columnar_" ^ name)
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "kernel"; "boxed (ms)"; "vectorized (ms)"; "speedup"; "rows out" ]
    [
      [
        "scan+predicate"; fcell ~decimals:2 boxed_scan_ms;
        fcell ~decimals:2 vec_scan_ms; fcell ~decimals:2 scan_speedup;
        string_of_int vec_rows;
      ];
      [
        "delta-apply"; fcell ~decimals:2 boxed_delta_ms;
        fcell ~decimals:2 vec_delta_ms; fcell ~decimals:2 delta_speedup;
        string_of_int vec_matches;
      ];
    ];
  let path = "BENCH_columnar.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"grid\": \"%s\",\n  %s,\n  \"rows\": %d,\n  \"deltas\": %d,\n  \
     \"repeat\": %d,\n  \"runs\": [\n\
    \    { \"kernel\": \"scan_predicate\", \"boxed_ms\": %.3f, \
     \"vectorized_ms\": %.3f, \"speedup\": %.3f, \"rows_out\": %d },\n\
    \    { \"kernel\": \"delta_apply\", \"boxed_ms\": %.3f, \
     \"vectorized_ms\": %.3f, \"speedup\": %.3f, \"rows_out\": %d }\n\
    \  ]\n}\n"
    name (meta_json ()) rows deltas repeat boxed_scan_ms vec_scan_ms
    scan_speedup vec_rows boxed_delta_ms vec_delta_ms delta_speedup vec_matches;
  close_out oc;
  Printf.printf "(written to %s)\n" path;
  Printf.printf
    "shape check: both kernels must report identical row counts across \
     paths, and the vectorized side should clear the 3x acceptance bar \
     (measured: scan %.1fx, delta %.1fx)\n"
    scan_speedup delta_speedup

let run_columnar () =
  run_columnar_grid ~name:"reference" ~rows:400_000 ~deltas:2_000 ~repeat:3 ()

let run_columnar_smoke () =
  run_columnar_grid ~name:"smoke" ~rows:80_000 ~deltas:600 ~repeat:1 ()

(* --- serve: shared SLO scheduler vs independent per-tenant ONLINE ---------- *)

(* Each tenant runs the §4.3 ONLINE controller as an SLO over its own
   engine either way; the question the table answers is what the shared
   scheduler's cross-tenant co-flush coordination buys.  "independent"
   disables coordination (every tenant flushes alone, full price);
   "shared" lets nearly-due tenants piggyback on a forced flush and
   prices each table's combined work with the multiview shared-setup
   discount.  The shared scheduler must still meet every tenant's
   constraint — the worst violation rate may not regress — at an
   aggregate charged cost no higher than the independent runs'. *)
let rec bench_rmtree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> bench_rmtree (Filename.concat path entry))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let run_serve_grid ~name ~tenants ~rows ~horizon ~limit_factor () =
  section
    (Printf.sprintf
       "Serve (%s grid) — shared SLO scheduler vs independent per-tenant \
        ONLINE (%d tenants, %d rows, horizon %d)"
       name tenants rows horizon);
  let tenant_cfgs =
    List.init tenants (fun i ->
        {
          Serve.Tenant.name = Printf.sprintf "t%d" i;
          seed = base_seed + (10 * i);
          rows;
          horizon;
          limit_factor;
          streams = [ "ss"; "ss" ];
          order = Ivm.Viewdef.First_order;
          sync = None;
        })
  in
  let run_mode ~coordinate =
    let root =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "abivm-bench-serve-%d-%s-%b" (Unix.getpid ()) name
           coordinate)
    in
    bench_rmtree root;
    let config =
      {
        Serve.Service.default_config with
        admission =
          {
            Serve.Admission.max_active = tenants;
            max_queued = tenants;
            max_delta_entries = max_int;
          };
        coordinate;
        discount_factor = 0.8;
      }
    in
    let svc = Serve.Service.create ~root config in
    List.iter
      (fun cfg ->
        match Serve.Service.register svc cfg with
        | Ok Serve.Admission.Admit -> ()
        | Ok d ->
            Printf.eprintf "FAIL: tenant %s not admitted (%s)\n"
              cfg.Serve.Tenant.name
              (Serve.Admission.describe d);
            exit 1
        | Error e ->
            Printf.eprintf "FAIL: tenant %s: %s\n" cfg.Serve.Tenant.name e;
            exit 1)
      tenant_cfgs;
    let t0 = Unix.gettimeofday () in
    let outcome = Serve.Service.run svc in
    let wall_ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
    bench_rmtree root;
    List.iter
      (fun (t : Serve.Service.tenant_outcome) ->
        if not t.Serve.Service.consistent then begin
          Printf.eprintf "FAIL: tenant %s finished inconsistent\n"
            t.Serve.Service.tenant;
          exit 1
        end)
      outcome.Serve.Service.tenants;
    (outcome, wall_ms)
  in
  let indep, indep_ms = run_mode ~coordinate:false in
  let shared, shared_ms = run_mode ~coordinate:true in
  let row label (o : Serve.Service.outcome) wall_ms =
    [
      label;
      fcell ~decimals:2 o.Serve.Service.aggregate_charged;
      fcell ~decimals:2 o.Serve.Service.aggregate_undiscounted;
      string_of_int o.Serve.Service.co_flushes;
      fcell ~decimals:4 o.Serve.Service.worst_violation_rate;
      fcell ~decimals:1 wall_ms;
    ]
  in
  emit
    ~name:("serve_" ^ name)
    ~aligns:
      [ Util.Tablefmt.Left; Right; Right; Right; Right; Right ]
    ~header:
      [ "scheduler"; "aggregate charged"; "undiscounted"; "co-flush joins";
        "worst SLO violation rate"; "wall (ms)" ]
    [ row "independent ONLINE" indep indep_ms;
      row "shared (co-flush)" shared shared_ms ];
  let savings =
    100.0
    *. (1.0
       -. (shared.Serve.Service.aggregate_charged
          /. Float.max 1e-9 indep.Serve.Service.aggregate_charged))
  in
  Printf.printf
    "shared scheduler: %.1f%% aggregate cost vs independent, worst \
     violation rate %.4f (independent %.4f)\n"
    (100.0 -. savings)
    shared.Serve.Service.worst_violation_rate
    indep.Serve.Service.worst_violation_rate;
  if
    shared.Serve.Service.aggregate_charged
    > indep.Serve.Service.aggregate_charged +. 1e-6
  then begin
    Printf.eprintf
      "FAIL: shared scheduler charged more than independent ONLINE\n";
    exit 1
  end;
  if
    shared.Serve.Service.worst_violation_rate
    > indep.Serve.Service.worst_violation_rate +. 1e-12
  then begin
    Printf.eprintf
      "FAIL: shared scheduler regressed the worst tenant's SLO\n";
    exit 1
  end;
  (* Machine-readable copy for regression tracking across PRs. *)
  let path = "BENCH_serve.json" in
  let oc = open_out path in
  let mode_json label (o : Serve.Service.outcome) wall_ms =
    Printf.sprintf
      "  \"%s\": {\n    \"aggregate_charged\": %.6f,\n    \
       \"aggregate_undiscounted\": %.6f,\n    \"co_flushes\": %d,\n    \
       \"worst_violation_rate\": %.6f,\n    \"rounds\": %d,\n    \
       \"wall_ms\": %.3f,\n    \"tenants\": [\n%s\n    ]\n  }"
      label o.Serve.Service.aggregate_charged
      o.Serve.Service.aggregate_undiscounted o.Serve.Service.co_flushes
      o.Serve.Service.worst_violation_rate o.Serve.Service.rounds wall_ms
      (String.concat ",\n"
         (List.map
            (fun (t : Serve.Service.tenant_outcome) ->
              Printf.sprintf
                "      { \"tenant\": %S, \"metered_cost\": %.6f, \
                 \"charged_cost\": %.6f, \"violations\": %d, \
                 \"violation_rate\": %.6f, \"sheds\": %d, \"reanchors\": \
                 %d, \"consistent\": %b }"
                t.Serve.Service.tenant t.Serve.Service.metered_cost
                t.Serve.Service.charged_cost t.Serve.Service.violations
                t.Serve.Service.violation_rate t.Serve.Service.sheds
                t.Serve.Service.reanchors t.Serve.Service.consistent)
            o.Serve.Service.tenants))
  in
  Printf.fprintf oc
    "{\n  \"grid\": \"%s\",\n  %s,\n  \"tenants\": %d,\n  \"rows\": %d,\n  \
     \"horizon\": %d,\n  \"limit_factor\": %.2f,\n%s,\n%s\n}\n"
    name (meta_json ()) tenants rows horizon limit_factor
    (mode_json "independent" indep indep_ms)
    (mode_json "shared" shared shared_ms);
  close_out oc;
  Printf.printf "(written to %s)\n" path

let run_serve () =
  run_serve_grid ~name:"reference" ~tenants:6 ~rows:120 ~horizon:60
    ~limit_factor:1.5 ()

let run_serve_smoke () =
  run_serve_grid ~name:"smoke" ~tenants:4 ~rows:60 ~horizon:25
    ~limit_factor:1.2 ()

(* --- serve-io: group-commit window + off-thread checkpoints ----------------- *)

(* The serve-path I/O experiment (DESIGN.md §15).  Three claims, each a
   hard gate (exit 1 on regression):

   1. Under the shared group-commit window a scheduler round costs ONE
      data fsync — the window close — however many tenants committed.
   2. The durable state is the whole state: the root is recovered from
      disk after the timed run and every outcome bit (per-tenant costs,
      aggregates, discounts, round count) must match the live run.
   3. Off-thread checkpoints ([Durable.Exec] with a pool) stall the
      maintenance thread no more than synchronous ones do
      ([durable.ckpt_stall_ms]), with the total cost bit-identical. *)

let telemetry_diff f =
  let owned = not (Telemetry.enabled ()) in
  if owned then Telemetry.enable ();
  let before = Telemetry.snapshot () in
  let v = f () in
  let diff = Telemetry.Metrics.diff (Telemetry.snapshot ()) before in
  if owned then Telemetry.disable ();
  (v, diff)

let serveio_digest (o : Serve.Service.outcome) =
  String.concat ","
    (Printf.sprintf "%Lx" (Int64.bits_of_float o.Serve.Service.aggregate_charged)
    :: Printf.sprintf "%Lx"
         (Int64.bits_of_float o.Serve.Service.aggregate_undiscounted)
    :: string_of_int o.Serve.Service.co_flushes
    :: string_of_int o.Serve.Service.rounds
    :: List.concat_map
         (fun (t : Serve.Service.tenant_outcome) ->
           [
             t.Serve.Service.tenant;
             string_of_int t.Serve.Service.steps;
             Printf.sprintf "%Lx" (Int64.bits_of_float t.Serve.Service.metered_cost);
             Printf.sprintf "%Lx" (Int64.bits_of_float t.Serve.Service.charged_cost);
             string_of_int t.Serve.Service.violations;
           ])
         o.Serve.Service.tenants)

let run_serveio_grid ~name ~tenants ~rows ~horizon ~limit_factor ~repeat
    ~ckpt_rows ~ckpt_horizon () =
  section
    (Printf.sprintf
       "Serve I/O (%s grid) — shared group-commit window (%d tenants, %d \
        rows, horizon %d), plus off-thread checkpoint stall"
       name tenants rows horizon);
  let tenant_cfgs =
    List.init tenants (fun i ->
        {
          Serve.Tenant.name = Printf.sprintf "t%d" i;
          seed = base_seed + (10 * i);
          rows;
          horizon;
          limit_factor;
          streams = [ "ss"; "ss" ];
          order = Ivm.Viewdef.First_order;
          sync = None;
        })
  in
  (* Timed runs of the fleet; best-of-[repeat].  Only
     [Serve.Service.run] is timed — tenant admission (synthetic DB
     generation) is not the claim under test.  The root is left on disk
     so it can be recovered. *)
  let root =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "abivm-bench-serveio-%d-%s" (Unix.getpid ()) name)
  in
  let grouped =
    let best = ref infinity and out = ref None in
    for _ = 1 to repeat do
      bench_rmtree root;
      let config =
        {
          Serve.Service.default_config with
          admission =
            {
              Serve.Admission.max_active = tenants;
              max_queued = tenants;
              max_delta_entries = max_int;
            };
          (* Coordination is the serve grid's subject, not this one's. *)
          coordinate = false;
          discount_factor = 0.0;
          sync = Durable.Wal.Always;
        }
      in
      let svc = Serve.Service.create ~root config in
      List.iter
        (fun cfg ->
          match Serve.Service.register svc cfg with
          | Ok Serve.Admission.Admit -> ()
          | Ok d ->
              Printf.eprintf "FAIL: serveio: tenant %s not admitted (%s)\n"
                cfg.Serve.Tenant.name
                (Serve.Admission.describe d);
              exit 1
          | Error e ->
              Printf.eprintf "FAIL: serveio: tenant %s: %s\n"
                cfg.Serve.Tenant.name e;
              exit 1)
        tenant_cfgs;
      let (outcome, wall_ms), metrics =
        telemetry_diff (fun () ->
            let t0 = Unix.gettimeofday () in
            let o = Serve.Service.run svc in
            (o, 1000.0 *. (Unix.gettimeofday () -. t0)))
      in
      if wall_ms < !best then best := wall_ms;
      out :=
        Some
          ( outcome,
            Serve.Service.rounds svc,
            Serve.Service.idle_rounds svc,
            Serve.Service.window_closes svc,
            Telemetry.Metrics.value metrics "durable.fsyncs" )
    done;
    let outcome, rounds, idle_rounds, window_closes, fsyncs =
      Option.get !out
    in
    (outcome, rounds, idle_rounds, window_closes, fsyncs, !best)
  in
  let grouped_rec =
    match Serve.Service.recover ~root () with
    | Error e ->
        Printf.eprintf "FAIL: serveio: recover %s: %s\n" root e;
        exit 1
    | Ok svc -> serveio_digest (Serve.Service.run svc)
  in
  let g_out, g_rounds, g_idle, g_closes, g_fsyncs, g_ms = grouped in
  let g_busy = max 1 (g_rounds - g_idle) in
  emit ~name:("serveio_" ^ name)
    ~aligns:[ Util.Tablefmt.Left; Right; Right; Right; Right; Right; Right ]
    ~header:
      [ "rounds"; "idle"; "window closes"; "fsyncs"; "fsyncs/busy round";
        "aggregate charged"; "wall (ms)" ]
    [
      [
        string_of_int g_rounds;
        string_of_int g_idle;
        string_of_int g_closes;
        fcell ~decimals:0 g_fsyncs;
        fcell ~decimals:2 (g_fsyncs /. float_of_int g_busy);
        fcell ~decimals:2 g_out.Serve.Service.aggregate_charged;
        fcell ~decimals:1 g_ms;
      ];
    ];
  Printf.printf "grouped window: %.0f fsyncs over %d busy rounds (%.2f/round)\n"
    g_fsyncs g_busy
    (g_fsyncs /. float_of_int g_busy);
  (* Gate 1: one fsync per busy round.  Every busy round closes the
     window exactly once ([sync = Always]); the only uncounted extras
     allowed are the shutdown flush and segment rotation. *)
  let gate_window = g_closes = g_busy && g_fsyncs <= float_of_int (g_closes + 2) in
  if not gate_window then begin
    Printf.eprintf
      "FAIL: serveio: grouped window fsync accounting: %d closes, %d busy \
       rounds, %.0f fsyncs\n"
      g_closes g_busy g_fsyncs;
    exit 1
  end;
  (* Gate 2: the recovered run is bit-identical to the live one. *)
  let g_dig = serveio_digest g_out in
  if grouped_rec <> g_dig then begin
    Printf.eprintf
      "FAIL: serveio: recovered digest %s diverges from live %s\n"
      grouped_rec g_dig;
    exit 1
  end;
  bench_rmtree root;
  (* Gate 3: off-thread checkpoints must not stall the maintenance
     thread more than synchronous ones ([Durable.Exec], same workload,
     same checkpoint cadence; stalls best-of-[repeat] to damp noise). *)
  let env = durable_env ~rows:ckpt_rows ~join_domain:25 ~horizon:ckpt_horizon in
  let ckpt_counter = ref 0 in
  let ckpt_run ~label ~pool () =
    incr ckpt_counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "abivm-bench-serveio-ckpt-%d-%s-%s-%d" (Unix.getpid ())
           name label !ckpt_counter)
    in
    bench_rmtree dir;
    let config =
      {
        (Durable.Exec.default_config ~dir) with
        Durable.Exec.ckpt_actions = 8;
        sync = Durable.Wal.Always;
        pool;
      }
    in
    let outcome, metrics = telemetry_diff (fun () -> Durable.Exec.run config env) in
    bench_rmtree dir;
    (outcome, Telemetry.Metrics.value metrics "durable.ckpt_stall_ms")
  in
  let best_stall ~label ~pool =
    let best = ref infinity and out = ref None in
    for _ = 1 to repeat do
      let o, stall = ckpt_run ~label ~pool () in
      if stall < !best then best := stall;
      out := Some o
    done;
    (Option.get !out, !best)
  in
  let sync_out, sync_stall = best_stall ~label:"sync" ~pool:None in
  let async_out, async_stall =
    Parallel.Pool.with_pool ~domains:2 (fun pool ->
        best_stall ~label:"async" ~pool:(Some pool))
  in
  Printf.printf
    "checkpoint stall: %.2f ms sync vs %.2f ms off-thread (%d checkpoints)\n"
    sync_stall async_stall sync_out.Durable.Exec.checkpoints;
  if sync_out.Durable.Exec.checkpoints = 0 then begin
    Printf.eprintf "FAIL: serveio: checkpoint grid wrote no checkpoints\n";
    exit 1
  end;
  if
    Int64.bits_of_float sync_out.Durable.Exec.total_cost
    <> Int64.bits_of_float async_out.Durable.Exec.total_cost
  then begin
    Printf.eprintf
      "FAIL: serveio: off-thread checkpoints changed the total cost\n";
    exit 1
  end;
  if async_stall > (sync_stall *. 1.25) +. 2.0 then begin
    Printf.eprintf
      "FAIL: serveio: off-thread checkpoint stall regressed (%.2f ms vs \
       %.2f ms sync)\n"
      async_stall sync_stall;
    exit 1
  end;
  (* Machine-readable copy for regression tracking across PRs. *)
  let path = "BENCH_serveio.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"grid\": \"%s\",\n  %s,\n  \"tenants\": %d,\n  \"rows\": %d,\n  \
     \"horizon\": %d,\n  \"limit_factor\": %.2f,\n  \"grouped\": {\n    \
     \"rounds\": %d,\n    \"idle_rounds\": %d,\n    \"window_closes\": %d,\n    \
     \"fsyncs\": %.0f,\n    \"fsyncs_per_busy_round\": %.4f,\n    \
     \"aggregate_charged\": %.6f,\n    \"wall_ms\": %.3f,\n    \
     \"digest_matches_recovered\": %b\n  },\n  \
     \"checkpoint\": {\n    \"rows\": %d,\n    \"horizon\": %d,\n    \
     \"checkpoints\": %d,\n    \"sync_stall_ms\": %.3f,\n    \
     \"async_stall_ms\": %.3f,\n    \"cost_bits_equal\": %b\n  }\n}\n"
    name (meta_json ()) tenants rows horizon limit_factor g_rounds g_idle
    g_closes g_fsyncs
    (g_fsyncs /. float_of_int g_busy)
    g_out.Serve.Service.aggregate_charged g_ms (grouped_rec = g_dig)
    ckpt_rows ckpt_horizon sync_out.Durable.Exec.checkpoints sync_stall
    async_stall
    (Int64.bits_of_float sync_out.Durable.Exec.total_cost
    = Int64.bits_of_float async_out.Durable.Exec.total_cost);
  close_out oc;
  Printf.printf "(written to %s)\n" path

let run_serveio () =
  run_serveio_grid ~name:"reference" ~tenants:8 ~rows:16 ~horizon:60
    ~limit_factor:1.3 ~repeat:3 ~ckpt_rows:800 ~ckpt_horizon:400 ()

let run_serveio_smoke () =
  run_serveio_grid ~name:"smoke" ~tenants:6 ~rows:12 ~horizon:30
    ~limit_factor:1.2 ~repeat:2 ~ckpt_rows:250 ~ckpt_horizon:160 ()

(* --- ho: first-order vs higher-order maintenance --------------------------- *)

(* The DESIGN.md §13 experiment.  Two questions:

   1. What do materialized delta views do to the engine's batch cost
      curves f_i(k)?  Measured on FO/HO twin synth engines (R indexed on
      the join key, S not), under a uniform and a Zipfian-skewed insert
      stream.  The headline is the ΔR (table 0) curve: under FO a ΔR batch
      scans S once per batch, so f_0(1) starts at the full scan price;
      under HO it becomes one hash probe per tuple into d(V)/d(R) — the
      indexed-probe shape.  The acceptance gate requires HO to beat FO by
      >= 2x at small k there.  On the already-indexed ΔS side the win is a
      flatter slope (the Fit.slope gate), and at large k HO loses its
      lead — per-tuple probing cannot amortize like one shared scan —
      which is exactly the frontier shift the planner must re-learn.

   2. What do the re-derived batch bounds / heuristic do with those
      curves?  A six-table planner grid (both stream shapes plus a scaled
      echo, all measured curves repaired to their subadditive hull)
      compares NAIVE vs LGM(NAIVE) vs A* under both orders, reports the
      per-table batch bounds K_i, and gates on (a) A* with the DP
      heuristic returning bit-identically the uniform-cost (Dijkstra)
      optimum, and (b) exact <= A* <= 2 * exact on an Exact-solvable
      two-table sub-instance.  Any gate failure exits 1. *)

let run_ho_grid ~name ~r_rows ~s_rows ~sizes ~horizon () =
  section
    (Printf.sprintf
       "Higher-order delta views (%s grid; %dx%d rows, batches up to %d) — \
        FO vs HO cost curves and the re-derived planner bounds"
       name r_rows s_rows
       (List.fold_left max 1 sizes));
  let fo = Ivm.Viewdef.First_order and ho = Ivm.Viewdef.Higher_order in
  let mk ~zipf order =
    let db = Tpcr.Synth.generate ~seed:7 ~r_rows ~s_rows () in
    let m =
      Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter ~order
        (Tpcr.Synth.join_view db)
    in
    let feeds =
      if zipf then Tpcr.Synth.zipf_feeds ~seed:11 db
      else Tpcr.Synth.insert_feeds ~seed:11 db
    in
    (m, feeds)
  in
  let curves ~zipf table =
    Bridge.Calibrate.measure_orders ~make:(mk ~zipf) ~table ~sizes
  in
  let u0 = curves ~zipf:false 0 and u1 = curves ~zipf:false 1 in
  let z0 = curves ~zipf:true 0 and z1 = curves ~zipf:true 1 in
  let get o cs = List.assoc o cs in
  let at k c = List.assoc k c in
  (* -- the measured curves -------------------------------------------------- *)
  emit ~name:("ho_curves_" ^ name)
    ~aligns:
      (Util.Tablefmt.Right
      :: List.map (fun _ -> Util.Tablefmt.Right) [ 1; 2; 3; 4; 5; 6; 7; 8 ])
    ~header:
      [ "k"; "FO dR"; "HO dR"; "FO dS"; "HO dS"; "FO dR zipf"; "HO dR zipf";
        "FO dS zipf"; "HO dS zipf" ]
    (List.map
       (fun k ->
         string_of_int k
         :: List.map
              (fun c -> fcell ~decimals:1 (at k c))
              [ get fo u0; get ho u0; get fo u1; get ho u1; get fo z0;
                get ho z0; get fo z1; get ho z1 ])
       sizes);
  let slope c = Cost.Fit.slope c in
  Printf.printf
    "fitted slopes (cost units per modification): dS %.2f (FO) vs %.2f (HO); \
     zipf dS %.2f (FO) vs %.2f (HO)\n"
    (slope (get fo u1)) (slope (get ho u1)) (slope (get fo z1))
    (slope (get ho z1));
  (* -- the planner grid ----------------------------------------------------- *)
  let upto = 4 * List.fold_left max 1 sizes in
  let repaired nm curve =
    Cost.Func.subadditive_hull ~upto (Bridge.Calibrate.tabulated ~name:nm curve)
  in
  (* Six tables from measured data: both stream shapes for both delta
     sides, plus a scaled echo pair standing in for two smaller tables
     with the same access-path shapes. *)
  let costs_of order =
    [|
      repaired "u_dR" (get order u0);
      repaired "u_dS" (get order u1);
      repaired "z_dR" (get order z0);
      repaired "z_dS" (get order z1);
      Cost.Func.scale 0.5 (repaired "u_dR_half" (get order u0));
      Cost.Func.scale 0.5 (repaired "u_dS_half" (get order u1));
    |]
  in
  let prng = Util.Prng.create ~seed:5 in
  let arrivals =
    Array.init (horizon + 1) (fun _ -> Array.init 6 (fun _ -> Util.Prng.int prng 2))
  in
  (* The response-time constraint is an external SLA: the same C for both
     orders, set from the first-order curves.  Against that fixed C the
     flatter higher-order curves admit far bigger batches — the batch
     bounds K_i the heuristic is re-derived from shift visibly, and
     planning itself nearly degenerates (the constraint stops binding).
     A third configuration re-tightens C proportionally to the HO curves
     so the HO planner is also exercised on a non-trivial instance. *)
  let limit_for costs =
    3.0
    *. Array.fold_left
         (fun acc f -> Float.max acc (Cost.Func.eval f 1))
         0.0 costs
  in
  let limit = limit_for (costs_of fo) in
  let spec_of costs ~limit n_tables horizon' =
    let costs = Array.sub costs 0 n_tables in
    Abivm.Spec.make ~costs ~limit
      ~arrivals:
        (Array.init (horizon' + 1) (fun t ->
             Array.sub arrivals.(min t horizon) 0 n_tables))
  in
  let gate_failures = ref [] in
  let gate what ok detail =
    Printf.printf "gate %-34s %s  (%s)\n" what (if ok then "PASS" else "FAIL")
      detail;
    if not ok then gate_failures := what :: !gate_failures
  in
  let planner_rows = ref [] and planner_json = ref [] in
  List.iter
    (fun (oname, order, limit) ->
      let costs = costs_of order in
      let spec = spec_of costs ~limit 6 horizon in
      let naive_cost = Abivm.Plan.cost spec (Abivm.Naive.plan spec) in
      let lgm_cost =
        Abivm.Plan.cost spec (Abivm.Transforms.make_lgm spec (Abivm.Naive.plan spec))
      in
      let astar = Abivm.Astar.solve spec in
      let dijkstra = Abivm.Astar.solve ~use_heuristic:false spec in
      (* K_i against a horizon long enough that C binds before the
         total-arrivals clamp: the curve-driven shift.  HO raises the
         bound on the probe side (flatter slope) and lowers it on the
         scan side past the crossover where per-tuple probing stops
         amortizing — both directions are the re-derivation at work. *)
      let bounds =
        Abivm.Astar.batch_bounds
          (Abivm.Spec.make ~costs ~limit
             ~arrivals:(Array.init 241 (fun _ -> Array.make 6 1)))
      in
      gate
        (Printf.sprintf "A* heuristic = Dijkstra (%s)" oname)
        (astar.Abivm.Astar.cost = dijkstra.Abivm.Astar.cost)
        (Printf.sprintf "%.2f vs %.2f, %d vs %d expanded" astar.Abivm.Astar.cost
           dijkstra.Abivm.Astar.cost astar.Abivm.Astar.stats.Abivm.Astar.expanded
           dijkstra.Abivm.Astar.stats.Abivm.Astar.expanded);
      (* Exact is feasible on the two-table head of the grid. *)
      let sub = spec_of costs ~limit 2 (min horizon 8) in
      let sub_astar = (Abivm.Astar.solve sub).Abivm.Astar.cost in
      (match Abivm.Exact.solve ~max_expansions:500_000 sub with
      | exception Abivm.Exact.Too_large _ ->
          gate
            (Printf.sprintf "exact <= A* <= 2 exact (%s)" oname)
            false "exact solver exceeded its expansion budget"
      | exact_cost, _ ->
          gate
            (Printf.sprintf "exact <= A* <= 2 exact (%s)" oname)
            (sub_astar >= exact_cost -. 1e-6
            && sub_astar <= (2.0 *. exact_cost) +. 1e-6)
            (Printf.sprintf "exact %.2f, A* %.2f" exact_cost sub_astar));
      planner_rows :=
        [
          oname; fcell ~decimals:1 naive_cost; fcell ~decimals:1 lgm_cost;
          fcell ~decimals:1 astar.Abivm.Astar.cost;
          string_of_int astar.Abivm.Astar.stats.Abivm.Astar.expanded;
          String.concat " "
            (Array.to_list (Array.map string_of_int bounds));
        ]
        :: !planner_rows;
      planner_json :=
        Printf.sprintf
          "    { \"order\": %S, \"naive\": %.3f, \"lgm\": %.3f, \"astar\": \
           %.3f, \"astar_expanded\": %d, \"dijkstra_expanded\": %d, \
           \"batch_bounds\": [%s] }"
          oname naive_cost lgm_cost astar.Abivm.Astar.cost
          astar.Abivm.Astar.stats.Abivm.Astar.expanded
          dijkstra.Abivm.Astar.stats.Abivm.Astar.expanded
          (String.concat ", " (Array.to_list (Array.map string_of_int bounds)))
        :: !planner_json)
    [
      ("first-order", fo, limit);
      ("higher-order", ho, limit);
      ("higher-order tight C", ho, limit_for (costs_of ho));
    ];
  emit ~name:("ho_planner_" ^ name)
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Left ]
    ~header:
      [ "order"; "NAIVE"; "LGM(NAIVE)"; "A*"; "A* expanded"; "batch bounds K_i" ]
    (List.rev !planner_rows);
  (* -- acceptance gates on the engine curves -------------------------------- *)
  let k_small = List.nth sizes 0 and k_mid = List.nth sizes 1 in
  let speedup k = at k (get fo u0) /. at k (get ho u0) in
  gate "HO >= 2x FO on dR at small k"
    (speedup k_small >= 2.0 && speedup k_mid >= 2.0)
    (Printf.sprintf "k=%d: %.1fx, k=%d: %.1fx" k_small (speedup k_small) k_mid
       (speedup k_mid));
  gate "HO dS slope flatter than FO"
    (Cost.Fit.flatter (get ho u1) ~than:(get fo u1))
    (Printf.sprintf "%.2f vs %.2f" (slope (get ho u1)) (slope (get fo u1)));
  (* -- JSON ------------------------------------------------------------------ *)
  let curve_json stream table order curve =
    Printf.sprintf
      "    { \"stream\": %S, \"table\": %d, \"order\": %S, \"slope\": %.4f, \
       \"points\": [%s] }"
      stream table
      (Ivm.Viewdef.order_name order)
      (slope curve)
      (String.concat ", "
         (List.map (fun (k, c) -> Printf.sprintf "[%d, %.3f]" k c) curve))
  in
  let path = "BENCH_ho.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"grid\": %S,\n  %s,\n  \"r_rows\": %d,\n  \"s_rows\": %d,\n  \
     \"curves\": [\n%s\n  ],\n  \"planner\": [\n%s\n  ],\n  \"gates\": { \
     \"ho_speedup_dr_k%d\": %.3f, \"ho_speedup_dr_k%d\": %.3f, \
     \"ho_ds_flatter\": %b, \"failed\": [%s] }\n}\n"
    name (meta_json ()) r_rows s_rows
    (String.concat ",\n"
       (List.concat_map
          (fun (stream, t, cs) ->
            List.map (fun (o, c) -> curve_json stream t o c) cs)
          [
            ("uniform", 0, u0); ("uniform", 1, u1); ("zipf", 0, z0);
            ("zipf", 1, z1);
          ]))
    (String.concat ",\n" (List.rev !planner_json))
    k_small (speedup k_small) k_mid (speedup k_mid)
    (Cost.Fit.flatter (get ho u1) ~than:(get fo u1))
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "%S" s) !gate_failures));
  close_out oc;
  Printf.printf "(written to %s)\n" path;
  Printf.printf
    "headline: materializing d(V)/d(R) turns the dR batch from a scan of S \
     into hash probes — %.1fx cheaper at k=%d — while at k=%d the shared \
     scan catches back up (%.1fx); the planner sees the shift through \
     re-derived batch bounds, and A* with the DP heuristic stays \
     bit-identical to uniform-cost search on every instance\n"
    (speedup k_small) k_small
    (List.fold_left max 1 sizes)
    (let kmax = List.fold_left max 1 sizes in
     at kmax (get fo u0) /. at kmax (get ho u0));
  if !gate_failures <> [] then begin
    Printf.eprintf "ho bench: %d gate(s) failed: %s\n"
      (List.length !gate_failures)
      (String.concat "; " (List.rev !gate_failures));
    exit 1
  end

let run_ho () =
  run_ho_grid ~name:"reference" ~r_rows:400 ~s_rows:400
    ~sizes:[ 1; 8; 64; 256 ] ~horizon:14 ()

let run_ho_smoke () =
  run_ho_grid ~name:"smoke" ~r_rows:160 ~s_rows:160 ~sizes:[ 1; 8; 32 ]
    ~horizon:8 ()

(* --- heavy-light partitioning ---------------------------------------------- *)

(* Skew-aware maintenance on a Zipfian stream: each base relation splits
   into a heavy partition (hot join keys, eager indexed application) and a
   light partition (the tail, batched shared scans), each calibrated to its
   own metered f_i(k); every planner then works the doubled 2n-table spec
   unchanged.  The baseline is the skew-blind planner: same partitioned
   engine, same stream, but planned against one averaged curve per logical
   table, so every batch mixes hot and tail keys and pays the scan.
   Gates: the skew-aware planner's executed cost must beat the blind
   plan's, routing must be content-neutral (uniform and zipf), and the
   layered parallel Exact DP must agree with the sequential solver
   bit-for-bit. *)
let run_partition_grid ~name ~r_rows ~s_rows ~horizon ~sizes ~limit_factor
    ~rates ~exact_horizon () =
  section
    (Printf.sprintf
       "Heavy-light partitioning (%s grid; %dx%d rows, horizon %d) — \
        skew-aware per-partition planning vs single-curve baseline"
       name r_rows s_rows horizon);
  let exponent = 1.1 and seed_cal = 11 and seed_live = 13 in
  let r_rate, s_rate = rates in
  let names = [| "R"; "S" |] in
  (* R is small and indexed (probe-friendly), S is big and unindexed —
     every unpartitioned dR batch pays a full scan of S.  The partitioned
     deployment adds the heavy path's index on S's join column, so hot dR
     keys apply eagerly via probes and only the tail still scans. *)
  let mk ~indexed () =
    let db = Tpcr.Synth.generate ~seed:7 ~r_rows ~s_rows () in
    if indexed then Relation.Table.create_index db.Tpcr.Synth.s "jk";
    Relation.Meter.reset db.Tpcr.Synth.meter;
    db
  in
  let upto = 4 * List.fold_left max 1 sizes in
  let hull nm curve =
    Cost.Func.subadditive_hull ~upto (Bridge.Calibrate.tabulated ~name:nm curve)
  in
  (* -- split calibration: exact sketch over a stream sample ----------------- *)
  let splits =
    let db = mk ~indexed:true () in
    let view = Tpcr.Synth.join_view db in
    let key_of = Partition.Engine.key_of_view view in
    let feeds = Tpcr.Synth.zipf_feeds ~seed:seed_cal ~exponent db in
    Array.init 2 (fun i ->
        let sk = Partition.Sketch.create () in
        for _ = 1 to 1500 do
          match key_of i (feeds.Tpcr.Updates.next i) with
          | Some k -> Partition.Sketch.observe sk k
          | None -> ()
        done;
        Partition.Split.calibrate ~min_share:0.02 sk)
  in
  emit ~name:("partition_splits_" ^ name)
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right ]
    ~header:[ "table"; "heavy keys"; "coverage"; "threshold share" ]
    (List.init 2 (fun i ->
         [
           names.(i);
           string_of_int (Partition.Split.heavy_count splits.(i));
           fcell ~decimals:3 (Partition.Split.coverage splits.(i));
           fcell ~decimals:3 (Partition.Split.threshold splits.(i));
         ]));
  (* -- per-partition cost curves (engine with the heavy-path index) --------- *)
  let fresh_engine ~indexed () =
    let db = mk ~indexed () in
    let view = Tpcr.Synth.join_view db in
    let m = Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter view in
    let e =
      Partition.Engine.create
        ~key_of:(Partition.Engine.key_of_view view)
        ~splits m
    in
    (db, e)
  in
  let part_curves =
    let db, e = fresh_engine ~indexed:true () in
    let feeds = Tpcr.Synth.zipf_feeds ~seed:seed_cal ~exponent db in
    Array.init (Partition.Pspec.count ~n:2) (fun p ->
        let table, cls = Partition.Pspec.logical p in
        Partition.Calibrate.measure_curve e
          ~next:(fun () -> feeds.Tpcr.Updates.next table)
          ~table ~cls ~sizes)
  in
  let costs_part =
    Array.mapi
      (fun p curve -> hull (Partition.Pspec.label ~names p) curve)
      part_curves
  in
  (* -- skew-blind single-curve calibration on the same engine ---------------
     The blind planner sees one averaged curve per logical table: the
     metered cost of draining a FIFO batch of [k] arrivals through the
     partitioned engine (heavy fraction probing, light fraction scanning,
     in whatever mix the zipf stream delivers). *)
  let drain_logical e ~table =
    List.fold_left
      (fun acc cls ->
        let p = Partition.Pspec.index ~table cls in
        let k = Partition.Engine.pending_in e p in
        if k = 0 then acc
        else
          acc
          +. Relation.Meter.cost_units (Partition.Engine.process e ~partition:p k))
      0.0
      [ Partition.Split.Heavy; Partition.Split.Light ]
  in
  let blind_curves =
    let db, e = fresh_engine ~indexed:true () in
    let feeds = Tpcr.Synth.zipf_feeds ~seed:seed_cal ~exponent db in
    Array.init 2 (fun i ->
        List.map
          (fun k ->
            for _ = 1 to k do
              Partition.Engine.arrive e i (feeds.Tpcr.Updates.next i)
            done;
            (k, drain_logical e ~table:i))
          sizes)
  in
  let costs_blind =
    Array.mapi (fun i curve -> hull ("blind_" ^ names.(i)) curve) blind_curves
  in
  let at k c = List.assoc k c in
  emit ~name:("partition_curves_" ^ name)
    ~aligns:
      (Util.Tablefmt.Right
      :: List.map (fun _ -> Util.Tablefmt.Right) [ 1; 2; 3; 4; 5; 6 ])
    ~header:
      ("k"
      :: (List.init 4 (fun p -> Partition.Pspec.label ~names p)
         @ [ "R blind"; "S blind" ]))
    (List.map
       (fun k ->
         string_of_int k
         :: (List.init 4 (fun p -> fcell ~decimals:1 (at k part_curves.(p)))
            @ [
                fcell ~decimals:1 (at k blind_curves.(0));
                fcell ~decimals:1 (at k blind_curves.(1));
              ]))
       sizes);
  (* -- the shared stream and both specs ------------------------------------- *)
  let logical_arrivals =
    Array.init (horizon + 1) (fun _ -> [| r_rate; s_rate |])
  in
  let db_p, engine = fresh_engine ~indexed:true () in
  let stream =
    Partition.Runner.materialize
      ~feeds:(Tpcr.Synth.zipf_feeds ~seed:seed_live ~exponent db_p)
      ~arrivals:logical_arrivals
  in
  let parr = Partition.Runner.partitioned_arrivals engine stream in
  let limit =
    let worst costs =
      Array.fold_left (fun acc f -> Float.max acc (Cost.Func.eval f 1)) 0.0 costs
    in
    limit_factor *. Float.max (worst costs_blind) (worst costs_part)
  in
  let spec_blind =
    Abivm.Spec.make ~costs:costs_blind ~limit ~arrivals:logical_arrivals
  in
  let spec_part = Partition.Pspec.make ~costs:costs_part ~limit ~arrivals:parr in
  let sol_blind = Abivm.Astar.solve spec_blind in
  let sol_part = Abivm.Astar.solve spec_part in
  (* -- execute both plans on the bit-identical stream and engine ------------ *)
  let part_exec =
    Partition.Runner.run engine stream ~spec:spec_part ~plan:sol_part.Abivm.Astar.plan
  in
  (* The blind plan's logical batch [k_i] drains the first [k_i] arrivals
     of table [i] in FIFO order; per-partition queues preserve that order,
     so the batch is exactly (heavy count, light count) of that prefix. *)
  let blind_cost, blind_batches =
    let _, e = fresh_engine ~indexed:true () in
    let fifo = Array.init 2 (fun _ -> Queue.create ()) in
    let cost = ref 0.0 and batches = ref 0 in
    Array.iteri
      (fun t step ->
        List.iter
          (fun (i, change) ->
            Partition.Engine.arrive e i change;
            Queue.push (Partition.Engine.classify e i change) fifo.(i))
          step;
        match Abivm.Plan.action_at sol_blind.Abivm.Astar.plan t with
        | None -> ()
        | Some action ->
            Array.iteri
              (fun i k ->
                if k > 0 then begin
                  let heavy = ref 0 and light = ref 0 in
                  for _ = 1 to k do
                    match Queue.pop fifo.(i) with
                    | Partition.Split.Heavy -> incr heavy
                    | Partition.Split.Light -> incr light
                  done;
                  List.iter
                    (fun (cls, kp) ->
                      if kp > 0 then begin
                        let p = Partition.Pspec.index ~table:i cls in
                        cost :=
                          !cost
                          +. Relation.Meter.cost_units
                               (Partition.Engine.process e ~partition:p kp);
                        incr batches
                      end)
                    [
                      (Partition.Split.Heavy, !heavy);
                      (Partition.Split.Light, !light);
                    ]
                end)
              action)
      stream;
    if Array.exists (fun q -> Partition.Engine.pending_in e q > 0)
         (Array.init 4 Fun.id)
    then invalid_arg "partition bench: blind plan left modifications queued";
    ignore (Partition.Engine.rows e);
    (!cost, !batches)
  in
  let gate_failures = ref [] in
  let gate what ok detail =
    Printf.printf "gate %-38s %s  (%s)\n" what (if ok then "PASS" else "FAIL")
      detail;
    if not ok then gate_failures := what :: !gate_failures
  in
  emit ~name:("partition_planner_" ^ name)
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "planner"; "tables"; "plan cost"; "executed"; "batches" ]
    [
      [
        "skew-blind"; "2"; fcell ~decimals:1 sol_blind.Abivm.Astar.cost;
        fcell ~decimals:1 blind_cost; string_of_int blind_batches;
      ];
      [
        "skew-aware"; "4"; fcell ~decimals:1 sol_part.Abivm.Astar.cost;
        fcell ~decimals:1 part_exec.Partition.Runner.cost_units;
        string_of_int part_exec.Partition.Runner.batches;
      ];
    ];
  let win = blind_cost /. part_exec.Partition.Runner.cost_units in
  gate "skew-aware executed-cost win"
    (part_exec.Partition.Runner.cost_units < blind_cost)
    (Printf.sprintf "%.1f vs %.1f units (%.2fx)"
       part_exec.Partition.Runner.cost_units blind_cost win);
  let zipf_identical =
    let db_c = mk ~indexed:false () in
    let m_c =
      Ivm.Maintainer.create ~meter:db_c.Tpcr.Synth.meter
        (Tpcr.Synth.join_view db_c)
    in
    Array.iter
      (List.iter (fun (i, change) -> Ivm.Maintainer.on_arrive m_c i change))
      stream;
    ignore (Ivm.Maintainer.refresh m_c);
    List.equal Relation.Tuple.equal
      (Partition.Engine.rows engine)
      (Ivm.Maintainer.rows m_c)
  in
  gate "zipf run view contents identical" zipf_identical
    "partitioned vs unpartitioned engine after the full stream";
  (* -- uniform-key bit-identity --------------------------------------------- *)
  let uniform_identical =
    let db_u = mk ~indexed:false () in
    let m_u =
      Ivm.Maintainer.create ~meter:db_u.Tpcr.Synth.meter
        (Tpcr.Synth.join_view db_u)
    in
    let _, e_u = fresh_engine ~indexed:true () in
    let u_arrivals = Array.init 9 (fun _ -> [| 3; 3 |]) in
    let u_stream =
      Partition.Runner.materialize
        ~feeds:(Tpcr.Synth.insert_feeds ~seed:seed_live db_u)
        ~arrivals:u_arrivals
    in
    Array.for_all
      (fun step ->
        List.iter
          (fun (i, change) ->
            Ivm.Maintainer.on_arrive m_u i change;
            Partition.Engine.arrive e_u i change)
          step;
        ignore (Ivm.Maintainer.refresh m_u);
        ignore (Partition.Engine.refresh e_u);
        List.equal Relation.Tuple.equal (Ivm.Maintainer.rows m_u)
          (Partition.Engine.rows e_u))
      u_stream
    && Result.is_ok (Partition.Engine.check_consistent e_u)
  in
  gate "uniform-key routing bit-identical" uniform_identical
    "per-step view contents, partitioned vs unpartitioned";
  (* -- parallel Exact DP cross-check on the partitioned spec ----------------
     A thin head of the partitioned instance (arrivals capped at 1) keeps
     the full 2n-table state space inside the DP's expansion budget; the
     gate is about solver agreement, not workload scale. *)
  let spec_small =
    Partition.Pspec.make ~costs:costs_part ~limit
      ~arrivals:
        (Array.init (exact_horizon + 1) (fun t ->
             Array.map (fun k -> min k 1) parr.(t)))
  in
  let domains = List.sort_uniq compare (1 :: !bench_domains) in
  let exact_results =
    List.map
      (fun d ->
        match Abivm.Exact.solve ~max_expansions:4_000_000 ~domains:d spec_small with
        | cost, plan -> Some (d, cost, plan)
        | exception Abivm.Exact.Too_large _ -> None)
      domains
  in
  (match exact_results with
  | Some (_, c1, p1) :: rest when List.for_all Option.is_some rest ->
      let agree =
        List.for_all
          (fun r ->
            match r with
            | Some (_, c, p) ->
                Int64.bits_of_float c = Int64.bits_of_float c1
                && Abivm.Plan.actions p = Abivm.Plan.actions p1
            | None -> false)
          rest
      in
      gate
        (Printf.sprintf "parallel Exact bit-identical (domains %s)"
           (String.concat "," (List.map string_of_int domains)))
        agree
        (Printf.sprintf "cost %.2f at horizon %d" c1 exact_horizon);
      let sub_astar = (Abivm.Astar.solve spec_small).Abivm.Astar.cost in
      gate "exact <= A* <= 2 exact (partitioned)"
        (sub_astar >= c1 -. 1e-6 && sub_astar <= (2.0 *. c1) +. 1e-6)
        (Printf.sprintf "exact %.2f, A* %.2f" c1 sub_astar)
  | _ ->
      gate "parallel Exact bit-identical" false
        "exact solver exceeded its expansion budget");
  (* -- JSON ------------------------------------------------------------------ *)
  let curve_json label points =
    Printf.sprintf "    { \"partition\": %S, \"points\": [%s] }" label
      (String.concat ", "
         (List.map (fun (k, c) -> Printf.sprintf "[%d, %.3f]" k c) points))
  in
  let path = "BENCH_partition.json" in
  let oc = open_out path in
  Printf.fprintf oc
    "{\n  \"grid\": %S,\n  %s,\n  \"r_rows\": %d,\n  \"s_rows\": %d,\n  \
     \"horizon\": %d,\n  \"exponent\": %.2f,\n  \"splits\": [\n%s\n  ],\n  \
     \"curves\": [\n%s\n  ],\n  \"planner\": { \"blind_plan\": %.3f, \
     \"blind_executed\": %.3f, \"part_plan\": %.3f, \"part_executed\": %.3f, \
     \"win\": %.4f },\n  \"gates\": { \"skew_win\": %b, \
     \"uniform_bit_identical\": %b, \"failed\": [%s] }\n}\n"
    name (meta_json ()) r_rows s_rows horizon exponent
    (String.concat ",\n"
       (List.init 2 (fun i ->
            Printf.sprintf
              "    { \"table\": %S, \"heavy_keys\": %d, \"coverage\": %.4f, \
               \"threshold\": %.4f }"
              names.(i)
              (Partition.Split.heavy_count splits.(i))
              (Partition.Split.coverage splits.(i))
              (Partition.Split.threshold splits.(i)))))
    (String.concat ",\n"
       (List.concat
          [
            Array.to_list
              (Array.mapi
                 (fun p c -> curve_json (Partition.Pspec.label ~names p) c)
                 part_curves);
            Array.to_list
              (Array.mapi
                 (fun i c -> curve_json ("blind_" ^ names.(i)) c)
                 blind_curves);
          ]))
    sol_blind.Abivm.Astar.cost blind_cost sol_part.Abivm.Astar.cost
    part_exec.Partition.Runner.cost_units win
    (part_exec.Partition.Runner.cost_units < blind_cost)
    uniform_identical
    (String.concat ", "
       (List.map (fun s -> Printf.sprintf "%S" s) !gate_failures));
  close_out oc;
  Printf.printf "(written to %s)\n" path;
  Printf.printf
    "headline: splitting each relation by key frequency gives the planner \
     honest per-partition curves — hot keys flush eagerly through the \
     index, the tail amortizes into shared scans — beating the \
     single-curve deployment by %.2fx executed on the same Zipfian stream\n"
    win;
  if !gate_failures <> [] then begin
    Printf.eprintf "partition bench: %d gate(s) failed: %s\n"
      (List.length !gate_failures)
      (String.concat "; " (List.rev !gate_failures));
    exit 1
  end

let run_partition () =
  run_partition_grid ~name:"reference" ~r_rows:120 ~s_rows:700 ~horizon:30
    ~sizes:[ 1; 2; 4; 8; 16; 32 ] ~limit_factor:1.45 ~rates:(4, 8)
    ~exact_horizon:6 ()

let run_partition_smoke () =
  run_partition_grid ~name:"smoke" ~r_rows:100 ~s_rows:500 ~horizon:20
    ~sizes:[ 1; 4; 16 ] ~limit_factor:1.45 ~rates:(4, 8) ~exact_horizon:5 ()

let sections =
  [
    ("fig1", run_fig1);
    ("intro", run_intro);
    ("fig4", run_fig4);
    ("fig5", run_fig5);
    ("fig6", run_fig6);
    ("fig7", run_fig7);
    ("tightness", run_tightness);
    ("ablation", run_ablation);
    ("opflow", run_opflow);
    ("conjectures", run_conjectures);
    ("multiview", run_multiview);
    ("multiview-par", run_multiview_par);
    ("multiview-par-smoke", run_multiview_par_smoke);
    ("astar", run_astar);
    ("astar-smoke", run_astar_smoke);
    ("robust", run_robust);
    ("robust-smoke", run_robust_smoke);
    ("durable", run_durable);
    ("durable-smoke", run_durable_smoke);
    ("columnar", run_columnar);
    ("columnar-smoke", run_columnar_smoke);
    ("serve", run_serve);
    ("serve-smoke", run_serve_smoke);
    ("serve-io", run_serveio);
    ("serve-io-smoke", run_serveio_smoke);
    ("ho", run_ho);
    ("ho-smoke", run_ho_smoke);
    ("partition", run_partition);
    ("partition-smoke", run_partition_smoke);
    ("micro", run_micro);
  ]

let () =
  let args =
    match Array.to_list Sys.argv with _ :: rest -> rest | [] -> []
  in
  let trace = ref None and metrics = ref false in
  let rec strip_flags = function
    | "--csv" :: dir :: rest ->
        if not (Sys.file_exists dir && Sys.is_directory dir) then begin
          Printf.eprintf "--csv: %s is not a directory\n" dir;
          exit 1
        end;
        csv_dir := Some dir;
        strip_flags rest
    | "--trace" :: path :: rest ->
        trace := Some path;
        strip_flags rest
    | "--metrics" :: rest ->
        metrics := true;
        strip_flags rest
    | "--domains" :: spec :: rest ->
        let parsed =
          try
            List.map
              (fun s ->
                let d = int_of_string (String.trim s) in
                if d < 1 then failwith "domain counts must be >= 1";
                d)
              (String.split_on_char ',' spec)
          with _ ->
            Printf.eprintf
              "--domains: expected a comma-separated list of positive ints \
               (e.g. 1,2,4), got %S\n"
              spec;
            exit 1
        in
        if parsed = [] then begin
          Printf.eprintf "--domains: empty list\n";
          exit 1
        end;
        bench_domains := parsed;
        strip_flags rest
    | section :: rest -> section :: strip_flags rest
    | [] -> []
  in
  let args = strip_flags args in
  if !trace <> None || !metrics then begin
    let sinks =
      match !trace with
      | Some path -> [ Telemetry.Sink.jsonl_file path ]
      | None -> []
    in
    Telemetry.enable ~sinks ()
  end;
  let requested =
    if args <> [] then args
    else
      (* The smoke grids are CI alias targets; running them after the
         reference grids would overwrite BENCH_*.json with toy data. *)
      List.filter
        (fun s ->
          s <> "astar-smoke" && s <> "robust-smoke" && s <> "durable-smoke"
          && s <> "multiview-par-smoke" && s <> "columnar-smoke"
          && s <> "ho-smoke" && s <> "partition-smoke"
          && s <> "serve-io-smoke")
        (List.map fst sections)
  in
  List.iter
    (fun name ->
      match List.assoc_opt name sections with
      | Some f -> f ()
      | None ->
          Printf.eprintf "unknown section %S; available: %s\n" name
            (String.concat " " (List.map fst sections));
          exit 1)
    requested;
  if Telemetry.enabled () then begin
    if !metrics then begin
      match Telemetry.snapshot () with
      | [] -> ()
      | snap ->
          Printf.printf "\nmetrics:\n%s" (Telemetry.Metrics.to_table snap)
    end;
    Telemetry.disable ()
  end
