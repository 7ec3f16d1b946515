(* abivm — command-line front-end for the asymmetric batch IVM planner.

   Subcommands:
     simulate   compare maintenance strategies on an analytic instance
     astar      solve one instance with the A* planner and print search stats
     calibrate  measure TPC-R maintenance cost curves from the engine
     run        calibrate, simulate all strategies, execute one (Fig. 5)
     robust     inject drift into an instance, compare static ADAPT vs the
                monitored replanner vs ONLINE
     durable    crash-recoverable execution: WAL + checkpoints
                (run / recover / verify)
     serve      multi-tenant maintenance service (run / recover)
     partition  heavy-light skew partitioning: skew-aware per-partition
                planning vs a skew-blind single-curve plan *)

open Cmdliner

let strategies_doc = "NAIVE, OPT-LGM, ADAPT, ONLINE"

(* --- converters ------------------------------------------------------------ *)

let cost_conv =
  let parse text =
    match Cost.Func.of_string text with
    | Ok f -> Ok f
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt f -> Format.pp_print_string fmt (Cost.Func.name f))

let stream_conv =
  let parse text =
    match Workload.Arrivals.stream_of_string text with
    | Ok s -> Ok s
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv (parse, fun fmt _ -> Format.pp_print_string fmt "<stream>")

let strategy_conv =
  let parse text =
    match Abivm.Strategy.of_string text with
    | Ok s -> Ok s
    | Error msg -> Error (`Msg msg)
  in
  Arg.conv
    ( parse,
      fun fmt s -> Format.pp_print_string fmt (Abivm.Strategy.to_string s) )

(* --- telemetry flags -------------------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.jsonl"
        ~doc:
          "Write a telemetry trace: one JSON object per finished span, plus \
           a final metrics snapshot line.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the full metrics table when the command finishes.")

let print_metrics () =
  match Telemetry.snapshot () with
  | [] -> ()
  | snap -> Printf.printf "\nmetrics:\n%s" (Telemetry.Metrics.to_table snap)

(* Run [f] with the telemetry collector configured from --trace/--metrics.
   [always] keeps the collector on even without flags (the [run] subcommand
   needs per-action counters for its comparison table).  [f] returns a
   cmdliner [ret] value, so a --trace file that cannot be opened becomes a
   usage error rather than an uncaught [Sys_error]. *)
let with_telemetry ?(always = false) ~trace ~metrics f =
  match Option.map Telemetry.Sink.jsonl_file trace with
  | exception Sys_error e -> `Error (false, "--trace: " ^ e)
  | sink ->
      let sinks = Option.to_list sink in
      if (not always) && sinks = [] && not metrics then f ()
      else begin
        Telemetry.enable ~sinks ();
        Fun.protect
          ~finally:(fun () ->
            if metrics then print_metrics ();
            Telemetry.disable ())
          f
      end

(* --- simulate --------------------------------------------------------------- *)

let print_reports spec reports =
  Util.Tablefmt.print
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Left ]
    ~header:[ "strategy"; "total cost"; "cost/mod"; "actions"; "valid" ]
    (List.map
       (fun (r : Abivm.Report.t) ->
         [
           Abivm.Report.label r;
           Util.Tablefmt.float_cell r.total_cost;
           Util.Tablefmt.float_cell ~decimals:4
             (Abivm.Report.cost_per_modification spec r);
           string_of_int r.actions;
           string_of_bool r.valid;
         ])
       reports)

let simulate costs limit horizon streams seed adapt_t0 show_plans trace metrics =
  if costs = [] then `Error (false, "at least one --cost is required")
  else if List.length streams <> List.length costs then
    `Error (false, "need exactly one --stream per --cost")
  else begin
    with_telemetry ~trace ~metrics (fun () ->
        let arrivals =
          Workload.Arrivals.generate ~seed ~horizon (Array.of_list streams)
        in
        let spec =
          Abivm.Spec.make ~costs:(Array.of_list costs) ~limit ~arrivals
        in
        let reports = Abivm.Simulate.all ?adapt_t0 spec in
        print_reports spec reports;
        if show_plans then
          List.iter
            (fun (r : Abivm.Report.t) ->
              Printf.printf "\n%s plan:\n%s" (Abivm.Report.label r)
                (Abivm.Visualize.timeline spec r.plan))
            reports;
        `Ok ())
  end

let simulate_cmd =
  let costs =
    Arg.(
      value
      & opt_all cost_conv []
      & info [ "cost" ] ~docv:"FUNC"
          ~doc:
            "Per-table cost function (repeatable): linear:A, affine:A,B, \
             sqrt:A,B, log:A,B, blocked:C,B, plateau:A,CAP, step:EPS,C.")
  in
  let limit =
    Arg.(
      required
      & opt (some float) None
      & info [ "limit"; "C" ] ~docv:"COST"
          ~doc:"Response-time constraint $(docv).")
  in
  let horizon =
    Arg.(
      value & opt int 500
      & info [ "horizon"; "T" ] ~docv:"T" ~doc:"Refresh time (default 500).")
  in
  let streams =
    Arg.(
      value
      & opt_all stream_conv []
      & info [ "stream" ] ~docv:"STREAM"
          ~doc:
            "Per-table arrival stream (repeatable): constant:N, \
             burst:P,MU,SIGMA, poisson:M, onoff:ON,OFF,RATE, or ss/su/fs/fu.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let adapt_t0 =
    Arg.(
      value
      & opt (some int) None
      & info [ "adapt-t0" ] ~docv:"T0"
          ~doc:"Refresh-time estimate used by ADAPT (default T/2).")
  in
  let show_plans =
    Arg.(value & flag & info [ "plans" ] ~doc:"Also print each plan's actions.")
  in
  let doc = "compare " ^ strategies_doc ^ " on an analytic problem instance" in
  Cmd.v
    (Cmd.info "simulate" ~doc)
    Term.(
      ret
        (const simulate $ costs $ limit $ horizon $ streams $ seed $ adapt_t0
       $ show_plans $ trace_arg $ metrics_arg))

(* --- astar ------------------------------------------------------------------- *)

let astar costs limit horizon streams seed no_heuristic show_plan trace
    metrics =
  if costs = [] then `Error (false, "at least one --cost is required")
  else if List.length streams <> List.length costs then
    `Error (false, "need exactly one --stream per --cost")
  else begin
    with_telemetry ~trace ~metrics (fun () ->
        let arrivals =
          Workload.Arrivals.generate ~seed ~horizon (Array.of_list streams)
        in
        let spec =
          Abivm.Spec.make ~costs:(Array.of_list costs) ~limit ~arrivals
        in
        let r = Abivm.Astar.solve ~use_heuristic:(not no_heuristic) spec in
        let s = r.Abivm.Astar.stats in
        Printf.printf "cost %g (%d actions)\n" r.Abivm.Astar.cost
          (List.length (Abivm.Plan.actions r.Abivm.Astar.plan));
        Util.Tablefmt.print
          ~aligns:(List.init 7 (fun _ -> Util.Tablefmt.Right))
          ~header:
            [ "expanded"; "generated"; "reopened"; "pruned"; "queue peak";
              "live nodes"; "heuristic" ]
          [
            [
              string_of_int s.Abivm.Astar.expanded;
              string_of_int s.Abivm.Astar.generated;
              string_of_int s.Abivm.Astar.reopened;
              string_of_int s.Abivm.Astar.pruned;
              string_of_int s.Abivm.Astar.max_queue;
              string_of_int s.Abivm.Astar.max_live;
              (if no_heuristic then "off (Dijkstra)" else "on");
            ];
          ];
        if show_plan then
          Printf.printf "\n%s"
            (Abivm.Visualize.timeline spec r.Abivm.Astar.plan);
        `Ok ())
  end

let astar_cmd =
  let costs =
    Arg.(
      value
      & opt_all cost_conv []
      & info [ "cost" ] ~docv:"FUNC"
          ~doc:
            "Per-table cost function (repeatable): linear:A, affine:A,B, \
             sqrt:A,B, log:A,B, blocked:C,B, plateau:A,CAP, step:EPS,C.")
  in
  let limit =
    Arg.(
      required
      & opt (some float) None
      & info [ "limit"; "C" ] ~docv:"COST"
          ~doc:"Response-time constraint $(docv).")
  in
  let horizon =
    Arg.(
      value & opt int 500
      & info [ "horizon"; "T" ] ~docv:"T" ~doc:"Refresh time (default 500).")
  in
  let streams =
    Arg.(
      value
      & opt_all stream_conv []
      & info [ "stream" ] ~docv:"STREAM"
          ~doc:
            "Per-table arrival stream (repeatable): constant:N, \
             burst:P,MU,SIGMA, poisson:M, onoff:ON,OFF,RATE, or ss/su/fs/fu.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let no_heuristic =
    Arg.(
      value & flag
      & info [ "no-heuristic" ]
          ~doc:"Disable the admissible heuristic (plain Dijkstra).")
  in
  let show_plan =
    Arg.(value & flag & info [ "plan" ] ~doc:"Also print the optimal plan.")
  in
  Cmd.v
    (Cmd.info "astar"
       ~doc:
         "solve one analytic instance with the A* planner and print \
          search-engine statistics")
    Term.(
      ret
        (const astar $ costs $ limit $ horizon $ streams $ seed $ no_heuristic
       $ show_plan $ trace_arg $ metrics_arg))

(* --- calibrate --------------------------------------------------------------- *)

let calibrate scale seed sizes =
  let db = Tpcr.Gen.generate ~seed ~scale () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter
      (Tpcr.Gen.min_supplycost_view db)
  in
  Relation.Meter.reset db.Tpcr.Gen.meter;
  let feeds = Tpcr.Updates.paper_feeds ~seed:(seed + 1) db in
  let ps = Bridge.Calibrate.measure_curve m feeds ~table:0 ~sizes in
  let s = Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes in
  Util.Tablefmt.print
    ~aligns:[ Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "batch"; "partsupp cost"; "supplier cost" ]
    (List.map2
       (fun (k, cp) (_, cs) ->
         [ string_of_int k; Util.Tablefmt.float_cell cp; Util.Tablefmt.float_cell cs ])
       ps s);
  let _, fit_ps = Bridge.Calibrate.fitted ~name:"ps" ps in
  let _, fit_s = Bridge.Calibrate.fitted ~name:"s" s in
  Printf.printf "fits: partsupp affine:%.4g,%.4g | supplier affine:%.4g,%.4g\n"
    fit_ps.Cost.Fit.a fit_ps.Cost.Fit.b fit_s.Cost.Fit.a fit_s.Cost.Fit.b

let calibrate_cmd =
  let scale =
    Arg.(
      value & opt float 0.01
      & info [ "scale" ] ~docv:"SF" ~doc:"TPC-R scale factor (default 0.01).")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.") in
  let sizes =
    Arg.(
      value
      & opt (list int) [ 1; 5; 10; 20; 50; 100; 200 ]
      & info [ "sizes" ] ~docv:"K,K,..." ~doc:"Batch sizes to measure.")
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"measure TPC-R maintenance cost curves from the live engine")
    Term.(const calibrate $ scale $ seed $ sizes)

(* --- TPC-R setup for run ----------------------------------------------------- *)

(* Calibrate the two maintained tables' cost curves from a live engine and
   build the planning spec [run] uses. *)
let tpcr_spec ~scale ~seed ~horizon =
  let db = Tpcr.Gen.generate ~seed ~scale () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter
      (Tpcr.Gen.min_supplycost_view db)
  in
  Relation.Meter.reset db.Tpcr.Gen.meter;
  let feeds = Tpcr.Updates.paper_feeds ~seed:(seed + 1) db in
  let sizes = [ 1; 5; 10; 20; 50; 100; 200 ] in
  let f_ps =
    Bridge.Calibrate.tabulated ~name:"c_dPartSupp"
      (Bridge.Calibrate.measure_curve m feeds ~table:0 ~sizes)
  in
  let f_s =
    Bridge.Calibrate.tabulated ~name:"c_dSupplier"
      (Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes)
  in
  let limit = 2.0 *. Cost.Func.eval f_ps 1 in
  let untouched = Cost.Func.linear ~a:1.0 in
  Abivm.Spec.make
    ~costs:[| f_ps; f_s; untouched; untouched |]
    ~limit
    ~arrivals:(Array.init (horizon + 1) (fun _ -> [| 1; 1; 0; 0 |]))

(* Fresh engine + feeds for an executed run (separate from the calibration
   engine so measured costs are not polluted by calibration batches). *)
let tpcr_engine ~scale ~seed =
  let db = Tpcr.Gen.generate ~seed ~scale () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter
      (Tpcr.Gen.min_supplycost_view db)
  in
  Relation.Meter.reset db.Tpcr.Gen.meter;
  (m, Tpcr.Updates.paper_feeds ~seed:(seed + 1) db)

(* --- run --------------------------------------------------------------------- *)

let run_exec scale horizon seed strategy trace metrics =
  (* Per-action simulated-vs-executed comparison needs the collector even
     without --trace/--metrics. *)
  with_telemetry ~always:true ~trace ~metrics (fun () ->
      Printf.printf "Generating TPC-R database (scale %.3f)...\n%!" scale;
      Printf.printf "Calibrating cost functions...\n%!";
      let spec = tpcr_spec ~scale ~seed ~horizon in
      Printf.printf "Constraint C = %.0f cost units; horizon T = %d\n\n%!"
        (Abivm.Spec.limit spec) horizon;
      let reports = Abivm.Simulate.all spec in
      print_reports spec reports;
      Printf.printf "\nExecuting the %s plan against the engine...\n%!"
        (Abivm.Strategy.label strategy);
      let plan = (Abivm.Simulate.run strategy spec).Abivm.Report.plan in
      let m, feeds = tpcr_engine ~scale ~seed:(seed + 100) in
      let report =
        Bridge.Runner.run_plan ~strategy
          (Bridge.Runner.engine ~maintainer:m ~feeds)
          spec plan
      in
      let executed = Bridge.Runner.action_costs report in
      let simulated = Bridge.Runner.simulated_action_costs report in
      Util.Tablefmt.print
        ~aligns:
          [ Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Right;
            Util.Tablefmt.Right ]
        ~header:[ "t"; "simulated"; "executed"; "exec/sim" ]
        (List.map2
           (fun (t, sim) (_, exec) ->
             [
               string_of_int t;
               Util.Tablefmt.float_cell sim;
               Util.Tablefmt.float_cell exec;
               (if sim > 0.0 then
                  Util.Tablefmt.float_cell ~decimals:3 (exec /. sim)
                else "-");
             ])
           simulated executed);
      Printf.printf
        "\ntotal: executed %.0f cost units, simulated %.0f; view consistent: \
         %b; wall %.2fs\n"
        (Option.value ~default:0.0 report.Abivm.Report.cost_units)
        report.Abivm.Report.total_cost report.Abivm.Report.valid
        (Option.value ~default:0.0 report.Abivm.Report.wall_seconds);
      `Ok ())

let run_cmd =
  let scale =
    Arg.(
      value & opt float 0.02
      & info [ "scale" ] ~docv:"SF" ~doc:"TPC-R scale factor (default 0.02).")
  in
  let horizon =
    Arg.(
      value & opt int 300
      & info [ "horizon"; "T" ] ~docv:"T" ~doc:"Refresh time (default 300).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let strategy =
    Arg.(
      value
      & opt strategy_conv (Abivm.Strategy.Online None)
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Strategy to execute: naive, opt-lgm, adapt:T0, \
             online[:ewma:A|:ewma-sd:A,Z|:window:K|:oracle].")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "calibrate, simulate all strategies, then execute one against the \
          engine and compare simulated vs measured per-action cost (Fig. 5)")
    Term.(
      ret
        (const run_exec $ scale $ horizon $ seed $ strategy $ trace_arg
       $ metrics_arg))

(* --- robust ------------------------------------------------------------------- *)

let robust costs limit horizon streams seed adapt_t0 shift_at rate_factor
    cost_factor trace metrics =
  if costs = [] then `Error (false, "at least one --cost is required")
  else if List.length streams <> List.length costs then
    `Error (false, "need exactly one --stream per --cost")
  else begin
    with_telemetry ~trace ~metrics (fun () ->
        let arrivals =
          Workload.Arrivals.generate ~seed ~horizon (Array.of_list streams)
        in
        let model =
          Abivm.Spec.make ~costs:(Array.of_list costs) ~limit ~arrivals
        in
        let t0 =
          match adapt_t0 with Some t0 -> t0 | None -> (horizon + 1) / 2
        in
        let sc =
          Robust.Inject.drifted ?shift_at ~rate_factor ~cost_factor model
        in
        let actual = sc.Robust.Inject.actual in
        Printf.printf "scenario: %s; C = %g; T = %d; T0 = %d\n"
          sc.Robust.Inject.label limit horizon t0;
        let static = Robust.Replan.static_adapt ~model ~actual ~t0 in
        let static_cost = Abivm.Plan.cost actual static.Abivm.Adapt.plan in
        let re = Robust.Replan.run ~model ~actual ~t0 () in
        let online_cost = Abivm.Plan.cost actual (Abivm.Online.plan actual) in
        Util.Tablefmt.print
          ~aligns:
            [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
              Util.Tablefmt.Right ]
          ~header:[ "executor"; "total cost"; "rescues"; "replans" ]
          [
            [ "ADAPT (static schedule)"; Util.Tablefmt.float_cell static_cost;
              string_of_int static.Abivm.Adapt.rescues; "0" ];
            [ "ADAPT (monitored replanner)";
              Util.Tablefmt.float_cell re.Robust.Replan.cost;
              string_of_int re.Robust.Replan.rescues;
              string_of_int re.Robust.Replan.replans ];
            [ "ONLINE (true costs)"; Util.Tablefmt.float_cell online_cost;
              "-"; "-" ];
          ];
        Printf.printf "peak drift score %.2f\n" re.Robust.Replan.drift_peak;
        `Ok ())
  end

let robust_cmd =
  let costs =
    Arg.(
      value
      & opt_all cost_conv []
      & info [ "cost" ] ~docv:"FUNC"
          ~doc:
            "Model (calibrated) per-table cost function (repeatable): \
             linear:A, affine:A,B, sqrt:A,B, log:A,B, blocked:C,B, \
             plateau:A,CAP, step:EPS,C.")
  in
  let limit =
    Arg.(
      required
      & opt (some float) None
      & info [ "limit"; "C" ] ~docv:"COST"
          ~doc:"Response-time constraint $(docv).")
  in
  let horizon =
    Arg.(
      value & opt int 500
      & info [ "horizon"; "T" ] ~docv:"T" ~doc:"Refresh time (default 500).")
  in
  let streams =
    Arg.(
      value
      & opt_all stream_conv []
      & info [ "stream" ] ~docv:"STREAM"
          ~doc:
            "Per-table arrival stream the planner calibrated against \
             (repeatable): constant:N, burst:P,MU,SIGMA, poisson:M, \
             onoff:ON,OFF,RATE, or ss/su/fs/fu.")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let adapt_t0 =
    Arg.(
      value
      & opt (some int) None
      & info [ "adapt-t0" ] ~docv:"T0"
          ~doc:"Refresh-time estimate used by ADAPT (default T/2).")
  in
  let shift_at =
    Arg.(
      value
      & opt (some int) None
      & info [ "shift-at" ] ~docv:"T"
          ~doc:"Step the arrival-rate shift kicks in (default mid-horizon).")
  in
  let rate_factor =
    Arg.(
      value & opt float 2.0
      & info [ "rate-factor" ] ~docv:"X"
          ~doc:"Arrival-rate multiplier after the shift (default 2).")
  in
  let cost_factor =
    Arg.(
      value & opt float 2.0
      & info [ "cost-factor" ] ~docv:"X"
          ~doc:
            "True cost as a multiple of the calibrated model (default 2).")
  in
  Cmd.v
    (Cmd.info "robust"
       ~doc:
         "inject drift (rate shift + cost misestimation) into an analytic \
          instance and compare static ADAPT, the monitored replanner, and \
          ONLINE")
    Term.(
      ret
        (const robust $ costs $ limit $ horizon $ streams $ seed $ adapt_t0
       $ shift_at $ rate_factor $ cost_factor $ trace_arg $ metrics_arg))

(* --- durable ------------------------------------------------------------------ *)

(* A deterministic synthetic scenario, fully described by the parameters
   the manifest stores — so `durable recover`/`verify` need nothing but
   --dir to rebuild the environment the original `durable run` used. *)
let durable_params ~seed ~rows ~horizon ~limit ~streams =
  [
    ("seed", string_of_int seed);
    ("rows", string_of_int rows);
    ("horizon", string_of_int horizon);
    ("limit", Printf.sprintf "%h" limit);
    ("streams", String.concat ";" streams);
  ]

let durable_env_of_params params =
  let find key =
    match List.assoc_opt key params with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "manifest params missing %S" key)
  in
  let int_param key =
    Result.bind (find key) (fun v ->
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "bad %s parameter %S" key v))
  in
  let ( let* ) = Result.bind in
  let* seed = int_param "seed" in
  let* rows = int_param "rows" in
  let* horizon = int_param "horizon" in
  let* limit =
    Result.bind (find "limit") (fun v ->
        match float_of_string_opt v with
        | Some f -> Ok f
        | None -> Error (Printf.sprintf "bad limit parameter %S" v))
  in
  let* stream_texts =
    Result.map (String.split_on_char ';') (find "streams")
  in
  let* streams =
    List.fold_left
      (fun acc text ->
        let* acc = acc in
        let* s = Workload.Arrivals.stream_of_string text in
        Ok (s :: acc))
      (Ok []) stream_texts
    |> Result.map List.rev
  in
  if List.length streams <> 2 then
    Error "durable scenario needs exactly two streams (tables r and s)"
  else begin
    let arrivals =
      Workload.Arrivals.generate ~seed:(seed + 2) ~horizon
        (Array.of_list streams)
    in
    let costs =
      [| Cost.Func.affine ~a:1.0 ~b:5.0; Cost.Func.affine ~a:1.0 ~b:5.0 |]
    in
    let spec = Abivm.Spec.make ~costs ~limit ~arrivals in
    let plan = Abivm.Online.plan spec in
    let fresh () =
      let db = Tpcr.Synth.generate ~seed ~r_rows:rows ~s_rows:rows () in
      let m =
        Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter
          (Tpcr.Synth.join_view db)
      in
      Relation.Meter.reset db.Tpcr.Synth.meter;
      (m, Tpcr.Synth.insert_feeds ~seed:(seed + 1) db)
    in
    let view_of tables =
      Ivm.Viewdef.make ~name:"r_join_s" ~tables
        ~join:
          [ { Ivm.Viewdef.left = 0; left_col = "jk"; right = 1;
              right_col = "jk" } ]
        ~aggs:[ Relation.Agg.count "pairs" ]
        ()
    in
    Ok { Durable.Exec.fresh; view_of; spec; plan; params }
  end

let durable_env_of_dir dir =
  match Durable.Manifest.load ~dir with
  | Error e -> Error (Printf.sprintf "%s: manifest: %s" dir e)
  | Ok None -> Error (Printf.sprintf "%s: no durable run found (no manifest)" dir)
  | Ok (Some m) -> durable_env_of_params m.Durable.Manifest.params

let sync_conv =
  let parse text =
    match String.lowercase_ascii text with
    | "always" -> Ok Durable.Wal.Always
    | "never" -> Ok Durable.Wal.Never
    | other -> (
        match String.index_opt other ':' with
        | Some i
          when String.sub other 0 i = "interval" -> (
            match
              int_of_string_opt
                (String.sub other (i + 1) (String.length other - i - 1))
            with
            | Some n when n > 0 -> Ok (Durable.Wal.Interval n)
            | _ -> Error (`Msg "interval wants a positive count"))
        | _ ->
            Error
              (`Msg
                 (Printf.sprintf
                    "unknown sync policy %S (always, never, interval:N)" text)))
  in
  let print fmt = function
    | Durable.Wal.Always -> Format.pp_print_string fmt "always"
    | Durable.Wal.Never -> Format.pp_print_string fmt "never"
    | Durable.Wal.Interval n -> Format.fprintf fmt "interval:%d" n
  in
  Arg.conv (parse, print)

let durable_config ~dir ~segment_bytes ~ckpt_actions ~ckpt_bytes ~sync ~hook =
  {
    (Durable.Exec.default_config ~dir) with
    Durable.Exec.segment_bytes;
    ckpt_actions;
    ckpt_bytes;
    sync;
    hook;
  }

let print_durable_outcome (o : Durable.Exec.outcome) =
  Printf.printf
    "total cost %.2f units over %d step(s); view rows %d; consistent %b\n"
    o.Durable.Exec.total_cost o.Durable.Exec.steps_run
    (List.length o.Durable.Exec.rows)
    o.Durable.Exec.consistent;
  Printf.printf "wal lsn %d; %d checkpoint(s) written%s\n" o.Durable.Exec.lsn
    o.Durable.Exec.checkpoints
    (if o.Durable.Exec.recovered then
       Printf.sprintf "; recovered (replayed %d WAL record(s))"
         o.Durable.Exec.replayed
     else "")

let durable_run dir seed rows horizon limit streams segment_bytes ckpt_actions
    ckpt_bytes sync kill_at_step trace metrics =
  let streams = if streams = [] then [ "ss"; "ss" ] else streams in
  let params = durable_params ~seed ~rows ~horizon ~limit ~streams in
  match durable_env_of_params params with
  | Error e -> `Error (false, e)
  | Ok env ->
      with_telemetry ~trace ~metrics (fun () ->
          let hook =
            match kill_at_step with
            | None -> Durable.Hook.none
            | Some target -> (
                function
                | Durable.Hook.Step_start t when t = target ->
                    raise
                      (Durable.Hook.Crash
                         (Printf.sprintf "--kill-at-step %d" target))
                | _ -> ())
          in
          let config =
            durable_config ~dir ~segment_bytes ~ckpt_actions ~ckpt_bytes ~sync
              ~hook
          in
          (try
             let o = Durable.Exec.run config env in
             print_durable_outcome o
           with Durable.Hook.Crash what ->
             Printf.printf
               "killed at crash point [%s] — `abivm durable recover --dir \
                %s` will finish the run\n"
               what dir);
          `Ok ())

let durable_recover dir segment_bytes ckpt_actions ckpt_bytes sync trace metrics
    =
  match durable_env_of_dir dir with
  | Error e -> `Error (false, e)
  | Ok env ->
      with_telemetry ~trace ~metrics (fun () ->
          let config =
            durable_config ~dir ~segment_bytes ~ckpt_actions ~ckpt_bytes ~sync
              ~hook:Durable.Hook.none
          in
          match Durable.Exec.resume config env with
          | Ok o ->
              print_durable_outcome o;
              `Ok ()
          | Error e -> `Error (false, e))

let durable_verify dir trace metrics =
  match durable_env_of_dir dir with
  | Error e -> `Error (false, e)
  | Ok env ->
      with_telemetry ~trace ~metrics (fun () ->
          match Durable.Exec.verify (Durable.Exec.default_config ~dir) env with
          | Ok st ->
              Printf.printf
                "ok: recovered to lsn %d (checkpoint lsn %d, %d WAL \
                 record(s) replayed), next step %d, cumulative cost %.2f; \
                 view consistent with a from-scratch recompute\n"
                st.Durable.Recovery.lsn st.Durable.Recovery.checkpoint_lsn
                st.Durable.Recovery.replayed st.Durable.Recovery.next_step
                st.Durable.Recovery.cost;
              `Ok ()
          | Error e -> `Error (false, e))

let durable_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR" ~doc:"Durability directory (WAL + checkpoints).")

let durable_tuning =
  let segment_bytes =
    Arg.(
      value
      & opt int (256 * 1024)
      & info [ "segment-bytes" ] ~docv:"N"
          ~doc:"WAL segment rotation threshold (default 256 KiB).")
  in
  let ckpt_actions =
    Arg.(
      value & opt int 32
      & info [ "ckpt-actions" ] ~docv:"N"
          ~doc:"Checkpoint every $(docv) applied actions (default 32).")
  in
  let ckpt_bytes =
    Arg.(
      value
      & opt int (512 * 1024)
      & info [ "ckpt-bytes" ] ~docv:"N"
          ~doc:"Checkpoint every $(docv) bytes of WAL (default 512 KiB).")
  in
  let sync =
    Arg.(
      value
      & opt sync_conv Durable.Wal.Always
      & info [ "sync" ] ~docv:"POLICY"
          ~doc:"WAL fsync policy: always, never, or interval:N (group commit).")
  in
  (segment_bytes, ckpt_actions, ckpt_bytes, sync)

let durable_run_cmd =
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let rows =
    Arg.(
      value & opt int 400
      & info [ "rows" ] ~docv:"N"
          ~doc:"Rows per synthetic base table (default 400).")
  in
  let horizon =
    Arg.(
      value & opt int 60
      & info [ "horizon"; "T" ] ~docv:"T" ~doc:"Refresh time (default 60).")
  in
  let limit =
    Arg.(
      value & opt float 60.0
      & info [ "limit"; "C" ] ~docv:"COST"
          ~doc:"Response-time constraint (default 60).")
  in
  let streams =
    Arg.(
      value & opt_all string []
      & info [ "stream" ] ~docv:"STREAM"
          ~doc:
            "Arrival stream per table, twice (default ss ss): constant:N, \
             burst:P,MU,SIGMA, poisson:M, onoff:ON,OFF,RATE, or ss/su/fs/fu.")
  in
  let kill_at_step =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-at-step" ] ~docv:"T"
          ~doc:
            "Simulate a crash: die at the start of step $(docv) (then try \
             `durable recover`).")
  in
  let segment_bytes, ckpt_actions, ckpt_bytes, sync = durable_tuning in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "execute the ONLINE plan for a synthetic scenario with WAL + \
          checkpoints, optionally dying mid-run")
    Term.(
      ret
        (const durable_run $ durable_dir_arg $ seed $ rows $ horizon $ limit
       $ streams $ segment_bytes $ ckpt_actions $ ckpt_bytes $ sync
       $ kill_at_step $ trace_arg $ metrics_arg))

let durable_recover_cmd =
  let segment_bytes, ckpt_actions, ckpt_bytes, sync = durable_tuning in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "recover a (possibly crashed) durable run from its directory and \
          finish it — the scenario is rebuilt from the manifest")
    Term.(
      ret
        (const durable_recover $ durable_dir_arg $ segment_bytes $ ckpt_actions
       $ ckpt_bytes $ sync $ trace_arg $ metrics_arg))

let durable_verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "recover without resuming and deep-check the recovered view against \
          a from-scratch recompute")
    Term.(ret (const durable_verify $ durable_dir_arg $ trace_arg $ metrics_arg))

let durable_cmd =
  Cmd.group
    (Cmd.info "durable"
       ~doc:
         "crash-recoverable execution: segmented WAL, checkpoints, recovery \
          (run / recover / verify)")
    [ durable_run_cmd; durable_recover_cmd; durable_verify_cmd ]

(* --- serve -------------------------------------------------------------------- *)

let print_serve_outcome (o : Serve.Service.outcome) =
  Util.Tablefmt.print
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Left ]
    ~header:
      [ "tenant"; "steps"; "metered"; "charged"; "violations"; "sheds";
        "reanchors"; "consistent" ]
    (List.map
       (fun (t : Serve.Service.tenant_outcome) ->
         [
           t.Serve.Service.tenant;
           string_of_int t.Serve.Service.steps;
           Util.Tablefmt.float_cell t.Serve.Service.metered_cost;
           Util.Tablefmt.float_cell t.Serve.Service.charged_cost;
           string_of_int t.Serve.Service.violations;
           string_of_int t.Serve.Service.sheds;
           string_of_int t.Serve.Service.reanchors;
           string_of_bool t.Serve.Service.consistent;
         ])
       o.Serve.Service.tenants);
  Printf.printf
    "%d round(s); aggregate charged %.2f (undiscounted %.2f, %d co-flush \
     join(s)); worst violation rate %.3f; %d rejected, queue peak %d\n"
    o.Serve.Service.rounds o.Serve.Service.aggregate_charged
    o.Serve.Service.aggregate_undiscounted o.Serve.Service.co_flushes
    o.Serve.Service.worst_violation_rate o.Serve.Service.rejected
    o.Serve.Service.queued_peak;
  if List.exists (fun t -> not t.Serve.Service.consistent) o.Serve.Service.tenants
  then Printf.printf "WARNING: some tenant's view failed its consistency check\n"

let with_serve_pool domains f =
  if domains <= 1 then f None
  else Parallel.Pool.with_pool ~domains (fun p -> f (Some p))

(* [--tenant-sync t3=always] overrides: parsed here, validated against
   the registered tenant names before any registration happens. *)
let parse_tenant_syncs ~tenants specs =
  let known = List.init tenants (Printf.sprintf "t%d") in
  List.fold_left
    (fun acc spec ->
      Result.bind acc (fun acc ->
          match String.index_opt spec '=' with
          | None ->
              Error
                (Printf.sprintf "--tenant-sync %s: expected NAME=POLICY" spec)
          | Some i -> (
              let name = String.sub spec 0 i in
              let policy =
                String.sub spec (i + 1) (String.length spec - i - 1)
              in
              if not (List.mem name known) then
                Error
                  (Printf.sprintf
                     "--tenant-sync %s: no such tenant (run has %s)" spec
                     (String.concat ", " known))
              else
                match Durable.Wal.sync_of_string policy with
                | Ok p -> Ok ((name, p) :: acc)
                | Error e ->
                    Error (Printf.sprintf "--tenant-sync %s: %s" spec e))))
    (Ok []) specs

let serve_run dir tenants rows horizon limit_factor seed streams discount
    budget no_coordinate domains sync tenant_syncs kill_at_round trace metrics
    =
  let streams = if streams = [] then [ "ss"; "ss" ] else streams in
  if List.length streams <> Serve.Tenant.n_tables then
    `Error (false, "need exactly two --stream arguments (tables R and S)")
  else begin
    match parse_tenant_syncs ~tenants tenant_syncs with
    | Error e -> `Error (false, e)
    | Ok sync_overrides ->
    let tenant_sync_for name = List.assoc_opt name sync_overrides in
    with_telemetry ~trace ~metrics (fun () ->
        let hook =
          match kill_at_round with
          | None -> Durable.Hook.none
          | Some target -> (
              function
              | Durable.Hook.Step_start r when r = target ->
                  raise
                    (Durable.Hook.Crash
                       (Printf.sprintf "--kill-at-round %d" target))
              | _ -> ())
        in
        let config =
          {
            Serve.Service.default_config with
            Serve.Service.coordinate = not no_coordinate;
            discount_factor = discount;
            shed_budget = budget;
            sync;
            hook;
          }
        in
        with_serve_pool domains (fun pool ->
            match Serve.Service.create ?pool ~root:dir config with
            | exception Invalid_argument e -> `Error (false, e)
            | svc ->
            let ok = ref true in
            for i = 0 to tenants - 1 do
              let cfg_name = Printf.sprintf "t%d" i in
              let cfg =
                {
                  Serve.Tenant.name = cfg_name;
                  seed = seed + (10 * i);
                  rows;
                  horizon;
                  limit_factor;
                  streams;
                  order = Ivm.Viewdef.First_order;
                  sync = tenant_sync_for cfg_name;
                }
              in
              match Serve.Service.register svc cfg with
              | Ok decision ->
                  Printf.printf "register %s: %s\n%!" cfg.Serve.Tenant.name
                    (Serve.Admission.describe decision)
              | Error e ->
                  ok := false;
                  Printf.printf "register %s: ERROR %s\n%!"
                    cfg.Serve.Tenant.name e
            done;
            if not !ok then `Error (false, "tenant registration failed")
            else begin
              (try print_serve_outcome (Serve.Service.run svc)
               with Durable.Hook.Crash what ->
                 Printf.printf
                   "killed at crash point [%s] — `abivm serve recover --dir \
                    %s` will finish the run\n"
                   what dir);
              `Ok ()
            end))
  end

let serve_recover dir domains trace metrics =
  with_telemetry ~trace ~metrics (fun () ->
      with_serve_pool domains (fun pool ->
          match Serve.Service.recover ?pool ~root:dir () with
          | Error e -> `Error (false, e)
          | Ok svc ->
              Printf.printf "replayed %d WAL record(s) across tenants\n%!"
                (Serve.Service.total_replayed svc);
              print_serve_outcome (Serve.Service.run svc);
              `Ok ()))

let serve_dir_arg =
  Arg.(
    required
    & opt (some string) None
    & info [ "dir" ] ~docv:"DIR"
        ~doc:"Service root (service manifest, tenant manifests, shared WAL).")

let serve_domains_arg =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Fan per-tenant work of each round out over $(docv) domains \
           (outcome is bit-identical to sequential; default 1).")

let serve_run_cmd =
  let tenants =
    Arg.(
      value & opt int 4
      & info [ "tenants" ] ~docv:"N" ~doc:"Number of tenants (default 4).")
  in
  let rows =
    Arg.(
      value & opt int 120
      & info [ "rows" ] ~docv:"N"
          ~doc:"Rows per synthetic base table per tenant (default 120).")
  in
  let horizon =
    Arg.(
      value & opt int 40
      & info [ "horizon"; "T" ] ~docv:"T"
          ~doc:"Per-tenant horizon (default 40).")
  in
  let limit_factor =
    Arg.(
      value & opt float 6.0
      & info [ "limit-factor" ] ~docv:"X"
          ~doc:
            "Refresh budget C as a multiple of the dearer table's calibrated \
             single-modification cost (default 6).")
  in
  let seed =
    Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Base PRNG seed.")
  in
  let streams =
    Arg.(
      value & opt_all string []
      & info [ "stream" ] ~docv:"STREAM"
          ~doc:
            "Arrival stream per table, twice (default ss ss): constant:N, \
             burst:P,MU,SIGMA, poisson:M, onoff:ON,OFF,RATE, or ss/su/fs/fu.")
  in
  let discount =
    Arg.(
      value & opt float 0.8
      & info [ "discount" ] ~docv:"F"
          ~doc:
            "Co-flush discount as a fraction of the cheapest participant's \
             single-modification cost (default 0.8; 0 disables).")
  in
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"COST"
          ~doc:
            "Model-cost budget per round; optional co-flush joins beyond it \
             are shed (default: unlimited).")
  in
  let no_coordinate =
    Arg.(
      value & flag
      & info [ "no-coordinate" ]
          ~doc:"Run tenants' controllers independently (no piggybacking).")
  in
  let sync =
    Arg.(
      value
      & opt sync_conv Durable.Wal.Always
      & info [ "sync" ] ~docv:"POLICY"
          ~doc:
            "Durability cadence: always, never, or interval:N.  The shared \
             group-commit window closes (one fsync for every tenant's \
             commits) every round / never / every N-th round.")
  in
  let tenant_sync =
    Arg.(
      value & opt_all string []
      & info [ "tenant-sync" ] ~docv:"NAME=POLICY"
          ~doc:
            "Per-tenant durability override (repeatable), e.g. \
             $(b,--tenant-sync t0=always): a strict tenant forces the \
             shared window closed at its own commits.  Validated against \
             the run's tenant names at startup.")
  in
  let kill_at_round =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-at-round" ] ~docv:"R"
          ~doc:
            "Simulate a crash: die at the start of scheduler round $(docv) \
             (then try `serve recover`).")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "run N tenants' maintenance concurrently under the shared SLO \
          scheduler, journaling into a shared group-commit WAL")
    Term.(
      ret
        (const serve_run $ serve_dir_arg $ tenants $ rows $ horizon
       $ limit_factor $ seed $ streams $ discount $ budget $ no_coordinate
       $ serve_domains_arg $ sync $ tenant_sync $ kill_at_round $ trace_arg
       $ metrics_arg))

let serve_recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "rebuild every tenant from its manifest, replay the WALs \
          (verified bit-exact), and finish the run")
    Term.(
      ret
        (const serve_recover $ serve_dir_arg $ serve_domains_arg $ trace_arg
       $ metrics_arg))

let serve_cmd =
  Cmd.group
    (Cmd.info "serve"
       ~doc:
         "multi-tenant maintenance service: per-tenant ONLINE controllers \
          under a shared SLO scheduler with admission control, co-flush \
          coordination, and one shared group-commit WAL (run / recover)")
    [ serve_run_cmd; serve_recover_cmd ]

(* --- partition ------------------------------------------------------------- *)

(* Heavy-light skew partitioning demo: calibrate per-key frequency splits
   on a Zipfian feed, measure per-partition cost curves, then plan and
   execute the same stream twice on the same partitioned engine — once
   with the skew-aware 2n-table spec, once with a skew-blind single curve
   per logical table. *)
let partition_demo r_rows s_rows horizon exponent seed r_rate s_rate
    limit_factor min_share sizes =
  let names = [| "R"; "S" |] in
  let seed_cal = seed + 4 and seed_live = seed + 6 in
  let mk () =
    let db = Tpcr.Synth.generate ~seed ~r_rows ~s_rows () in
    Relation.Table.create_index db.Tpcr.Synth.s "jk";
    Relation.Meter.reset db.Tpcr.Synth.meter;
    db
  in
  let splits =
    let db = mk () in
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
        Partition.Split.calibrate ~min_share sk)
  in
  Util.Tablefmt.print
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right ]
    ~header:[ "table"; "heavy keys"; "coverage"; "threshold share" ]
    (List.init 2 (fun i ->
         [
           names.(i);
           string_of_int (Partition.Split.heavy_count splits.(i));
           Util.Tablefmt.float_cell ~decimals:3
             (Partition.Split.coverage splits.(i));
           Util.Tablefmt.float_cell ~decimals:3
             (Partition.Split.threshold splits.(i));
         ]));
  let fresh_engine () =
    let db = mk () in
    let view = Tpcr.Synth.join_view db in
    let m = Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter view in
    let e =
      Partition.Engine.create
        ~key_of:(Partition.Engine.key_of_view view)
        ~splits m
    in
    (db, e)
  in
  let upto = 4 * List.fold_left max 1 sizes in
  let hull nm curve =
    Cost.Func.subadditive_hull ~upto (Bridge.Calibrate.tabulated ~name:nm curve)
  in
  let part_curves =
    let db, e = fresh_engine () in
    let feeds = Tpcr.Synth.zipf_feeds ~seed:seed_cal ~exponent db in
    Array.init (Partition.Pspec.count ~n:2) (fun p ->
        let table, cls = Partition.Pspec.logical p in
        Partition.Calibrate.measure_curve e
          ~next:(fun () -> feeds.Tpcr.Updates.next table)
          ~table ~cls ~sizes)
  in
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
    let db, e = fresh_engine () in
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
  Util.Tablefmt.print
    ~aligns:(List.init 7 (fun _ -> Util.Tablefmt.Right))
    ~header:
      ("k"
      :: (List.init 4 (fun p -> Partition.Pspec.label ~names p)
         @ [ "R blind"; "S blind" ]))
    (List.map
       (fun k ->
         string_of_int k
         :: (List.init 4 (fun p ->
                 Util.Tablefmt.float_cell ~decimals:1
                   (List.assoc k part_curves.(p)))
            @ [
                Util.Tablefmt.float_cell ~decimals:1
                  (List.assoc k blind_curves.(0));
                Util.Tablefmt.float_cell ~decimals:1
                  (List.assoc k blind_curves.(1));
              ]))
       sizes);
  let costs_part =
    Array.mapi
      (fun p curve -> hull (Partition.Pspec.label ~names p) curve)
      part_curves
  in
  let costs_blind =
    Array.mapi (fun i curve -> hull ("blind_" ^ names.(i)) curve) blind_curves
  in
  let logical_arrivals =
    Array.init (horizon + 1) (fun _ -> [| r_rate; s_rate |])
  in
  let db_p, engine = fresh_engine () in
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
  Printf.printf "response-time limit C = %.1f cost units\n" limit;
  let spec_blind =
    Abivm.Spec.make ~costs:costs_blind ~limit ~arrivals:logical_arrivals
  in
  let spec_part = Partition.Pspec.make ~costs:costs_part ~limit ~arrivals:parr in
  let sol_blind = Abivm.Astar.solve spec_blind in
  let sol_part = Abivm.Astar.solve spec_part in
  let part_exec =
    Partition.Runner.run engine stream ~spec:spec_part
      ~plan:sol_part.Abivm.Astar.plan
  in
  let blind_cost, blind_batches =
    let _, e = fresh_engine () in
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
    (!cost, !batches)
  in
  Util.Tablefmt.print
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "planner"; "tables"; "plan cost"; "executed"; "batches" ]
    [
      [
        "skew-blind"; "2";
        Util.Tablefmt.float_cell ~decimals:1 sol_blind.Abivm.Astar.cost;
        Util.Tablefmt.float_cell ~decimals:1 blind_cost;
        string_of_int blind_batches;
      ];
      [
        "skew-aware"; "4";
        Util.Tablefmt.float_cell ~decimals:1 sol_part.Abivm.Astar.cost;
        Util.Tablefmt.float_cell ~decimals:1 part_exec.Partition.Runner.cost_units;
        string_of_int part_exec.Partition.Runner.batches;
      ];
    ];
  Printf.printf "skew-aware planner executed %.2fx %s on the same stream\n"
    (let r = blind_cost /. part_exec.Partition.Runner.cost_units in
     if r >= 1.0 then r else 1.0 /. r)
    (if part_exec.Partition.Runner.cost_units < blind_cost then "cheaper"
     else "dearer");
  `Ok ()

let partition_cmd =
  let r_rows =
    Arg.(
      value & opt int 100
      & info [ "r-rows" ] ~docv:"N" ~doc:"Rows in R (indexed; default 100).")
  in
  let s_rows =
    Arg.(
      value & opt int 500
      & info [ "s-rows" ] ~docv:"N"
          ~doc:"Rows in S (scanned by the light path; default 500).")
  in
  let horizon =
    Arg.(
      value & opt int 20
      & info [ "horizon"; "T" ] ~docv:"T" ~doc:"Refresh time (default 20).")
  in
  let exponent =
    Arg.(
      value & opt float 1.1
      & info [ "exponent" ] ~docv:"A"
          ~doc:"Zipf exponent of the join-key feed (default 1.1).")
  in
  let seed =
    Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")
  in
  let r_rate =
    Arg.(
      value & opt int 4
      & info [ "r-rate" ] ~docv:"K"
          ~doc:"Modifications arriving on R per step (default 4).")
  in
  let s_rate =
    Arg.(
      value & opt int 8
      & info [ "s-rate" ] ~docv:"K"
          ~doc:"Modifications arriving on S per step (default 8).")
  in
  let limit_factor =
    Arg.(
      value & opt float 1.45
      & info [ "limit-factor" ] ~docv:"X"
          ~doc:
            "Response-time limit as a multiple of the worst single-batch \
             cost (default 1.45).")
  in
  let min_share =
    Arg.(
      value & opt float 0.02
      & info [ "min-share" ] ~docv:"P"
          ~doc:
            "Minimum arrival share for a join key to be classified heavy \
             (default 0.02).")
  in
  let sizes =
    Arg.(
      value
      & opt (list int) [ 1; 4; 16 ]
      & info [ "sizes" ] ~docv:"K,K,.."
          ~doc:"Batch sizes sampled during curve calibration (default 1,4,16).")
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:
         "heavy-light skew partitioning: calibrate per-key splits on a \
          Zipfian feed and compare the skew-aware per-partition planner \
          against a skew-blind single-curve plan on the same engine")
    Term.(
      ret
        (const partition_demo $ r_rows $ s_rows $ horizon $ exponent $ seed
       $ r_rate $ s_rate $ limit_factor $ min_share $ sizes))

let main_cmd =
  let doc = "asymmetric batch incremental view maintenance" in
  Cmd.group (Cmd.info "abivm" ~version:"1.0.0" ~doc)
    [ simulate_cmd; astar_cmd; calibrate_cmd; run_cmd; robust_cmd;
      durable_cmd; serve_cmd; partition_cmd ]

let () = exit (Cmd.eval main_cmd)
