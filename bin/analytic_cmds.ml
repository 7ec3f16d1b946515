(* The analytic subcommands: plan costs computed from the cost functions,
   with no engine — `simulate`, `astar` and `robust`. *)

open Cmdliner
open Terms

let simulate inst adapt_t0 show_plans trace metrics =
  with_telemetry ~trace ~metrics (fun () ->
      let spec = spec inst in
      let reports = Abivm.Simulate.all ?adapt_t0 spec in
      print_reports spec reports;
      if show_plans then
        List.iter
          (fun (r : Abivm.Report.t) ->
            Printf.printf "\n%s plan:\n%s" (Abivm.Report.label r)
              (Abivm.Visualize.timeline spec r.plan))
          reports;
      `Ok ())

let simulate_cmd =
  let show_plans =
    Arg.(value & flag & info [ "plans" ] ~doc:"Also print each plan's actions.")
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"compare NAIVE, OPT-LGM, ADAPT, ONLINE on an analytic problem instance")
    Term.(
      ret
        (const simulate $ instance () $ adapt_t0 $ show_plans $ trace_arg
       $ metrics_arg))

let astar inst no_heuristic show_plan trace metrics =
  with_telemetry ~trace ~metrics (fun () ->
      let spec = spec inst in
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
        Printf.printf "\n%s" (Abivm.Visualize.timeline spec r.Abivm.Astar.plan);
      `Ok ())

let astar_cmd =
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
        (const astar $ instance () $ no_heuristic $ show_plan $ trace_arg
       $ metrics_arg))

let robust inst adapt_t0 shift_at rate_factor cost_factor trace metrics =
  with_telemetry ~trace ~metrics (fun () ->
      let model = spec inst in
      let t0 =
        match adapt_t0 with Some t0 -> t0 | None -> (inst.horizon + 1) / 2
      in
      let sc = Robust.Inject.drifted ?shift_at ~rate_factor ~cost_factor model in
      let actual = sc.Robust.Inject.actual in
      Printf.printf "scenario: %s; C = %g; T = %d; T0 = %d\n"
        sc.Robust.Inject.label inst.limit inst.horizon t0;
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
          [ "ONLINE (true costs)"; Util.Tablefmt.float_cell online_cost; "-";
            "-" ];
        ];
      Printf.printf "peak drift score %.2f\n" re.Robust.Replan.drift_peak;
      `Ok ())

let robust_cmd =
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
          ~doc:"True cost as a multiple of the calibrated model (default 2).")
  in
  let inst =
    instance ~costs:"Model (calibrated) per-table cost function"
      ~streams:"Per-table arrival stream the planner calibrated against" ()
  in
  Cmd.v
    (Cmd.info "robust"
       ~doc:
         "inject drift (rate shift + cost misestimation) into an analytic \
          instance and compare static ADAPT, the monitored replanner, and \
          ONLINE")
    Term.(
      ret
        (const robust $ inst $ adapt_t0 $ shift_at $ rate_factor $ cost_factor
       $ trace_arg $ metrics_arg))
