type engine = { maintainer : Ivm.Maintainer.t; feeds : Tpcr.Updates.feeds }

let engine ~maintainer ~feeds = { maintainer; feeds }

(* Whole-plan feasibility against the engine's *current* pending state
   plus the spec's arrival schedule, checked before a single
   modification is drawn or processed.  Without this an invalid plan
   raises [Invalid_argument] from the maintainer partway through the
   run, leaving the engine's delta queues half-consumed and its feeds
   advanced — fatal for a reused multi-tenant engine. *)
let validate_plan e spec plan =
  let m = e.maintainer in
  let n = Abivm.Spec.n_tables spec in
  if n <> Ivm.Viewdef.n_tables (Ivm.Maintainer.view m) then
    invalid_arg "Runner.run_plan: spec/view table count mismatch";
  let horizon = Abivm.Spec.horizon spec in
  List.iter
    (fun (t, _) ->
      if t > horizon then
        invalid_arg
          (Printf.sprintf "Runner.run_plan: plan action at t=%d after horizon %d"
             t horizon))
    (Abivm.Plan.actions plan);
  let pending = Ivm.Maintainer.pending_sizes m in
  for t = 0 to horizon do
    let d = (Abivm.Spec.arrivals spec).(t) in
    Array.iteri (fun i di -> pending.(i) <- pending.(i) + di) d;
    match Abivm.Plan.action_at plan t with
    | None -> ()
    | Some action ->
        Array.iteri
          (fun i k ->
            if k > pending.(i) then
              invalid_arg
                (Printf.sprintf
                   "Runner.run_plan: plan processes %d from table %d at t=%d \
                    but only %d pending"
                   k i t pending.(i));
            pending.(i) <- pending.(i) - k)
          action
  done

let run_plan ?monitor ?(strategy = Abivm.Strategy.Online None) e spec plan =
  validate_plan e spec plan;
  let m = e.maintainer in
  let started = Unix.gettimeofday () in
  let before_tel = Telemetry.snapshot () in
  let order = Ivm.Viewdef.order_name (Ivm.Maintainer.order m) in
  (* The plan's action at [t], inside its ["runner.action"] span. *)
  let execute t action =
    let run_action () = Ivm.Maintainer.apply m action in
    if not (Telemetry.enabled ()) then run_action ()
    else begin
      let labels = [ ("t", string_of_int t) ] in
      let cost =
        Telemetry.with_span ~name:"runner.action"
          ~attrs:
            (("strategy", Abivm.Strategy.name strategy)
            :: ("order", order) :: labels)
          run_action
      in
      (* Executed vs simulated cost of the same action, keyed by time
         step — the raw material for a Fig. 5 plot. *)
      Telemetry.add ~labels "runner.action.cost_units" cost;
      Telemetry.add ~labels "runner.action.simulated" (Abivm.Spec.f spec action);
      Telemetry.incr "runner.actions";
      Telemetry.add "runner.cost_units" cost;
      cost
    end
  in
  Telemetry.with_span ~name:"runner.plan"
    ~attrs:[ ("strategy", Abivm.Strategy.label strategy); ("order", order) ]
    (fun () ->
      let total = ref 0.0 in
      for t = 0 to Abivm.Spec.horizon spec do
        let d = (Abivm.Spec.arrivals spec).(t) in
        Option.iter (fun mon -> Robust.Monitor.observe_arrivals mon d) monitor;
        Ivm.Maintainer.ingest m ~next:e.feeds.Tpcr.Updates.next d;
        match Abivm.Plan.action_at plan t with
        | None -> ()
        | Some action ->
            let cost = execute t action in
            (* The metered engine cost against the calibrated model's
               prediction for the same action: the cost-drift signal of
               the robustness loop, in the units calibration produced. *)
            Option.iter
              (fun mon ->
                Robust.Monitor.observe_cost mon
                  ~expected:(Abivm.Spec.f spec action) ~observed:cost)
              monitor;
            total := !total +. cost
      done;
      let final_consistent = Ivm.Maintainer.check_consistent m = Ok () in
      let wall_seconds = Unix.gettimeofday () -. started in
      let report =
        Abivm.Report.of_plan ~cost_units:!total ~wall_seconds ~strategy spec plan
      in
      {
        report with
        Abivm.Report.valid = report.Abivm.Report.valid && final_consistent;
        telemetry = Telemetry.Metrics.diff (Telemetry.snapshot ()) before_tel;
      })

let action_costs (r : Abivm.Report.t) =
  List.filter_map
    (fun (s : Telemetry.Metrics.sample) ->
      if s.sample_name <> "runner.action.cost_units" then None
      else
        match s.sample_labels with
        | [ ("t", t) ] -> Option.map (fun t -> (t, s.sample_value)) (int_of_string_opt t)
        | _ -> None)
    r.Abivm.Report.telemetry
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let simulated_action_costs (r : Abivm.Report.t) =
  List.filter_map
    (fun (s : Telemetry.Metrics.sample) ->
      if s.sample_name <> "runner.action.simulated" then None
      else
        match s.sample_labels with
        | [ ("t", t) ] -> Option.map (fun t -> (t, s.sample_value)) (int_of_string_opt t)
        | _ -> None)
    r.Abivm.Report.telemetry
  |> List.sort (fun (a, _) (b, _) -> compare a b)
