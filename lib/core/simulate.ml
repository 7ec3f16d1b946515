(* Score a plan's actions one by one, emitting a ["simulate.action"] span
   and booking per-strategy cost counters for each — skipped entirely when
   the collector is disabled so simulation stays allocation-free there. *)
let emit_action_telemetry ~strategy spec plan =
  if Telemetry.enabled () then begin
    let labels = [ ("strategy", Strategy.name strategy) ] in
    List.iter
      (fun (t, a) ->
        Telemetry.with_span ~name:"simulate.action"
          ~attrs:(("t", string_of_int t) :: labels)
          (fun () ->
            Telemetry.add ~labels "simulate.action_cost" (Spec.f spec a)))
      (Plan.actions plan)
  end

let plan_of_strategy (strategy : Strategy.t) spec =
  match strategy with
  | Naive -> Naive.plan spec
  | Opt_lgm -> (Astar.solve spec).Astar.plan
  | Adapt { t0 } -> Adapt.plan spec ~t0
  | Online predictor -> Online.plan ?predictor spec

let run strategy spec =
  (* Snapshot before plan construction so planner-side counters (e.g. the
     astar.* family for OPT-LGM) land in the report's telemetry delta. *)
  let before = Telemetry.snapshot () in
  Telemetry.with_span ~name:"simulate.strategy"
    ~attrs:[ ("strategy", Strategy.label strategy) ]
    (fun () ->
      let plan = plan_of_strategy strategy spec in
      let report = Report.of_plan ~strategy spec plan in
      emit_action_telemetry ~strategy spec plan;
      Telemetry.add
        ~labels:[ ("strategy", Strategy.name strategy) ]
        "simulate.total_cost" report.Report.total_cost;
      {
        report with
        Report.telemetry =
          Telemetry.Metrics.diff (Telemetry.snapshot ()) before;
      })

let naive spec = run Strategy.Naive spec
let opt_lgm spec = run Strategy.Opt_lgm spec
let online ?predictor spec = run (Strategy.Online predictor) spec

let all ?adapt_t0 ?strategies spec =
  let strategies =
    match strategies with
    | Some l -> l
    | None -> Strategy.default_list ?adapt_t0 ~horizon:(Spec.horizon spec) ()
  in
  List.map (fun strategy -> run strategy spec) strategies

let cost_per_modification = Report.cost_per_modification
