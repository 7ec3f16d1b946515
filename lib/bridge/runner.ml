type engine = { maintainer : Ivm.Maintainer.t; feeds : Tpcr.Updates.feeds }

let engine ~maintainer ~feeds = { maintainer; feeds }
let maintainer e = e.maintainer
let feeds e = e.feeds

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

type stepper = {
  st_engine : engine;
  st_spec : Abivm.Spec.t;
  st_plan : Abivm.Plan.t;
  st_monitor : Robust.Monitor.t option;
  st_strategy : Abivm.Strategy.t;
  st_started : float;
  st_before_tel : Telemetry.Metrics.snapshot;
  mutable st_next : int;  (* next time step to execute *)
  mutable st_total : float;
}

type step_outcome = {
  time : int;
  action : Abivm.Statevec.t option;
  cost : float;
}

let start ?monitor ?(strategy = Abivm.Strategy.Online None) e spec plan =
  validate_plan e spec plan;
  {
    st_engine = e;
    st_spec = spec;
    st_plan = plan;
    st_monitor = monitor;
    st_strategy = strategy;
    st_started = Unix.gettimeofday ();
    st_before_tel = Telemetry.snapshot ();
    st_next = 0;
    st_total = 0.0;
  }

let next_step st = st.st_next
let cost_so_far st = st.st_total

(* One time step: ingest the step's arrivals, then execute the plan's
   action at this step if any. *)
let exec_step st =
  let t = st.st_next in
  let horizon = Abivm.Spec.horizon st.st_spec in
  if t > horizon then None
  else begin
    let m = st.st_engine.maintainer and feeds = st.st_engine.feeds in
    let spec = st.st_spec in
    let d = (Abivm.Spec.arrivals spec).(t) in
    Option.iter (fun mon -> Robust.Monitor.observe_arrivals mon d) st.st_monitor;
    Array.iteri
      (fun i count ->
        for _ = 1 to count do
          let change = feeds.Tpcr.Updates.next i in
          Ivm.Maintainer.on_arrive m i change
        done)
      d;
    let outcome =
      match Abivm.Plan.action_at st.st_plan t with
      | None -> { time = t; action = None; cost = 0.0 }
      | Some action ->
          let run_action () =
            let cost = ref 0.0 in
            Array.iteri
              (fun i k ->
                if k > 0 then begin
                  let delta = Ivm.Maintainer.process m i k in
                  cost := !cost +. Relation.Meter.cost_units delta
                end)
              action;
            !cost
          in
          let cost =
            if not (Telemetry.enabled ()) then run_action ()
            else begin
              let labels = [ ("t", string_of_int t) ] in
              let cost =
                Telemetry.with_span ~name:"runner.action"
                  ~attrs:
                    (("strategy", Abivm.Strategy.name st.st_strategy)
                    :: ( "order",
                         Ivm.Viewdef.order_name (Ivm.Maintainer.order m) )
                    :: labels)
                  run_action
              in
              (* Executed vs simulated cost of the same action, keyed by
                 time step — the raw material for a Fig. 5 plot. *)
              Telemetry.add ~labels "runner.action.cost_units" cost;
              Telemetry.add ~labels "runner.action.simulated"
                (Abivm.Spec.f spec action);
              Telemetry.incr "runner.actions";
              Telemetry.add "runner.cost_units" cost;
              cost
            end
          in
          (* The metered engine cost against the calibrated model's
             prediction for the same action: the cost-drift signal of
             the robustness loop, in the units calibration produced. *)
          Option.iter
            (fun mon ->
              Robust.Monitor.observe_cost mon
                ~expected:(Abivm.Spec.f spec action) ~observed:cost)
            st.st_monitor;
          st.st_total <- st.st_total +. cost;
          { time = t; action = Some action; cost }
    in
    st.st_next <- t + 1;
    Some outcome
  end

let step = exec_step

let finished st = st.st_next > Abivm.Spec.horizon st.st_spec

let finish st =
  while not (finished st) do
    ignore (exec_step st)
  done;
  let m = st.st_engine.maintainer in
  let final_consistent = Ivm.Maintainer.check_consistent m = Ok () in
  let wall_seconds = Unix.gettimeofday () -. st.st_started in
  let report =
    Abivm.Report.of_plan ~cost_units:st.st_total ~wall_seconds
      ~strategy:st.st_strategy st.st_spec st.st_plan
  in
  {
    report with
    Abivm.Report.valid = report.Abivm.Report.valid && final_consistent;
    telemetry = Telemetry.Metrics.diff (Telemetry.snapshot ()) st.st_before_tel;
  }

let run_plan ?monitor ?(strategy = Abivm.Strategy.Online None) e spec plan =
  let st = start ?monitor ~strategy e spec plan in
  Telemetry.with_span ~name:"runner.plan"
    ~attrs:
      [
        ("strategy", Abivm.Strategy.label strategy);
        ("order", Ivm.Viewdef.order_name (Ivm.Maintainer.order e.maintainer));
      ]
    (fun () -> finish st)

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

let simulated_cost = Abivm.Plan.cost

let order e = Ivm.Maintainer.order e.maintainer
