exception Refused of string

let check m ~first ~counts actions =
  let horizon = Array.length counts - 1 in
  let pending = Ivm.Maintainer.pending_sizes m in
  let refuse fmt = Printf.ksprintf (fun msg -> raise (Refused msg)) fmt in
  (* Add [sign] times [row]'s counts to the queue sizes. *)
  let step what t sign row =
    if Array.length row <> Array.length pending then
      refuse "%s at t=%d is %d wide but the maintainer has %d queues" what t
        (Array.length row) (Array.length pending);
    Array.iteri
      (fun i k ->
        if k < 0 || pending.(i) + (sign * k) < 0 then
          refuse "%s at t=%d: %d on queue %d, %d pending" what t k i pending.(i);
        pending.(i) <- pending.(i) + (sign * k))
      row
  in
  match
    let rest = ref actions in
    for t = first to horizon do
      step "arrivals" t 1 counts.(t);
      match !rest with
      | (t', action) :: tl when t' = t ->
          rest := tl;
          step "plan action" t (-1) action
      | _ -> ()
    done;
    match !rest with
    | [] -> ()
    | (t, _) :: _ ->
        refuse "plan action at t=%d is not in steps %d..%d in time order" t first
          horizon
  with
  | () -> Ok ()
  | exception Refused msg -> Error msg

let execute ?(on_applied = fun ~t:_ ~table:_ ~count:_ ~cost:_ -> ())
    ?(on_action = fun _ _ _ -> ()) m ~first ~counts ~arrive actions =
  match check m ~first ~counts actions with
  | Error _ as refused -> refused
  | Ok () ->
      let rest = ref actions in
      for t = first to Array.length counts - 1 do
        arrive t counts.(t);
        match !rest with
        | (t', action) :: tl when t' = t ->
            rest := tl;
            let cost =
              try Ivm.Maintainer.apply m action ~on_applied:(on_applied ~t)
              with Invalid_argument msg ->
                invalid_arg (Printf.sprintf "Runner.execute: at t=%d: %s" t msg)
            in
            on_action t action cost
        | _ -> ()
      done;
      Ok ()

let run_plan ?monitor ?(strategy = Abivm.Strategy.Online None) m ~feeds spec plan =
  let started = Unix.gettimeofday () in
  let before_tel = Telemetry.snapshot () in
  let arrive _ d =
    Option.iter (fun mon -> Robust.Monitor.observe_arrivals mon d) monitor;
    Ivm.Maintainer.ingest m ~next:feeds.Tpcr.Updates.next d
  in
  let total = ref 0.0 in
  let on_action t action cost =
    if Telemetry.enabled () then begin
      (* Executed vs simulated cost of the same action, keyed by time
         step — the raw material for a Fig. 5 plot. *)
      let labels = [ ("t", string_of_int t) ] in
      Telemetry.add ~labels "runner.action.cost_units" cost;
      Telemetry.add ~labels "runner.action.simulated" (Abivm.Spec.f spec action);
      Telemetry.incr "runner.actions";
      Telemetry.add "runner.cost_units" cost
    end;
    (* The metered engine cost against the calibrated model's prediction
       for the same action: the cost-drift signal of the robustness loop,
       in the units calibration produced. *)
    Option.iter
      (fun mon ->
        Robust.Monitor.observe_cost mon ~expected:(Abivm.Spec.f spec action)
          ~observed:cost)
      monitor;
    total := !total +. cost
  in
  let order = Ivm.Viewdef.order_name (Ivm.Maintainer.order m) in
  Telemetry.with_span ~name:"runner.plan"
    ~attrs:[ ("strategy", Abivm.Strategy.label strategy); ("order", order) ]
    (fun () ->
      execute m ~first:0 ~counts:(Abivm.Spec.arrivals spec) ~arrive ~on_action
        (Abivm.Plan.actions plan)
      |> Result.iter_error (fun msg -> invalid_arg ("Runner.execute: " ^ msg));
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

(* One Fig. 5 counter's per-step samples, in time order. *)
let per_step name (r : Abivm.Report.t) =
  List.filter_map
    (fun (s : Telemetry.Metrics.sample) ->
      match s.sample_labels with
      | [ ("t", t) ] when s.sample_name = name ->
          Option.map (fun t -> (t, s.sample_value)) (int_of_string_opt t)
      | _ -> None)
    r.Abivm.Report.telemetry
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let action_costs = per_step "runner.action.cost_units"
let simulated_action_costs = per_step "runner.action.simulated"
