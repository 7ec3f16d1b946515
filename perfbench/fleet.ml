(* serve-fleet: one multi-tenant fleet driven through [Serve.Service],
   timed uninterrupted, then crashed half-way on a second root and
   recovered as the restart probe. *)

open Harness

let tenants = 8
let rows = 10_000
let horizon = 800

(* Round at which the restart probe's hook kills the service: half the
   horizon is replayed, half resumed. *)
let crash_round = horizon / 2

(* Steady Poisson, the paper's FU bursts, and on/off phases; budgets run
   from loose (C = 3x the dearer single-modification cost) to tight. *)
let streams_of i =
  match i mod 4 with
  | 0 -> [ "poisson:0.8"; "poisson:0.8" ]
  | 1 -> [ "fu"; "ss" ]
  | 2 -> [ "onoff:25,75,3"; "poisson:0.4" ]
  | _ -> [ "ss"; "fu" ]

let limit_factors = [| 3.0; 2.5; 2.1; 1.8; 1.6; 1.4; 1.25; 1.1 |]

let configs ~seed =
  List.init tenants (fun i ->
      {
        Serve.Tenant.name = Printf.sprintf "t%d" i;
        seed = (seed * 100) + (10 * i) + 1;
        rows;
        horizon;
        limit_factor = limit_factors.(i);
        streams = streams_of i;
        order =
          (if i mod 2 = 0 then Ivm.Viewdef.First_order
           else Ivm.Viewdef.Higher_order);
        sync = None;
      })

(* The tenant's arrival schedule, drawn exactly as the tenant draws it. *)
let arrivals (c : Serve.Tenant.config) =
  let streams =
    Array.of_list
      (List.map
         (fun s -> Result.get_ok (Workload.Arrivals.stream_of_string s))
         c.streams)
  in
  Workload.Arrivals.generate ~seed:(c.seed + 2) ~horizon:c.horizon streams

let total_mods cfgs =
  List.fold_left
    (fun acc c -> acc + Array.fold_left ( + ) 0 (Workload.Arrivals.totals (arrivals c)))
    0 cfgs

let service_config ~hook =
  {
    Serve.Service.default_config with
    admission =
      { Serve.Admission.max_active = tenants; max_queued = tenants; max_delta_entries = max_int };
    coordinate = true;
    discount_factor = 0.8;
    sync = Durable.Wal.Always;
    wal_mode = Serve.Service.Grouped;
    scheduler = Serve.Service.Event;
    hook;
  }

(* Create + register every tenant (admission, synthetic generation and
   calibration happen here), timing each call as its own set-up part. *)
let build ~root ~pool ~hook cfgs =
  let svc = part (fun () -> Serve.Service.create ~pool ~root (service_config ~hook)) in
  let failures =
    List.filter_map
      (fun (c : Serve.Tenant.config) ->
        match part (fun () -> span "bench.serve.register" (fun () -> Serve.Service.register svc c)) with
        | Ok Serve.Admission.Admit -> None
        | Ok d ->
            Some (Printf.sprintf "tenant %s not admitted: %s" c.name (Serve.Admission.describe d))
        | Error e -> Some (Printf.sprintf "tenant %s: %s" c.name e))
      cfgs
  in
  (svc, take_parts (), failures)

(* Every exact field of the outcome, floats by their bits. *)
let digest (o : Serve.Service.outcome) =
  String.concat ";"
    (bits o.aggregate_charged :: bits o.aggregate_undiscounted
    :: string_of_int o.co_flushes :: string_of_int o.rounds
    :: List.map
         (fun (t : Serve.Service.tenant_outcome) ->
           Printf.sprintf "%s,%d,%s,%s,%d,%d" t.tenant t.steps (bits t.metered_cost)
             (bits t.charged_cost) t.violations t.reanchors)
         o.tenants)

let gate (o : Serve.Service.outcome) =
  List.filter_map
    (fun (t : Serve.Service.tenant_outcome) ->
      if t.consistent then None
      else Some (Printf.sprintf "tenant %s finished inconsistent" t.tenant))
    o.tenants

let slo_met (o : Serve.Service.outcome) =
  let v, s =
    List.fold_left
      (fun (v, s) (t : Serve.Service.tenant_outcome) -> (v + t.violations, s + t.steps))
      (0, 0) o.tenants
  in
  1.0 -. (float_of_int v /. float_of_int (max 1 s))

let metered (o : Serve.Service.outcome) =
  List.fold_left (fun acc (t : Serve.Service.tenant_outcome) -> acc +. t.metered_cost) 0.0 o.tenants

let reanchors (o : Serve.Service.outcome) =
  List.fold_left (fun acc (t : Serve.Service.tenant_outcome) -> acc + t.reanchors) 0 o.tenants

(* --- the offline reference plan ---------------------------------------------- *)

(* The tenant's cost model, rebuilt from outside with the same public
   generator and calibration calls the tenant makes, so the OPT-LGM
   optimum (and the Fig. 6 ratios against it) price the same curves. *)
let spec_of (c : Serve.Tenant.config) =
  let db =
    span "bench.tpcr.generate" (fun () ->
        Tpcr.Synth.generate ~seed:c.seed ~r_rows:c.rows ~s_rows:c.rows ())
  in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter ~order:c.order (Tpcr.Synth.join_view db)
  in
  Relation.Meter.reset db.Tpcr.Synth.meter;
  let feeds = Tpcr.Synth.insert_feeds ~seed:(c.seed + 1) db in
  let curve table =
    Bridge.Calibrate.tabulated ~name:(Printf.sprintf "%s.%d" c.name table)
      (span "bench.bridge.calibrate" (fun () ->
           Bridge.Calibrate.measure_curve m feeds ~table ~sizes:[ 1; 5; 10; 20; 50 ]))
  in
  let costs = [| curve 0; curve 1 |] in
  let limit =
    c.limit_factor *. Float.max (Cost.Func.eval costs.(0) 1) (Cost.Func.eval costs.(1) 1)
  in
  Abivm.Spec.make ~costs ~limit ~arrivals:(arrivals c)

(* --- episodes ------------------------------------------------------------------ *)

type prepared = {
  cfgs : Serve.Tenant.config list;
  mods : int;
  specs : Abivm.Spec.t list;
  setup_layers : (string * float) list;
}

(* Once per run: the tenants' offline specs (traced when [traced], for
   the tpcr and bridge layers). *)
let prepare ~seed ~traced =
  let cfgs = configs ~seed in
  let tr = if traced then Some (start_trace ()) else None in
  let specs = List.map spec_of cfgs in
  let spans = Option.fold ~none:[] ~some:stop_trace tr in
  {
    cfgs;
    mods = total_mods cfgs;
    specs;
    setup_layers =
      [
        ("tpcr.generate_ms", span_ms spans "bench.tpcr.generate");
        ("bridge.calibrate_ms", span_ms spans "bench.bridge.calibrate");
      ];
  }

(* The serve-fleet layers.  [t0, t1] is the timed [Service.run] call,
   which ran [rounds] rounds. *)
let serve_layers p ~spans ~before ~after ~t0 ~t1 ~rounds ~svc
    ~(o : Serve.Service.outcome) ~seen ~replayed ~core =
  let children =
    intervals (spans_named (spans_within spans ~t0 ~t1) "maintainer.process")
  in
  let idle = Serve.Service.idle_rounds svc in
  let busy = max 1 (rounds - idle) in
  p.setup_layers @ core
  @ engine_layers spans ~windows:[ (t0, t1, before, after) ] ~mods:p.mods
  @ durable_counts ~before ~after
  @ [
      ("serve.register_ms", span_ms spans "bench.serve.register" /. float_of_int tenants);
      ("serve.busy_rounds", float_of_int busy);
      ("serve.idle_rounds", float_of_int idle);
      ( "serve.round_self_ms",
        1e3 *. self_time ~lo:t0 ~hi:t1 children /. float_of_int (max 1 rounds) );
      ("serve.co_flushes", float_of_int o.co_flushes);
      ( "durable.fsyncs_per_busy_round",
        counter_delta ~before ~after "durable.fsyncs" /. float_of_int busy );
      ("durable.wal_bytes_per_mod", float_of_int (total_wal_bytes seen) /. float_of_int p.mods);
      ("durable.replayed_records", float_of_int replayed);
      ("core.online_decisions", counter_delta ~before ~after "online.decisions");
      ("robust.reanchors", float_of_int (reanchors o));
    ]

(* Rounds per part of the timed phase: parts of identical work across
   episodes whose medians assemble the run's timed wall time. *)
let chunk = 25

(* The restart probe: the same fleet on a second root, killed by the
   hook at [crash_round]; [Service.recover] is timed, then the recovered
   service runs to the horizon and must reproduce the uninterrupted
   outcome bit for bit. *)
let restart p ~work ~pool ~live =
  let root = Filename.concat work "crashed" in
  rmtree root;
  let hook = function
    | Durable.Hook.Step_start r when r = crash_round -> raise (Durable.Hook.Crash "perfbench")
    | _ -> ()
  in
  let svc, _, failures = build ~root ~pool ~hook p.cfgs in
  let failures =
    match Serve.Service.run svc with
    | _ -> "the crash hook never fired" :: failures
    | exception Durable.Hook.Crash _ -> failures
  in
  let recovered, recover_s =
    timed (fun () -> span "bench.serve.recover" (fun () -> Serve.Service.recover ~pool ~root ()))
  in
  let result =
    match recovered with
    | Error e -> (recover_s, 0, failures @ [ "recover of the crashed fleet: " ^ e ])
    | Ok r ->
        let replayed = Serve.Service.total_replayed r in
        if digest (Serve.Service.run r) = live then (recover_s, replayed, failures)
        else (recover_s, replayed, failures @ [ "recovered outcome differs from the uninterrupted run" ])
  in
  rmtree root;
  result

(* serve-fleet: create + register (set-up), [Service.run] to the horizon
   (timed, one step per round, observed by the Step_start hook), then the
   crash-recovery restart probe and the offline plans. *)
let episode p ~work ~pool ~traced =
  let root = Filename.concat work "fleet" in
  rmtree root;
  let tr = if traced then Some (start_trace ()) else None in
  let seen = wal_bytes () in
  let marks = ref [] in
  let hook = function
    | Durable.Hook.Step_start _ -> marks := now () :: !marks
    | Durable.Hook.Rotated _ when traced -> scan_segments seen root
    | _ -> ()
  in
  let svc, setup_parts, reg_failures = build ~root ~pool ~hook p.cfgs in
  let before = counters () in
  let c0 = cpu () and t0 = now () in
  let o = span "bench.serve.run" (fun () -> Serve.Service.run svc) in
  let t1 = now () in
  let cpu_s = cpu () -. c0 in
  let after = counters () in
  scan_segments seen root;
  rmtree root;
  let step_ms = gaps_ms (List.rev !marks) ~until:t1 in
  let recover_s, replayed, restart_failures = restart p ~work ~pool ~live:(digest o) in
  let _, plan_parts, plan_failures, core = solve_all ~repeat:9 p.specs in
  let spans = Option.fold ~none:[] ~some:stop_trace tr in
  {
    setup_parts;
    timed_parts = List.map (fun ms -> ms /. 1e3) (chunk_sums chunk step_ms);
    mods = p.mods;
    steps = List.length step_ms;
    step_ms;
    cpu_s;
    timed_s = t1 -. t0;
    recover_parts = [ recover_s ];
    (* One hard tenant spec can dominate the sum of the solves, and which
       is hard is the seed's doing; the median tenant's solve scaled to
       all of them stays put. *)
    plan_parts = [ float_of_int tenants *. median plan_parts ];
    cost_per_mod = metered o /. float_of_int p.mods;
    charged_per_mod = o.aggregate_charged /. float_of_int p.mods;
    slo_met = slo_met o;
    digest = digest o;
    failures = reg_failures @ gate o @ restart_failures @ plan_failures;
    layers =
      (if traced then
         serve_layers p ~spans ~before ~after ~t0 ~t1 ~rounds:o.rounds ~svc ~o ~seen ~replayed
           ~core:(core ())
       else []);
  }
