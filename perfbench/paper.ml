(* paper-durable: the paper's §5 setting.  TPC-R, the MIN(supplycost)
   view, cost curves calibrated from the engine (Fig. 4), C twice the
   PartSupp single-modification cost (Fig. 6), one PartSupp and one
   Supplier update per step.  The OPT-LGM plan from A* runs through
   [Durable.Exec] with the WAL and pooled off-thread checkpoints.  The WAL
   group-commits, one fsync per [sync_every] commits: with an fsync per
   commit the median step is the disk's fsync latency, which flipped
   between about 0.12 and 0.25 ms from run to run on the host this was
   tuned on, and serve-fleet already measures an fsync per round. *)

open Harness

let scale = 0.05
let horizon = 2000
let curve_sizes = [ 1; 2; 5; 10; 20; 50; 100; 200; 400; 600; 800; 1000 ]

let mods = 2 * (horizon + 1)
let sync_every = 16

let fresh ~seed =
  let db = part (fun () -> span "bench.tpcr.generate" (fun () -> Tpcr.Gen.generate ~seed ~scale ())) in
  let m =
    part (fun () ->
        Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter (Tpcr.Gen.min_supplycost_view db))
  in
  Relation.Meter.reset db.Tpcr.Gen.meter;
  (db, m)

(* Fig. 4: the PartSupp and Supplier curves, measured on a throwaway
   database from the same seed. *)
let costs ~seed =
  let db, m = fresh ~seed in
  let feeds = Tpcr.Updates.paper_feeds ~seed:(seed + 7) db in
  let curve table name =
    Bridge.Calibrate.tabulated ~name
      (part (fun () ->
           span "bench.bridge.calibrate" (fun () ->
               Bridge.Calibrate.measure_curve m feeds ~table ~sizes:curve_sizes)))
  in
  let untouched = Cost.Func.linear ~a:1.0 in
  [| curve 0 "c_dPartSupp"; curve 1 "c_dSupplier"; untouched; untouched |]

let spec costs =
  Abivm.Spec.make ~costs
    ~limit:(2.0 *. Cost.Func.eval costs.(0) 1)
    ~arrivals:(Array.init (horizon + 1) (fun _ -> [| 1; 1; 0; 0 |]))

(* The same view over checkpoint-restored tables (planner order: PartSupp,
   Supplier, Nation, Region; Part is not in the view). *)
let view_of tables =
  Tpcr.Gen.min_supplycost_view
    {
      Tpcr.Gen.partsupp = tables.(0);
      supplier = tables.(1);
      nation = tables.(2);
      region = tables.(3);
      part = tables.(0);
      meter = Relation.Table.meter tables.(0);
    }

let digest (o : Durable.Exec.outcome) (sol : Abivm.Astar.result) =
  String.concat ";"
    (bits o.total_cost :: bits sol.cost :: string_of_int o.lsn
    :: List.map Relation.Tuple.to_string o.rows)

(* Steps per part of the timed phase. *)
let chunk = 100

(* Restart probes per episode: recovery is read-only and short. *)
let recoveries = 3

(* Set-up calibrates and generates; the plan is OPT-LGM from A*; the
   timed phase is [Durable.Exec.run] (one step per plan step, observed by
   the Step_start hook); the restart probe is [Durable.Recovery.recover]
   of the finished directory, which must give back the same view and
   cost. *)
let episode ~seed ~work ~pool ~traced =
  let dir = Filename.concat work "paper" in
  rmtree dir;
  let tr = if traced then Some (start_trace ()) else None in
  let spec = spec (costs ~seed) in
  let db, m = fresh ~seed:(seed + 1) in
  let setup_parts = take_parts () in
  let setup_spans = Option.fold ~none:[] ~some:(fun (t : trace) -> t.spans ()) tr in
  let sols, plan_parts, plan_failures, core = solve_all ~repeat:3 [ spec ] in
  let sol = List.hd sols in
  (* [Exec.run] asks for the genesis state once; hand over the one
     built in set-up. *)
  let genesis = ref (Some (m, Tpcr.Updates.paper_feeds ~seed:(seed + 8) db)) in
  let fresh () =
    match !genesis with
    | Some g ->
        genesis := None;
        g
    | None ->
        let db, m = fresh ~seed:(seed + 1) in
        ignore (take_parts ());
        (m, Tpcr.Updates.paper_feeds ~seed:(seed + 8) db)
  in
  let seen = wal_bytes () in
  let marks = ref [] in
  let hook = function
    | Durable.Hook.Step_start _ -> marks := now () :: !marks
    | Durable.Hook.Rotated _ when traced -> scan_segments seen dir
    | _ -> ()
  in
  let config =
    {
      (Durable.Exec.default_config ~dir) with
      hook;
      pool = Some pool;
      sync = Durable.Wal.Interval sync_every;
    }
  in
  let env = { Durable.Exec.fresh; view_of; spec; plan = sol.plan; params = [] } in
  let before = counters () in
  let c0 = cpu () and t0 = now () in
  let o = span "bench.durable.exec" (fun () -> Durable.Exec.run config env) in
  let t1 = now () in
  let cpu_s = cpu () -. c0 in
  let after = counters () in
  scan_segments seen dir;
  let step_ms = gaps_ms (List.rev !marks) ~until:t1 in
  let probes =
    List.init recoveries (fun _ ->
        timed (fun () ->
            span "bench.durable.recover" (fun () ->
                Durable.Recovery.recover ~dir ~view_of ~fresh:(fun () -> fst (fresh ())))))
  in
  let after_recover = counters () in
  let restart_failures =
    List.concat_map
      (fun (recovered, _) ->
        match recovered with
        | Error e -> [ "recovery of the finished run: " ^ e ]
        | Ok st ->
            if
              st.Durable.Recovery.cost = o.total_cost
              && List.equal Relation.Tuple.equal (Ivm.Maintainer.rows st.maintainer) o.rows
            then []
            else [ "recovered view or cost differs from the finished run" ])
      probes
  in
  let spans = Option.fold ~none:[] ~some:stop_trace tr in
  rmtree dir;
  {
    setup_parts;
    timed_parts = List.map (fun ms -> ms /. 1e3) (chunk_sums chunk step_ms);
    mods;
    steps = List.length step_ms;
    step_ms;
    cpu_s;
    timed_s = t1 -. t0;
    recover_parts = [ median (List.map snd probes) ];
    plan_parts;
    cost_per_mod = o.total_cost /. float_of_int mods;
    charged_per_mod = sol.cost /. float_of_int mods;
    slo_met = plan_slo_met spec sol.plan;
    digest = digest o sol;
    failures =
      plan_failures @ restart_failures
      @ (if o.consistent then [] else [ "Exec outcome inconsistent with a recompute" ]);
    layers =
      (if traced then
         core ()
         @ engine_layers spans ~windows:[ (t0, t1, before, after) ] ~mods
         @ durable_counts ~before ~after
         @ [
             ("tpcr.generate_ms", span_ms setup_spans "bench.tpcr.generate");
             ("bridge.calibrate_ms", span_ms setup_spans "bench.bridge.calibrate");
             ( "durable.fsyncs_per_busy_round",
               counter_delta ~before ~after "durable.fsyncs" /. float_of_int (horizon + 1) );
             ("durable.wal_bytes_per_mod", float_of_int (total_wal_bytes seen) /. float_of_int mods);
             ( "durable.replayed_records",
               counter_delta ~before:after ~after:after_recover "durable.replayed_records"
               /. float_of_int recoveries );
           ]
       else []);
  }
