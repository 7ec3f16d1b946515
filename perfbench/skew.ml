(* skew-partition: a Zipfian insertion stream into the heavy-light
   engine ([lib/partition]).  Splits come from a sketch over a stream
   sample, per-partition cost curves from the engine, a 4-table A* plan
   over the partitioned arrivals, and [Partition.Runner.run] replays the
   materialized stream under it.  R is small and indexed; S is large and
   gets the heavy path's index, so hot dR keys probe and the tail scans. *)

open Harness

let r_rows = 400
let s_rows = 3000
let horizon = 100
(* Inserts per step into R and S.  At 4 + 8 the 4-table A* search
   dominated the run, and its heap peak (55 to 130 MB) and time varied
   with the seed's hot keys more than anything the engine did. *)
let rates = [| 2; 4 |]
let exponent = 1.1
let sizes = [ 1; 2; 4; 8; 16; 32 ]
let limit_factor = 1.45

let mods = (horizon + 1) * Array.fold_left ( + ) 0 rates

let db ~seed ~indexed =
  let db = Tpcr.Synth.generate ~seed ~r_rows ~s_rows () in
  if indexed then Relation.Table.create_index db.Tpcr.Synth.s "jk";
  Relation.Meter.reset db.Tpcr.Synth.meter;
  db

(* The set-up's generator calls are the tpcr layer's spans; the replays'
   fresh engines are the benchmark's own overhead. *)
let generated ~seed = span "bench.tpcr.generate" (fun () -> db ~seed ~indexed:true)

let engine ~seed ~splits =
  let d = generated ~seed in
  let view = Tpcr.Synth.join_view d in
  let m = Ivm.Maintainer.create ~meter:d.Tpcr.Synth.meter view in
  (d, Partition.Engine.create ~key_of:(Partition.Engine.key_of_view view) ~splits m)

let splits ~seed =
  let d = generated ~seed in
  let key_of = Partition.Engine.key_of_view (Tpcr.Synth.join_view d) in
  let feeds = Tpcr.Synth.zipf_feeds ~seed:(seed + 11) ~exponent d in
  Array.init 2 (fun i ->
      let sk = Partition.Sketch.create () in
      for _ = 1 to 1500 do
        match key_of i (feeds.Tpcr.Updates.next i) with
        | Some k -> Partition.Sketch.observe sk k
        | None -> ()
      done;
      Partition.Split.calibrate ~min_share:0.02 sk)

let costs ~seed ~splits =
  let d, e = engine ~seed ~splits in
  let feeds = Tpcr.Synth.zipf_feeds ~seed:(seed + 11) ~exponent d in
  let upto = 4 * List.fold_left max 1 sizes in
  Array.init (Partition.Pspec.count ~n:2) (fun p ->
      let table, cls = Partition.Pspec.logical p in
      let curve =
        span "bench.bridge.calibrate" (fun () ->
            Partition.Calibrate.measure_curve e
              ~next:(fun () -> feeds.Tpcr.Updates.next table)
              ~table ~cls ~sizes)
      in
      Cost.Func.subadditive_hull ~upto
        (Bridge.Calibrate.tabulated ~name:(Partition.Pspec.label ~names:[| "R"; "S" |] p) curve))

(* Replays of each instance's stream: the run itself is short next to
   the A* solve, so an episode times several fresh-engine replays and
   keeps the median. *)
let replays = 3

(* Independent instances (sub-seeds) per episode: one Zipfian stream of
   this size leaves the plan, and hence the costs, at the mercy of a few
   hot keys; several average that out. *)
let instances = 32

let digest (r : Partition.Runner.result) (sol : Abivm.Astar.result) =
  String.concat ";" [ bits r.cost_units; string_of_int r.batches; bits sol.cost ]

(* [Partition.Engine.arrive] consults the engine's [key_of] twice per
   arrival: once for the online sketch, once to pick the partition. *)
let key_of_calls_per_arrival = 2

(* One [Runner.run] on a fresh engine: its wall and CPU seconds, its
   per-step wall times, and its window for the engine layers. *)
type replay = {
  r_engine : Partition.Engine.t;
  r_result : Partition.Runner.result;
  r_wall : float;
  r_cpu : float;
  r_steps : float list;
  r_window : float * float * Telemetry.Metrics.snapshot * Telemetry.Metrics.snapshot;
  r_failures : string list;
}

(* Step starts are read off the engine's [key_of] callback: the first
   call of each step's first arrival marks the step start.  A run that
   makes another number of calls than [key_of_calls_per_arrival] per
   arrival fails the gate, since its step times would be misread. *)
let stamped_run ~seed ~splits stream ~spec ~plan =
  let d = db ~seed ~indexed:true in
  let view = Tpcr.Synth.join_view d in
  let m = Ivm.Maintainer.create ~meter:d.Tpcr.Synth.meter view in
  let base = Partition.Engine.key_of_view view in
  let expected = key_of_calls_per_arrival * mods in
  let stamps = Array.make (expected + 1) 0.0 and calls = ref 0 in
  let key_of i c =
    if !calls < Array.length stamps then stamps.(!calls) <- now ();
    incr calls;
    base i c
  in
  let e = Partition.Engine.create ~key_of ~splits m in
  let before = counters () in
  let c0 = cpu () and t0 = now () in
  let r = span "bench.partition.run" (fun () -> Partition.Runner.run e stream ~spec ~plan) in
  let t1 = now () in
  let cpu_s = cpu () -. c0 in
  let after = counters () in
  let steps = Array.length stream in
  let ok = !calls = expected in
  let starts = Array.make (steps + 1) t1 and at = ref 0 in
  if ok then
    Array.iteri
      (fun t arr ->
        starts.(t) <- stamps.(!at);
        at := !at + (key_of_calls_per_arrival * List.length arr))
      stream;
  {
    r_engine = e;
    r_result = r;
    r_wall = t1 -. t0;
    r_cpu = cpu_s;
    r_steps = List.init steps (fun t -> 1e3 *. (starts.(t + 1) -. starts.(t)));
    r_window = (t0, t1, before, after);
    r_failures =
      (if ok then []
       else [ Printf.sprintf "key_of called %d times for %d arrivals" !calls mods ]);
  }

(* The view an unpartitioned engine maintains over the same stream. *)
let reference_rows ~seed stream =
  let d = db ~seed ~indexed:false in
  let m = Ivm.Maintainer.create ~meter:d.Tpcr.Synth.meter (Tpcr.Synth.join_view d) in
  Array.iter (List.iter (fun (i, change) -> Ivm.Maintainer.on_arrive m i change)) stream;
  ignore (Ivm.Maintainer.refresh m);
  Ivm.Maintainer.rows m

(* Restart probes per instance. *)
let rebuilds = 3

type instance = {
  i_steps : float list;  (* per-step medians over the replays *)
  i_timed : float;  (* median replay *)
  i_cpu : float;
  i_timed_total : float;
  i_windows : (float * float * Telemetry.Metrics.snapshot * Telemetry.Metrics.snapshot) list;
  i_recover : float list;
  i_plan : float;
  i_cost : float;
  i_charged : float;
  i_slo : float;
  i_digest : string;
  i_failures : string list;
  i_core : (string * float) list;
  i_batches : int;
  i_coverage : float;
}

(* One instance: set-up (splits, per-partition curves, the materialized
   stream and the partitioned spec), the A* plan over the 4-table spec,
   [replays] x [Partition.Runner.run] on fresh engines, and the restart
   probe: rebuilding the view from the final base tables. *)
let instance ~seed =
  (* Untimed.  Without it the major heap crept up by a few MB over every
     32 instances, and the heap peak grew with the number of episodes a
     run happened to make. *)
  Gc.compact ();
  let splits = part (fun () -> splits ~seed) in
  let costs = part (fun () -> costs ~seed ~splits) in
  let stream, spec =
    part (fun () ->
        let d, e = engine ~seed ~splits in
        let stream =
          Partition.Runner.materialize
            ~feeds:(Tpcr.Synth.zipf_feeds ~seed:(seed + 13) ~exponent d)
            ~arrivals:(Array.init (horizon + 1) (fun _ -> Array.copy rates))
        in
        let limit =
          limit_factor
          *. Array.fold_left (fun acc f -> Float.max acc (Cost.Func.eval f 1)) 0.0 costs
        in
        ( stream,
          Partition.Pspec.make ~costs ~limit
            ~arrivals:(Partition.Runner.partitioned_arrivals e stream) ))
  in
  let sols, plan_parts, plan_failures, core = solve_all ~repeat:5 [ spec ] in
  let sol = List.hd sols in
  let runs =
    List.init replays (fun _ -> stamped_run ~seed ~splits stream ~spec ~plan:sol.plan)
  in
  let first = List.hd runs in
  let e = first.r_engine and r = first.r_result in
  let replay_failures =
    List.concat_map
      (fun run ->
        run.r_failures
        @ if digest run.r_result sol = digest r sol then []
          else [ "replays disagree on metered cost" ])
      runs
  in
  let rows = Partition.Engine.rows e in
  let probes =
    List.init rebuilds (fun _ ->
        timed (fun () ->
            span "bench.partition.rebuild" (fun () ->
                let m = Partition.Engine.maintainer e in
                let view = Ivm.Maintainer.view m in
                Partition.Engine.create ~key_of:(Partition.Engine.key_of_view view) ~splits
                  (Ivm.Maintainer.create ~meter:(Ivm.Maintainer.meter m) view))))
  in
  let total f = List.fold_left (fun acc run -> acc +. f run) 0.0 runs in
  {
    i_steps = part_medians (List.map (fun run -> run.r_steps) runs);
    i_timed = median (List.map (fun run -> run.r_wall) runs);
    i_cpu = total (fun run -> run.r_cpu);
    i_timed_total = total (fun run -> run.r_wall);
    i_windows = List.map (fun run -> run.r_window) runs;
    i_recover = List.map snd probes;
    i_plan = List.hd plan_parts;
    i_cost = r.cost_units;
    i_charged = sol.cost;
    i_slo = plan_slo_met spec sol.plan;
    i_digest = digest r sol;
    i_failures =
      plan_failures @ replay_failures
      @ (if List.equal Relation.Tuple.equal rows (reference_rows ~seed stream) then []
         else [ "partitioned view differs from the unpartitioned engine's" ])
      @ List.filter_map
          (fun (rebuilt, _) ->
            if List.equal Relation.Tuple.equal rows (Partition.Engine.rows rebuilt) then None
            else Some "view rebuilt from the base tables differs")
          probes;
    i_core = core ();
    i_batches = r.batches;
    i_coverage = (Partition.Split.coverage splits.(0) +. Partition.Split.coverage splits.(1)) /. 2.0;
  }

let episode ~seed ~work:_ ~pool:_ ~traced =
  let tr = if traced then Some (start_trace ()) else None in
  let xs = List.init instances (fun k -> instance ~seed:((seed * instances) + k)) in
  let spans = Option.fold ~none:[] ~some:stop_trace tr in
  let all f = List.concat_map f xs and total f = List.fold_left (fun acc x -> acc +. f x) 0.0 xs in
  let n = float_of_int (instances * mods) in
  {
    setup_parts = take_parts ();
    timed_parts = List.map (fun x -> x.i_timed) xs;
    mods = instances * mods;
    steps = instances * replays * (horizon + 1);
    step_ms = all (fun x -> x.i_steps);
    cpu_s = total (fun x -> x.i_cpu);
    timed_s = total (fun x -> x.i_timed_total);
    recover_parts = List.map (fun x -> median x.i_recover) xs;
    (* A few hard instances dominate a sum of A* solves, and which are
       hard is the seed's doing; the median instance scaled to all of
       them stays put. *)
    plan_parts = [ float_of_int instances *. median (List.map (fun x -> x.i_plan) xs) ];
    cost_per_mod = total (fun x -> x.i_cost) /. n;
    charged_per_mod = total (fun x -> x.i_charged) /. n;
    slo_met = total (fun x -> x.i_slo) /. float_of_int instances;
    digest = String.concat "|" (List.map (fun x -> x.i_digest) xs);
    failures = all (fun x -> x.i_failures);
    layers =
      (if traced then
         (* The engine layers over the replays alone: calibration, the
            unpartitioned reference engine and the rebuild probes also
            process batches, but outside these windows. *)
         engine_layers spans ~windows:(all (fun x -> x.i_windows))
           ~mods:(replays * instances * mods)
         @ [
             ("core.astar_expanded", total (fun x -> List.assoc "core.astar_expanded" x.i_core));
             ("core.astar_generated", total (fun x -> List.assoc "core.astar_generated" x.i_core));
             ( "core.naive_over_lgm",
               total (fun x -> List.assoc "core.naive_over_lgm" x.i_core) /. float_of_int instances );
             ( "core.online_over_lgm",
               total (fun x -> List.assoc "core.online_over_lgm" x.i_core) /. float_of_int instances );
             ("tpcr.generate_ms", span_ms spans "bench.tpcr.generate");
             ("bridge.calibrate_ms", span_ms spans "bench.bridge.calibrate");
             ("partition.run_ms", span_ms spans "bench.partition.run" /. float_of_int (replays * instances));
             ("partition.batches", float_of_int (List.fold_left (fun acc x -> acc + x.i_batches) 0 xs));
             ("partition.heavy_coverage", total (fun x -> x.i_coverage) /. float_of_int instances);
           ]
       else []);
  }
