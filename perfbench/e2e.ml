(* The end-to-end benchmark: one workload per invocation, closed-loop
   episodes until [--seconds] have passed, the correctness gate on every
   episode, and one JSON result as the last line of standard output.

     e2e.exe --workload NAME --seed N --seconds S --trace 0|1 --work DIR

   --trace 0 reports the end-to-end metrics; --trace 1 alternates
   untraced and traced episodes and reports the per-layer metrics derived
   from the traced ones, plus the tracing overhead.  Exit code 1 when any
   correctness gate fails (the JSON line still says why), 2 on bad usage. *)

open Harness

(* Episodes a run makes at least, whatever [--seconds] says: a per-part
   median of three outvotes one disturbed episode.  A traced run
   alternates untraced and traced episodes, two of each. *)
let min_episodes ~trace = if trace then 4 else 3

(* Each workload: the steps per window over which step_ms_p50 averages,
   and its episode maker (after once-per-run preparation). *)
let workloads =
  [
    ( "serve-fleet",
      ( 10,
        fun ~seed ~work ~pool ~traced ->
          let p = Fleet.prepare ~seed ~traced in
          fun ~traced -> Fleet.episode p ~work ~pool ~traced ) );
    ( "paper-durable",
      (20, fun ~seed ~work ~pool ~traced:_ ~traced -> Paper.episode ~seed ~work ~pool ~traced)
    );
    ( "skew-partition",
      (1, fun ~seed ~work ~pool ~traced:_ ~traced -> Skew.episode ~seed ~work ~pool ~traced)
    );
  ]

(* The reference kernel's median time on the host this benchmark was tuned
   on, in a quiet period: wall-clock metrics are reported as if the run's
   host were that fast (see [Harness.reference_kernel]). *)
let reference_nominal_s = 0.0097

(* Kernel samples taken before the first episode and after each one,
   beside the one before every set-up part. *)
let host_samples_per_gap = 5

(* Every metric the benchmark reports, with its unit; BENCHMARK.json
   lists the same names and units, and run.py checks that they agree. *)
let end_to_end_units =
  [
    ("setup_s", "s");
    ("mods_per_s", "1/s");
    ("step_ms_p50", "ms");
    ("recover_s", "s");
    ("plan_s", "s");
    ("cost_units_per_mod", "units/mod");
    ("charged_units_per_mod", "units/mod");
    ("slo_met_rate", "fraction");
    ("heap_peak_mb", "MB");
  ]

let layer_units =
  [
    ("serve.register_ms", "ms");
    ("serve.busy_rounds", "count");
    ("serve.idle_rounds", "count");
    ("serve.round_self_ms", "ms");
    ("serve.co_flushes", "count");
    ("durable.fsyncs_per_busy_round", "count");
    ("durable.wal_bytes_per_mod", "bytes/mod");
    ("durable.commits", "count");
    ("durable.replayed_records", "count");
    ("durable.ckpt_stall_ms", "ms");
    ("durable.checkpoints", "count");
    ("ivm.process_ms", "ms");
    ("ivm.batches", "count");
    ("ivm.mods_per_batch", "count");
    ("ivm.process_ms_per_batch_p50", "ms");
    ("ivm.process_ms_per_batch_p99", "ms");
    ("relation.seq_scanned_per_mod", "count/mod");
    ("relation.index_probes_per_mod", "count/mod");
    ("relation.hash_build_per_mod", "count/mod");
    ("relation.hash_probe_per_mod", "count/mod");
    ("relation.output_per_mod", "count/mod");
    ("core.astar_expanded", "count");
    ("core.astar_generated", "count");
    ("core.online_decisions", "count");
    ("core.naive_over_lgm", "ratio");
    ("core.online_over_lgm", "ratio");
    ("tpcr.generate_ms", "ms");
    ("bridge.calibrate_ms", "ms");
    ("partition.run_ms", "ms");
    ("partition.batches", "count");
    ("partition.heavy_coverage", "fraction");
    ("robust.reanchors", "count");
    ("parallel.cpu_per_wall", "ratio");
    ("telemetry.overhead_pct", "%");
  ]

let unit_of name = List.assoc name (end_to_end_units @ layer_units)

let usage () =
  prerr_endline
    "usage: e2e.exe --workload NAME --seed N --seconds S --trace 0|1 --work DIR";
  exit 2

let parse_args () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec go acc = function
    | key :: value :: rest when String.starts_with ~prefix:"--" key ->
        go ((key, value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let kv = go [] args in
  let get key = match List.assoc_opt key kv with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  let workload = get "--workload" in
  let seconds = int "--seconds" and trace = int "--trace" in
  if not (List.mem_assoc workload workloads) || seconds < 1 || (trace <> 0 && trace <> 1) then
    usage ();
  (workload, int "--seed", float_of_int seconds, trace = 1, get "--work")

let rate (e : episode) = float_of_int e.mods /. sum e.timed_parts

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v
  else failwith (Printf.sprintf "non-finite metric value %h" v)

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun (name, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_number v) (unit_of name))
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

(* The peak major heap, read once the first episode has ended and while
   the pool's domains still run: a run makes as many episodes as its
   seconds allow, and the peak must not depend on how many that was. *)
let heap_mb () = float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let heap_peak_mb = ref 0.0

(* Times are assembled from per-part medians over the run's episodes:
   set-up, the timed phase, the restart probe and the plan as sums of
   their parts' medians, step times as each step's median.  The median
   is taken over the mean step of windows of [window] steps: where
   about half the steps flush (paper-durable, at some seeds), the median
   single step flips between a flush and an ingest-only step, and single
   serve rounds carry fsync and GC stalls that come and go with the
   host.  Every wall-clock metric is then scaled from the run's host
   speed to the nominal one; the raw values are printed beside. *)
let end_to_end ~window (eps : episode list) =
  let first = List.hd eps in
  let steps = part_medians (List.map (fun e -> e.step_ms) eps) in
  let parts f = sum (part_medians (List.map f eps)) in
  let host = median !host_samples /. reference_nominal_s in
  let raw =
    [
      ("setup_s", parts (fun e -> e.setup_parts));
      ("mods_per_s", float_of_int first.mods /. parts (fun e -> e.timed_parts));
      ("step_ms_p50", percentile (chunk_means window steps) 50.0);
      ("recover_s", parts (fun e -> e.recover_parts));
      ("plan_s", parts (fun e -> e.plan_parts));
    ]
  in
  Printf.printf "host: reference kernel median %.6f s over %d samples, %.4fx nominal\n"
    (median !host_samples) (List.length !host_samples) host;
  List.iter (fun (n, v) -> Printf.printf "  raw %-28s %s\n" n (json_number v)) raw;
  List.map (fun (n, v) -> (n, if n = "mods_per_s" then v *. host else v /. host)) raw
  @ [
    ("cost_units_per_mod", first.cost_per_mod);
    ("charged_units_per_mod", first.charged_per_mod);
    ("slo_met_rate", first.slo_met);
    ("heap_peak_mb", !heap_peak_mb);
  ]

(* Per-layer metrics: medians over the traced episodes, 0 for a layer the
   workload does not exercise; the CPU share and the tracing overhead
   from the untraced episodes beside them. *)
let per_layer ~traced ~untraced =
  let plain = median (List.map rate untraced) in
  let from_untraced =
    [
      ("parallel.cpu_per_wall", median (List.map (fun e -> e.cpu_s /. e.timed_s) untraced));
      ("telemetry.overhead_pct", 100.0 *. (plain -. median (List.map rate traced)) /. plain);
    ]
  in
  List.map
    (fun (name, _) ->
      match List.assoc_opt name from_untraced with
      | Some v -> (name, v)
      | None ->
          ( name,
            median
              (List.map
                 (fun (e : episode) -> Option.value ~default:0.0 (List.assoc_opt name e.layers))
                 traced) ))
    layer_units

let () =
  let workload, seed, seconds, trace, work = parse_args () in
  Durable.Fsutil.mkdirs work;
  Telemetry.set_clock now;
  let pool = Parallel.Pool.create ~domains:2 () in
  let window, prepare = List.assoc workload workloads in
  let episode = prepare ~seed ~work ~pool ~traced:trace in
  sample_host host_samples_per_gap;
  let start = now () in
  let rec loop n acc =
    if n >= min_episodes ~trace && now () -. start >= seconds
    then List.rev acc
    else begin
      let traced = trace && n mod 2 = 1 in
      let e = episode ~traced in
      if n = 0 then heap_peak_mb := heap_mb ();
      sample_host host_samples_per_gap;
      Printf.printf
        "episode %d%s: setup %.3f s, timed %.3f s (%.0f mods/s), recover %.3f s, plan %.3f s%s\n%!"
        n (if traced then " (traced)" else "") (sum e.setup_parts) e.timed_s (rate e)
        (sum e.recover_parts) (sum e.plan_parts)
        (if e.failures = [] then "" else " FAILED: " ^ String.concat "; " e.failures);
      loop (n + 1) ((traced, e) :: acc)
    end
  in
  let runs = loop 0 [] in
  Parallel.Pool.shutdown pool;
  let eps = List.map snd runs in
  let untraced = List.filter_map (fun (t, e) -> if t then None else Some e) runs in
  let traced = List.filter_map (fun (t, e) -> if t then Some e else None) runs in
  (* Every episode of a run replays the same seeded inputs, so every
     exact result must repeat bit for bit. *)
  let digest0 = (List.hd eps).digest in
  let bad (e : episode) = e.failures <> [] || e.digest <> digest0 in
  List.iter
    (fun (e : episode) ->
      if e.digest <> digest0 then
        print_endline "FAILED: exact outcome differs between episodes of one seed")
    eps;
  let attempted = List.fold_left (fun acc (e : episode) -> acc + e.steps) 0 eps in
  let failed = List.fold_left (fun acc (e : episode) -> if bad e then acc + e.steps else acc) 0 eps in
  let metrics = if trace then per_layer ~traced ~untraced else end_to_end ~window untraced in
  List.iter (fun (n, v) -> Printf.printf "  %-32s %s %s\n" n (json_number v) (unit_of n)) metrics;
  print_result ~correct:(failed = 0) ~attempted ~failed metrics;
  exit (if failed = 0 then 0 else 1)
