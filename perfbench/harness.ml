(* Shared plumbing for the end-to-end benchmark: clocks, order
   statistics, scratch directories, and the in-memory trace a traced
   episode is derived from.  Nothing here knows about a workload. *)

(* Monotonic seconds with nanosecond resolution: the shortest steps
   (an arrival-only skew-partition step) take a few microseconds.  The
   trace clock is set to the same function, so spans and the benchmark's
   own marks share one time base. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* Process CPU seconds (all domains), for parallel.cpu_per_wall. *)
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let timed f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* Host speed.  On a shared host the same code runs up to 1.5x slower for
   minutes at a time, and every timing of a run moves with it.  A fixed
   kernel (open-addressing inserts of pseudo-random keys into a 2 MiB
   table, a shell sort, a sweep: random and sequential memory traffic
   like the engine's) is timed before every set-up part and between
   episodes; the median of those samples over a run is the run's host
   speed, and wall-clock metrics are reported at a nominal speed (see
   [E2e]).  The kernel works in arrays allocated once, here, and
   allocates nothing when it runs, so it does no GC work: the size of
   the program's heap, or the garbage it leaves, cannot slow it, and no
   change to the program moves it. *)
let kernel_table = Array.make (1 lsl 18) 0
let kernel_sorted = Array.make 50_000 0

let reference_kernel () =
  let t0 = now () in
  let table = kernel_table and mask = Array.length kernel_table - 1 in
  Array.fill table 0 (Array.length table) 0;
  let x = ref 7 in
  for _ = 1 to 80_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fff_ffff;
    let key = !x + 1 in
    let j = ref ((key * 0x9e37_79b1) lsr 7 land mask) in
    while table.(!j) <> 0 && table.(!j) <> key do
      j := (!j + 1) land mask
    done;
    table.(!j) <- key
  done;
  let a = kernel_sorted in
  let n = Array.length a in
  for i = 0 to n - 1 do
    a.(i) <- (i * 7919) mod 10007
  done;
  let gap = ref 1 in
  while !gap < n / 3 do
    gap := (3 * !gap) + 1
  done;
  while !gap >= 1 do
    let g = !gap in
    for i = g to n - 1 do
      let v = a.(i) and j = ref i in
      while !j >= g && a.(!j - g) > v do
        a.(!j) <- a.(!j - g);
        j := !j - g
      done;
      a.(!j) <- v
    done;
    gap := g / 3
  done;
  let acc = ref 0 in
  for i = 0 to mask do
    acc := !acc + table.(i)
  done;
  ignore (Sys.opaque_identity (!acc + a.(n / 2)));
  now () -. t0

let host_samples : float list ref = ref []

let sample_host n =
  for _ = 1 to n do
    host_samples := reference_kernel () :: !host_samples
  done

(* Set-up parts timed so far, newest first; see {!part}. *)
let parts_log : float list ref = ref []

(* Run one set-up part, logging its wall time. *)
let part f =
  sample_host 1;
  let v, s = timed f in
  parts_log := s :: !parts_log;
  v

let take_parts () =
  let l = List.rev !parts_log in
  parts_log := [];
  l

(* One closed-loop episode of a workload: fresh state built (set-up),
   then the timed phase, then the restart/plan probes and the
   correctness gate.  Every episode of a run does identical work, split
   into the same parts, so a run can take each part's median over its
   episodes: host interference that hits one episode's part is voted
   out.  Wall-clock fields vary from run to run; the per-modification
   costs, [slo_met] and [digest] are functions of the seed alone. *)
type episode = {
  setup_parts : float list;  (** seconds of each set-up part *)
  timed_parts : float list;  (** seconds of each part of the timed phase *)
  mods : int;  (** modifications the timed parts maintain *)
  steps : int;  (** time steps attempted in the timed phase *)
  step_ms : float list;  (** wall time of each observed step *)
  cpu_s : float;  (** process CPU seconds of the timed phase *)
  timed_s : float;  (** wall seconds of the whole timed phase *)
  recover_parts : float list;  (** seconds of each restart probe *)
  plan_parts : float list;  (** seconds of each OPT-LGM solve *)
  cost_per_mod : float;  (** metered engine cost units per modification *)
  charged_per_mod : float;  (** model cost units per modification *)
  slo_met : float;  (** share of (tenant-)steps ending within [C] *)
  digest : string;  (** exact outcome; must repeat across episodes *)
  failures : string list;  (** correctness-gate failures *)
  layers : (string * float) list;  (** per-layer metrics, traced episodes *)
}

(* --- order statistics ------------------------------------------------------ *)

let percentile xs p =
  match xs with
  | [] -> nan
  | _ -> Util.Stats.percentile (Array.of_list xs) p

let median xs = percentile xs 50.0

let sum xs = List.fold_left ( +. ) 0.0 xs

(* Element-wise medians of equally long lists (one list per episode). *)
let part_medians lists =
  match List.map Array.of_list lists with
  | [] -> []
  | first :: _ as arrays ->
      List.init (Array.length first) (fun i -> median (List.map (fun a -> a.(i)) arrays))

(* Consecutive differences of increasing marks, in milliseconds. *)
let gaps_ms marks ~until =
  List.map2 (fun a b -> 1e3 *. (b -. a)) marks (List.tl marks @ [ until ])

(* Consecutive runs of [n] elements (the last run may be short). *)
let chunks n xs =
  let rec go acc cur k = function
    | [] -> List.rev (if k = 0 then acc else List.rev cur :: acc)
    | x :: rest ->
        if k + 1 = n then go (List.rev (x :: cur) :: acc) [] 0 rest
        else go acc (x :: cur) (k + 1) rest
  in
  go [] [] 0 xs

let chunk_sums n xs = List.map sum (chunks n xs)

let chunk_means n xs =
  List.map (fun c -> sum c /. float_of_int (List.length c)) (chunks n xs)

(* --- scratch files ---------------------------------------------------------- *)

let rec rmtree path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
      Array.iter (fun e -> rmtree (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* WAL segment bytes under [root], remembered per file so a segment that
   a checkpoint later truncates away still counts: call [scan_segments] at every
   rotation and once at the end. *)
type wal_bytes = (string, int) Hashtbl.t

let wal_bytes () : wal_bytes = Hashtbl.create 16

let rec scan_segments (seen : wal_bytes) dir =
  match Sys.readdir dir with
  | entries ->
      Array.iter
        (fun e ->
          let p = Filename.concat dir e in
          match (Unix.stat p).Unix.st_kind with
          | Unix.S_DIR -> scan_segments seen p
          | Unix.S_REG when Filename.check_suffix e ".seg" ->
              let size = (Unix.stat p).Unix.st_size in
              let prev = Option.value ~default:0 (Hashtbl.find_opt seen p) in
              Hashtbl.replace seen p (max prev size)
          | _ -> ()
          | exception Unix.Unix_error _ -> ())
        entries
  | exception Sys_error _ -> ()

let total_wal_bytes (seen : wal_bytes) = Hashtbl.fold (fun _ b acc -> acc + b) seen 0

(* --- exactness ---------------------------------------------------------------- *)

(* Floats enter digests by their bits, so "repeats" means bit-for-bit. *)
let bits f = Printf.sprintf "%Lx" (Int64.bits_of_float f)

(* --- trace -------------------------------------------------------------------- *)

(* A traced episode: the benchmark's own spans around public calls plus
   every span and counter the program emits, kept in memory until the
   episode ends.  Untraced episodes run with the collector off, so
   [span] is then exactly the thunk. *)
type trace = { spans : unit -> Telemetry.Span.t list }

let span name f = Telemetry.with_span ~name f

let start_trace () =
  let sink, spans = Telemetry.Sink.memory () in
  Telemetry.enable ~sinks:[ sink ] ();
  { spans }

let stop_trace (tr : trace) =
  let spans = tr.spans () in
  Telemetry.disable ();
  spans

let counters () = Telemetry.snapshot ()

(* Sum of a counter over every label set, between two snapshots. *)
let counter_delta ~before ~after name =
  List.fold_left
    (fun acc (s : Telemetry.Metrics.sample) -> acc +. s.sample_value)
    0.0
    (Telemetry.Metrics.find_all (Telemetry.Metrics.diff after before) name)

let spans_named spans name =
  List.filter (fun (s : Telemetry.Span.t) -> s.name = name) spans

let spans_within spans ~t0 ~t1 =
  List.filter
    (fun (s : Telemetry.Span.t) -> s.start >= t0 && s.start +. s.duration <= t1)
    spans

let span_ms spans name =
  1e3 *. sum (List.map (fun (s : Telemetry.Span.t) -> s.duration) (spans_named spans name))

(* Wall time of [lo, hi] not covered by any of [children] (intervals may
   overlap — pooled work runs on two domains). *)
let self_time ~lo ~hi children =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      children
    |> List.sort compare
  in
  let covered, _ =
    List.fold_left
      (fun (acc, reach) (a, b) ->
        if b <= reach then (acc, reach)
        else (acc +. (b -. Float.max a reach), b))
      (0.0, lo) clipped
  in
  hi -. lo -. covered

let intervals spans =
  List.map (fun (s : Telemetry.Span.t) -> (s.start, s.start +. s.duration)) spans

let attr_int (s : Telemetry.Span.t) key =
  match List.assoc_opt key s.attrs with
  | Some v -> Option.value ~default:0 (int_of_string_opt v)
  | None -> 0

(* The ivm and relation layers, derived identically on every workload
   from the [maintainer.process] spans and [meter.*] counters booked in
   the timed [windows], each [(t0, t1, before, after)]: a wall-clock
   interval and the counter snapshots taken around it.  [mods] is the
   modifications the windows maintain together. *)
let engine_layers spans ~windows ~mods =
  let proc =
    List.concat_map
      (fun (t0, t1, _, _) -> spans_named (spans_within spans ~t0 ~t1) "maintainer.process")
      windows
  in
  let ms = List.map (fun (s : Telemetry.Span.t) -> 1e3 *. s.duration) proc in
  let batches = List.length proc in
  let batched = List.fold_left (fun acc s -> acc + attr_int s "k") 0 proc in
  let counted name =
    List.fold_left
      (fun acc (_, _, before, after) -> acc +. counter_delta ~before ~after name)
      0.0 windows
  in
  let per_mod name = counted name /. float_of_int (max 1 mods) in
  let p q = if ms = [] then 0.0 else percentile ms q in
  [
    ("ivm.process_ms", sum ms);
    ("ivm.batches", float_of_int batches);
    ("ivm.mods_per_batch", float_of_int batched /. float_of_int (max 1 batches));
    ("ivm.process_ms_per_batch_p50", p 50.0);
    ("ivm.process_ms_per_batch_p99", p 99.0);
    ("relation.seq_scanned_per_mod", per_mod "meter.seq_scanned");
    ("relation.index_probes_per_mod", per_mod "meter.index_probes");
    ("relation.hash_build_per_mod", per_mod "meter.hash_build");
    ("relation.hash_probe_per_mod", per_mod "meter.hash_probe");
    ("relation.output_per_mod", per_mod "meter.output");
  ]

(* --- the simulated strategies behind the Fig. 6 ordering ------------------------ *)

(* NAIVE and ONLINE simulated cost over the OPT-LGM optimum, summed over
   the given specs (exact: pure functions of the specs). *)
let fig6_ratios specs_and_opt =
  let naive, online, opt =
    List.fold_left
      (fun (n, o, l) (spec, lgm) ->
        ( n +. (Abivm.Simulate.naive spec).Abivm.Report.total_cost,
          o +. (Abivm.Simulate.online spec).Abivm.Report.total_cost,
          l +. lgm ))
      (0.0, 0.0, 0.0) specs_and_opt
  in
  [ ("core.naive_over_lgm", naive /. opt); ("core.online_over_lgm", online /. opt) ]

(* The offline OPT-LGM solve of every spec, [repeat] times over: each
   spec's median wall seconds, the solutions, gate failures (a plan must
   validate), and the core-layer counts of one pass. *)
let solve_all ?(repeat = 1) specs =
  let pass () =
    List.map (fun s -> timed (fun () -> span "bench.astar.solve" (fun () -> Abivm.Astar.solve s))) specs
  in
  let before = counters () in
  let first = pass () in
  let after = counters () in
  let rest = List.init (repeat - 1) (fun _ -> List.map snd (pass ())) in
  let sols = List.map fst first in
  let plan_parts = part_medians (List.map snd first :: rest) in
  let failures =
    List.concat_map
      (fun (s, (r : Abivm.Astar.result)) ->
        if Abivm.Plan.is_valid s r.plan then [] else [ "OPT-LGM plan fails validation" ])
      (List.combine specs sols)
  in
  let core () =
    [
      ("core.astar_expanded", counter_delta ~before ~after "astar.expanded");
      ("core.astar_generated", counter_delta ~before ~after "astar.generated");
    ]
    @ fig6_ratios (List.combine specs (List.map (fun (r : Abivm.Astar.result) -> r.cost) sols))
  in
  (sols, plan_parts, failures, core)

(* Share of steps a plan ends within the response-time limit. *)
let plan_slo_met spec plan =
  let states = Abivm.Plan.states spec plan in
  let ok =
    Array.fold_left
      (fun acc (_, post) -> if Abivm.Spec.f spec post <= Abivm.Spec.limit spec then acc + 1 else acc)
      0 states
  in
  float_of_int ok /. float_of_int (Array.length states)

(* The durable layer's counters over a phase. *)
let durable_counts ~before ~after =
  [
    ("durable.commits", counter_delta ~before ~after "durable.commits");
    ("durable.ckpt_stall_ms", counter_delta ~before ~after "durable.ckpt_stall_ms");
    ("durable.checkpoints", counter_delta ~before ~after "durable.checkpoints");
  ]
