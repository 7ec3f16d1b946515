(* Multicore tests: the domain pool, the sharded meter/metrics counters,
   and the parallel multiview coordinator.

   - Pool: map correctness and reuse, exception propagation, the
     cooperative-batch size guard.
   - Meter/Metrics: concurrent bumps from several domains are all counted
     (per-domain shards merged at snapshot time), also when four engines
     maintain their views concurrently over one shared meter.
   - Multiview: a pooled coordinator run yields the same outcome as the
     sequential one. *)

let check = Alcotest.check

(* --- pool ------------------------------------------------------------------ *)

let test_pool_map () =
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      (* Several batches through one pool: results in order, pool reusable. *)
      for round = 1 to 3 do
        let input = Array.init 100 (fun i -> i + round) in
        let out = Parallel.Pool.map pool (fun x -> (x * x) + round) input in
        Array.iteri
          (fun i x ->
            check Alcotest.int
              (Printf.sprintf "round %d slot %d" round i)
              ((x * x) + round)
              out.(i))
          input
      done;
      check Alcotest.int "domains" 4 (Parallel.Pool.domains pool))

let test_pool_exception () =
  Parallel.Pool.with_pool ~domains:3 (fun pool ->
      (match
         Parallel.Pool.map pool
           (fun x -> if x = 7 then failwith "boom" else x)
           (Array.init 20 Fun.id)
       with
      | _ -> Alcotest.fail "expected the task failure to propagate"
      | exception Failure m -> check Alcotest.string "message" "boom" m);
      (* The failed batch must not poison the pool. *)
      let out = Parallel.Pool.map pool (fun x -> x + 1) [| 1; 2; 3 |] in
      check Alcotest.(array int) "after failure" [| 2; 3; 4 |] out)

let test_pool_run_guard () =
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      match Parallel.Pool.run pool (List.init 3 (fun _ () -> ())) with
      | () -> Alcotest.fail "expected Invalid_argument"
      | exception Invalid_argument _ -> ())

let test_pool_detach () =
  (* Detached background jobs: poll/await semantics, failure re-raise at
     await (not at detach), and the domains:1 inline degenerate case —
     the surface [Durable.Checkpoint.write_async] is built on. *)
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      let cell = Atomic.make 0 in
      let gate = Atomic.make false in
      let job =
        Parallel.Pool.detach pool (fun () ->
            while not (Atomic.get gate) do
              Domain.cpu_relax ()
            done;
            Atomic.set cell 42)
      in
      check Alcotest.bool "running while gated" true
        (Parallel.Pool.poll job = `Running);
      Atomic.set gate true;
      Parallel.Pool.await job;
      check Alcotest.bool "done after await" true
        (Parallel.Pool.poll job = `Done);
      check Alcotest.int "effect visible to the submitter" 42 (Atomic.get cell);
      (* Await is idempotent. *)
      Parallel.Pool.await job;
      (* A failing job re-raises at await and reports `Failed. *)
      let bad = Parallel.Pool.detach pool (fun () -> failwith "bg boom") in
      (match Parallel.Pool.await bad with
      | () -> Alcotest.fail "expected the job failure to re-raise"
      | exception Failure m -> check Alcotest.string "message" "bg boom" m);
      check Alcotest.bool "failed poll" true (Parallel.Pool.poll bad = `Failed);
      (* The failed job must not poison later batches. *)
      let out = Parallel.Pool.map pool (fun x -> x * 2) [| 1; 2 |] in
      check Alcotest.(array int) "pool still works" [| 2; 4 |] out);
  (* domains:1 — no worker domains: the task runs inline before [detach]
     returns, keeping the sequential path bit-identical. *)
  Parallel.Pool.with_pool ~domains:1 (fun pool ->
      let cell = ref 0 in
      let job = Parallel.Pool.detach pool (fun () -> cell := 7) in
      check Alcotest.int "inline job already ran" 7 !cell;
      check Alcotest.bool "already settled" true
        (Parallel.Pool.poll job = `Done);
      Parallel.Pool.await job);
  (* Detaching onto a shut-down pool is refused. *)
  let pool = Parallel.Pool.create ~domains:2 () in
  Parallel.Pool.shutdown pool;
  match Parallel.Pool.detach pool (fun () -> ()) with
  | _ -> Alcotest.fail "detach after shutdown must raise"
  | exception Invalid_argument _ -> ()

let test_pool_cooperative () =
  (* [run] tasks may block on each other: a two-task rendezvous. *)
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      let a = Atomic.make 0 and b = Atomic.make 0 in
      let wait_for cell v =
        while Atomic.get cell < v do
          Domain.cpu_relax ()
        done
      in
      Parallel.Pool.run pool
        [
          (fun () ->
            Atomic.set a 1;
            wait_for b 1;
            Atomic.set a 2);
          (fun () ->
            wait_for a 1;
            Atomic.set b 1;
            wait_for a 2);
        ];
      check Alcotest.int "a" 2 (Atomic.get a);
      check Alcotest.int "b" 1 (Atomic.get b))

(* --- sharded counters ------------------------------------------------------ *)

let test_meter_concurrent () =
  let meter = Relation.Meter.create () in
  let per_domain = 10_000 in
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      ignore
        (Parallel.Pool.map pool
           (fun _ ->
             for _ = 1 to per_domain do
               Relation.Meter.bump_seq_scanned meter 1;
               Relation.Meter.bump_output meter 2
             done)
           (Array.init 8 Fun.id)));
  let s = Relation.Meter.snapshot meter in
  check Alcotest.int "seq_scanned" (8 * per_domain) s.Relation.Meter.seq_scanned;
  check Alcotest.int "output" (2 * 8 * per_domain) s.Relation.Meter.output

let test_metrics_concurrent () =
  let module M = Telemetry.Metrics in
  let reg = M.create () in
  let per_task = 5_000 in
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      ignore
        (Parallel.Pool.map pool
           (fun i ->
             let c = M.counter reg "par.count" in
             let h = M.histogram reg "par.obs" in
             for j = 1 to per_task do
               M.inc1 c;
               M.observe h (float_of_int ((i + j) mod 10))
             done)
           (Array.init 8 Fun.id)));
  let snap = M.snapshot reg in
  check (Alcotest.float 0.0) "counter" (float_of_int (8 * per_task))
    (M.value snap "par.count");
  match M.find snap "par.obs" with
  | None -> Alcotest.fail "histogram missing"
  | Some s -> check Alcotest.int "observations" (8 * per_task) s.M.sample_count

(* Four real engines (independent synth databases) share one meter and
   are flushed concurrently; the merged snapshot must equal the
   sequential flush's totals field for field. *)
let test_meter_concurrent_engines () =
  let flush_views pool =
    let meter = Relation.Meter.create () in
    let engines =
      Array.init 4 (fun v ->
          let db = Tpcr.Synth.generate ~seed:(73 + v) ~r_rows:150 ~s_rows:150 () in
          ( Ivm.Maintainer.create ~meter (Tpcr.Synth.join_view db),
            Tpcr.Synth.insert_feeds ~seed:(99 + v) db ))
    in
    let work (m, feeds) =
      for step = 1 to 48 do
        let i = step land 1 in
        Ivm.Maintainer.on_arrive m i (feeds.Tpcr.Updates.next i);
        if step mod 8 = 0 then ignore (Ivm.Maintainer.refresh m)
      done
    in
    (match pool with
    | Some pool -> ignore (Parallel.Pool.map pool work engines)
    | None -> Array.iter work engines);
    Relation.Meter.snapshot meter
  in
  let seq = flush_views None in
  List.iter
    (fun domains ->
      Parallel.Pool.with_pool ~domains (fun pool ->
          check Alcotest.bool
            (Printf.sprintf "domains=%d totals = sequential" domains)
            true
            (flush_views (Some pool) = seq)))
    [ 2; 4 ]

(* --- multiview ------------------------------------------------------------- *)

let mv_problem () =
  let n = 3 and horizon = 120 in
  let views =
    Array.init 4 (fun v ->
        {
          Multiview.Coordinator.name = Printf.sprintf "v%d" v;
          costs =
            Array.init n (fun i ->
                Cost.Func.affine
                  ~a:(1.0 +. (0.3 *. float_of_int ((v + i) mod 3)))
                  ~b:(0.5 *. float_of_int (v + 1)));
          limit = 12.0 +. (2.0 *. float_of_int v);
        })
  in
  let prng = Util.Prng.create ~seed:11 in
  let arrivals =
    Array.init (horizon + 1) (fun _ ->
        Array.init n (fun _ -> Util.Prng.int prng 3))
  in
  (views, Array.make n 1.0, arrivals)

let outcomes_equal (a : Multiview.Coordinator.outcome)
    (b : Multiview.Coordinator.outcome) =
  a.total_cost = b.total_cost
  && a.undiscounted_cost = b.undiscounted_cost
  && a.co_flushes = b.co_flushes && a.valid = b.valid
  && a.per_view_cost = b.per_view_cost

let test_multiview_pool () =
  let views, shared_setup, arrivals = mv_problem () in
  let seq =
    Multiview.Coordinator.independent ~views ~shared_setup ~arrivals ()
  in
  Parallel.Pool.with_pool ~domains:4 (fun pool ->
      let par =
        Multiview.Coordinator.independent ~pool ~views ~shared_setup ~arrivals
          ()
      in
      if not (outcomes_equal seq par) then
        Alcotest.fail "pooled independent run diverged from sequential";
      let seq_pig =
        Multiview.Coordinator.piggyback ~views ~shared_setup ~arrivals ()
      in
      let par_pig =
        Multiview.Coordinator.piggyback ~pool ~views ~shared_setup ~arrivals ()
      in
      if not (outcomes_equal seq_pig par_pig) then
        Alcotest.fail "pooled piggyback run diverged from sequential")

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map correctness and reuse" `Quick test_pool_map;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
          Alcotest.test_case "run batch-size guard" `Quick test_pool_run_guard;
          Alcotest.test_case "cooperative tasks" `Quick test_pool_cooperative;
          Alcotest.test_case "detached jobs: poll, await, inline" `Quick
            test_pool_detach;
        ] );
      ( "counters",
        [
          Alcotest.test_case "meter concurrent bumps" `Quick
            test_meter_concurrent;
          Alcotest.test_case "metrics concurrent updates" `Quick
            test_metrics_concurrent;
          Alcotest.test_case "shared meter across concurrent engines" `Quick
            test_meter_concurrent_engines;
        ] );
      ( "multiview",
        [
          Alcotest.test_case "pooled = sequential outcome" `Quick
            test_multiview_pool;
        ] );
    ]
