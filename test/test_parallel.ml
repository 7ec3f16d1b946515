(* Multicore tests: the domain pool and the sharded meter/metrics
   counters.

   - Pool: map correctness and reuse, exception propagation, detached
     jobs (also refused after shutdown at every domain count).
   - Meter/Metrics: concurrent bumps from several domains are all counted
     (per-domain shards merged at snapshot time), also when four engines
     maintain their views concurrently over one shared meter. *)

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
  (* Detaching or mapping onto a shut-down pool is refused, also on the
     inline domains:1 path, and the task never runs. *)
  List.iter
    (fun domains ->
      let pool = Parallel.Pool.create ~domains () in
      Parallel.Pool.shutdown pool;
      let ran = ref false in
      (match Parallel.Pool.detach pool (fun () -> ran := true) with
      | _ -> Alcotest.failf "domains=%d: detach after shutdown must raise" domains
      | exception Invalid_argument _ -> ());
      (match Parallel.Pool.map pool (fun () -> ran := true) [| (); () |] with
      | _ -> Alcotest.failf "domains=%d: map after shutdown must raise" domains
      | exception Invalid_argument _ -> ());
      check Alcotest.bool
        (Printf.sprintf "domains=%d: refused task never ran" domains)
        false !ran)
    [ 1; 2 ]

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

(* --- maintainers on two domains ---------------------------------------------- *)

(* One maintainer driven through seeded batches: its rows, its meter
   snapshot and every batch's cost bits.  The maintainer and its database
   are built on the calling domain. *)
type run = Relation.Tuple.t list * Relation.Meter.snapshot * int64 list

let drive ~make ~batches : run =
  let m, feeds, widths = make () in
  let g = Util.Prng.create ~seed:17 in
  let costs =
    List.init batches (fun _ ->
        let batch = Array.map (fun w -> if w = 0 then 0 else Util.Prng.int g w) widths in
        Ivm.Maintainer.ingest m ~next:feeds.Tpcr.Updates.next batch;
        Int64.bits_of_float (Ivm.Maintainer.apply m batch))
  in
  (Ivm.Maintainer.rows m, Relation.Meter.snapshot (Ivm.Maintainer.meter m), costs)

(* First order on the TPC-R MIN view: Supplier batches fan out into
   PartSupp through its index, PartSupp batches scan. *)
let tpcr_fo () =
  let db = Tpcr.Gen.generate ~seed:5 ~scale:0.01 () in
  ( Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter (Tpcr.Gen.min_supplycost_view db),
    Tpcr.Updates.paper_feeds ~seed:12 db,
    [| 9; 9; 0; 0 |] )

(* Higher order on the synthetic join: every batch also expands into the
   other table's delta view. *)
let synth_ho () =
  let db = Tpcr.Synth.generate ~seed:6 ~r_rows:600 ~s_rows:600 () in
  ( Ivm.Maintainer.create ~order:Ivm.Viewdef.Higher_order (Tpcr.Synth.join_view db),
    Tpcr.Synth.insert_feeds ~seed:13 db,
    [| 9; 9 |] )

(* Two domains each drive their own maintainer at the same time; each
   must end bit for bit where a sequential run ends.  The delta-join
   kernel's scratch belongs to its maintainer: a buffer shared between
   maintainers would let one domain's batch overwrite the other's
   partials or netting table mid-batch. *)
let test_two_domain_maintainers () =
  let batches = 120 in
  let seq_fo = drive ~make:tpcr_fo ~batches and seq_ho = drive ~make:synth_ho ~batches in
  for round = 1 to 2 do
    let ready = Atomic.make 0 in
    let start make =
      Domain.spawn (fun () ->
          (* build first, then wait for the other domain, so the two
             batch loops overlap *)
          let built = make () in
          Atomic.incr ready;
          while Atomic.get ready < 2 do
            Domain.cpu_relax ()
          done;
          drive ~make:(fun () -> built) ~batches)
    in
    let fo = start tpcr_fo and ho = start synth_ho in
    let fo = Domain.join fo and ho = Domain.join ho in
    check Alcotest.bool (Printf.sprintf "round %d: FO = sequential" round) true (fo = seq_fo);
    check Alcotest.bool (Printf.sprintf "round %d: HO = sequential" round) true (ho = seq_ho)
  done

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "map correctness and reuse" `Quick test_pool_map;
          Alcotest.test_case "exception propagation" `Quick
            test_pool_exception;
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
      ( "maintainers",
        [
          Alcotest.test_case "two domains, FO and HO, equal sequential runs"
            `Quick test_two_domain_maintainers;
        ] );
    ]
