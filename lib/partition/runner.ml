type stream = (int * Ivm.Change.t) list array

let materialize ~feeds ~arrivals =
  let horizon1 = Array.length arrivals in
  let stream = Array.make horizon1 [] in
  for t = 0 to horizon1 - 1 do
    let acc = ref [] in
    Array.iteri
      (fun i k ->
        for _ = 1 to k do
          acc := (i, feeds.Tpcr.Updates.next i) :: !acc
        done)
      arrivals.(t);
    stream.(t) <- List.rev !acc
  done;
  stream

(* Per step, how many arrivals [class_of] puts in each of [width]
   classes; [class_of] sees the stream in order. *)
let count_by width class_of stream =
  Array.map
    (fun step ->
      let counts = Array.make width 0 in
      List.iter
        (fun (i, change) ->
          let c = class_of i change in
          counts.(c) <- counts.(c) + 1)
        step;
      counts)
    stream

let partitioned_arrivals e = count_by (Engine.n_partitions e) (Engine.partition_of e)

type result = { cost_units : float; batches : int }

let fail fn msg = invalid_arg (Printf.sprintf "Partition.Runner.%s: %s" fn msg)

let busy e = Array.exists (fun q -> q > 0) (Engine.pending e)

(* Refuse a plan invalid for [spec], a stream of the wrong length or a
   busy engine; only then build the lane plan (per-step lane counts and
   [2n]-wide actions) and execute it, the stream entering by
   [Engine.arrive], the cost added per batch.  The lane counts come from
   [spec], not the stream (classifying the stream up front would cost a
   third [key_of] call per arrival), so a stream that routes fewer
   changes to a lane than the spec says fails at the step whose action
   finds the lane short: [Maintainer.apply] refuses it before processing
   any lane. *)
let replay fn e stream ~spec ~plan lane_plan =
  (match Abivm.Plan.validate spec plan with
  | Ok () -> ()
  | Error v ->
      fail fn (Format.asprintf "invalid plan: %a" Abivm.Plan.pp_violation v));
  if Array.length stream <> Abivm.Spec.horizon spec + 1 then
    fail fn "stream length must be horizon + 1";
  if busy e then fail fn "engine has pending modifications";
  let counts, actions = lane_plan () in
  let cost = ref 0.0 and batches = ref 0 in
  (match
     Bridge.Runner.execute (Engine.maintainer e) ~first:0 ~counts
       ~arrive:(fun t _ -> List.iter (fun (i, change) -> Engine.arrive e i change) stream.(t))
       ~on_applied:(fun ~t:_ ~table:_ ~count:_ ~cost:c ->
         cost := !cost +. c;
         incr batches)
       actions
   with
  | Ok () -> ()
  | Error msg -> fail fn ("Runner.execute: " ^ msg)
  | exception Invalid_argument msg -> fail fn msg);
  if busy e then fail fn "plan left modifications queued";
  { cost_units = !cost; batches = !batches }

let run e stream ~spec ~plan =
  replay "run" e stream ~spec ~plan (fun () ->
      (Abivm.Spec.arrivals spec, Abivm.Plan.actions plan))

(* [run] for a plan over the [n] logical tables.  A logical batch of [k]
   drains the lanes of the table's first [k] arrivals ([fifo.(i)] holds
   their lanes in arrival order), applied as one [2n]-wide action: one
   batch per non-empty lane, heavy first, the lane plan built before
   anything runs.  Refuses what [run] refuses. *)
let run_blind e stream ~spec ~plan =
  replay "run_blind" e stream ~spec ~plan (fun () ->
      let width = Engine.n_partitions e in
      let fifo = Array.init (Engine.n_logical e) (fun _ -> Queue.create ()) in
      let counts =
        count_by width
          (fun i change ->
            let p = Engine.partition_of e i change in
            Queue.push p fifo.(i);
            p)
          stream
      in
      let lanes action =
        let batch = Array.make width 0 in
        Array.iteri
          (fun table k ->
            for _ = 1 to k do
              match Queue.take_opt fifo.(table) with
              | Some p -> batch.(p) <- batch.(p) + 1
              | None -> fail "run_blind" "plan takes more than the stream holds"
            done)
          action;
        batch
      in
      (counts, List.map (fun (t, action) -> (t, lanes action)) (Abivm.Plan.actions plan)))

type side = { plan_cost : float; exec : result }

type comparison = {
  part_curves : (int * float) list array;
  blind_curves : (int * float) list array;
  limit : float;
  blind : side;
  aware : side;
}

let compare_blind ~cal_feeds ~sizes ~limit_factor engine stream =
  let n = Engine.n_logical engine in
  let blind_engine = Engine.copy engine in
  let part_curves =
    let e = Engine.copy engine and feeds = cal_feeds () in
    Array.init (Pspec.count ~n) (fun p ->
        let table, cls = Pspec.logical p in
        Calibrate.measure_curve e
          ~next:(fun () -> feeds.Tpcr.Updates.next table)
          ~table ~cls ~sizes)
  in
  let blind_curves =
    let m = Ivm.Maintainer.copy (Engine.maintainer engine)
    and feeds = cal_feeds () in
    Array.init n (fun table -> Bridge.Calibrate.measure_curve m feeds ~table ~sizes)
  in
  let hull name curve =
    Cost.Func.subadditive_hull
      ~upto:(4 * List.fold_left max 1 sizes)
      (Bridge.Calibrate.tabulated ~name curve)
  in
  let names = Array.init n string_of_int in
  let costs_part =
    Array.mapi (fun p -> hull (Pspec.label ~names p)) part_curves
  in
  let costs_blind =
    Array.mapi (fun i -> hull ("blind_" ^ names.(i))) blind_curves
  in
  let limit =
    let worst =
      Array.fold_left (fun acc f -> Float.max acc (Cost.Func.eval f 1)) 0.0
    in
    limit_factor *. Float.max (worst costs_blind) (worst costs_part)
  in
  let side run e spec =
    let sol = Abivm.Astar.solve spec in
    { plan_cost = sol.cost; exec = run e stream ~spec ~plan:sol.plan }
  in
  let aware =
    side run engine
      (Pspec.make ~costs:costs_part ~limit
         ~arrivals:(partitioned_arrivals engine stream))
  in
  let blind =
    side run_blind blind_engine
      (Abivm.Spec.make ~costs:costs_blind ~limit
         ~arrivals:(count_by n (fun i _ -> i) stream))
  in
  { part_curves; blind_curves; limit; blind; aware }
