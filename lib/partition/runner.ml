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

let partitioned_arrivals e stream =
  Array.map
    (fun step ->
      let counts = Array.make (Engine.n_partitions e) 0 in
      List.iter
        (fun (i, change) ->
          let p = Engine.partition_of e i change in
          counts.(p) <- counts.(p) + 1)
        step;
      counts)
    stream

type result = { cost_units : float; batches : int }

(* Replay [stream], applying [action t] (a [2n]-wide batch per lane, if
   any) after each step's arrivals through the maintainer's step kernel,
   with the cost added per batch. *)
let replay fn e stream ~spec ~plan action =
  let fail msg = invalid_arg (Printf.sprintf "Partition.Runner.%s: %s" fn msg) in
  let busy () = Array.exists (fun q -> q > 0) (Engine.pending e) in
  (match Abivm.Plan.validate spec plan with
  | Ok () -> ()
  | Error v ->
      fail (Format.asprintf "invalid plan: %a" Abivm.Plan.pp_violation v));
  if Array.length stream <> Abivm.Spec.horizon spec + 1 then
    fail "stream length must be horizon + 1";
  if busy () then fail "engine has pending modifications";
  let cost = ref 0.0 and batches = ref 0 in
  let on_applied ~table:_ ~count:_ ~cost:c =
    cost := !cost +. c;
    incr batches
  in
  Array.iteri
    (fun t step ->
      List.iter (fun (i, change) -> Engine.arrive e i change) step;
      Option.iter
        (fun lanes ->
          ignore (Ivm.Maintainer.apply ~on_applied (Engine.maintainer e) lanes))
        (action t step))
    stream;
  if busy () then fail "plan left modifications queued";
  { cost_units = !cost; batches = !batches }

let run e stream ~spec ~plan =
  replay "run" e stream ~spec ~plan (fun t _ -> Abivm.Plan.action_at plan t)

(* A logical batch of [k] drains the classes of the table's first [k]
   arrivals: [fifo.(i)] holds them in arrival order. *)
let run_blind e stream ~spec ~plan =
  let fifo = Array.init (Engine.n_logical e) (fun _ -> Queue.create ()) in
  replay "run_blind" e stream ~spec ~plan (fun t step ->
      List.iter
        (fun (i, change) -> Queue.push (Engine.classify e i change) fifo.(i))
        step;
      Option.map
        (fun action ->
          let lanes = Array.make (Engine.n_partitions e) 0 in
          Array.iteri
            (fun table k ->
              for _ = 1 to k do
                let p = Pspec.index ~table (Queue.pop fifo.(table)) in
                lanes.(p) <- lanes.(p) + 1
              done)
            action;
          lanes)
        (Abivm.Plan.action_at plan t))

type side = { plan_cost : float; exec : result }

type comparison = {
  part_curves : (int * float) list array;
  blind_curves : (int * float) list array;
  limit : float;
  blind : side;
  aware : side;
}

let compare_blind ~fresh ~sizes ~limit_factor engine stream =
  let n = Engine.n_logical engine in
  let part_curves =
    let e, feeds = fresh () in
    Array.init (Pspec.count ~n) (fun p ->
        let table, cls = Pspec.logical p in
        Calibrate.measure_curve e
          ~next:(fun () -> feeds.Tpcr.Updates.next table)
          ~table ~cls ~sizes)
  in
  let blind_curves =
    let e, feeds = fresh () in
    Array.init n (fun table ->
        Calibrate.measure_blind_curve e
          ~next:(fun () -> feeds.Tpcr.Updates.next table)
          ~table ~sizes)
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
  let logical_arrivals =
    Array.map
      (fun step ->
        let counts = Array.make n 0 in
        List.iter (fun (i, _) -> counts.(i) <- counts.(i) + 1) step;
        counts)
      stream
  in
  let aware =
    side run engine
      (Pspec.make ~costs:costs_part ~limit
         ~arrivals:(partitioned_arrivals engine stream))
  in
  let blind =
    side run_blind
      (fst (fresh ()))
      (Abivm.Spec.make ~costs:costs_blind ~limit ~arrivals:logical_arrivals)
  in
  { part_curves; blind_curves; limit; blind; aware }
