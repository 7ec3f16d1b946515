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

let run e stream ~spec ~plan =
  (match Abivm.Plan.validate spec plan with
  | Ok () -> ()
  | Error v ->
      invalid_arg
        (Format.asprintf "Partition.Runner.run: invalid plan: %a"
           Abivm.Plan.pp_violation v));
  let horizon = Abivm.Spec.horizon spec in
  if Array.length stream <> horizon + 1 then
    invalid_arg "Partition.Runner.run: stream length must be horizon + 1";
  if Array.exists (fun q -> q > 0) (Engine.pending e) then
    invalid_arg "Partition.Runner.run: engine has pending modifications";
  let cost = ref 0.0 and batches = ref 0 in
  for t = 0 to horizon do
    List.iter (fun (i, change) -> Engine.arrive e i change) stream.(t);
    match Abivm.Plan.action_at plan t with
    | None -> ()
    | Some action ->
        Array.iteri
          (fun p k ->
            if k > 0 then begin
              let snap = Engine.process e ~partition:p k in
              cost := !cost +. Relation.Meter.cost_units snap;
              incr batches
            end)
          action
  done;
  if Array.exists (fun q -> q > 0) (Engine.pending e) then
    invalid_arg "Partition.Runner.run: plan left modifications queued";
  { cost_units = !cost; batches = !batches }

let run_blind e stream ~spec ~plan =
  let fail msg = invalid_arg ("Partition.Runner.run_blind: " ^ msg) in
  let busy () = Array.exists (fun q -> q > 0) (Engine.pending e) in
  (match Abivm.Plan.validate spec plan with
  | Ok () -> ()
  | Error v ->
      fail (Format.asprintf "invalid plan: %a" Abivm.Plan.pp_violation v));
  if Array.length stream <> Abivm.Spec.horizon spec + 1 then
    fail "stream length must be horizon + 1";
  if busy () then fail "engine has pending modifications";
  let fifo = Array.init (Engine.n_logical e) (fun _ -> Queue.create ()) in
  let cost = ref 0.0 and batches = ref 0 in
  let drain table cls k =
    if k > 0 then begin
      let snap = Engine.process e ~partition:(Pspec.index ~table cls) k in
      cost := !cost +. Relation.Meter.cost_units snap;
      incr batches
    end
  in
  Array.iteri
    (fun t step ->
      List.iter
        (fun (i, change) ->
          Engine.arrive e i change;
          Queue.push (Engine.classify e i change) fifo.(i))
        step;
      Option.iter
        (Array.iteri (fun i k ->
             let heavy = ref 0 in
             for _ = 1 to k do
               if Queue.pop fifo.(i) = Split.Heavy then incr heavy
             done;
             drain i Split.Heavy !heavy;
             drain i Split.Light (k - !heavy)))
        (Abivm.Plan.action_at plan t))
    stream;
  if busy () then fail "plan left modifications queued";
  { cost_units = !cost; batches = !batches }

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
