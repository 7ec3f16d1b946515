type view_spec = {
  name : string;
  costs : Cost.Func.t array;
  limit : float;
}

type outcome = {
  per_view_cost : (string * float) array;
  total_cost : float;
  undiscounted_cost : float;
  co_flushes : int;
  valid : bool;
}

let validate ~views ~shared_setup ~arrivals =
  let k = Array.length views in
  if k = 0 then invalid_arg "Multiview: no views";
  if Array.length arrivals = 0 then invalid_arg "Multiview: empty arrivals";
  let n = Array.length arrivals.(0) in
  if Array.length shared_setup <> n then
    invalid_arg "Multiview: shared_setup width mismatch";
  Array.iter
    (fun d -> if d < 0.0 then invalid_arg "Multiview: negative discount")
    shared_setup;
  Array.iter
    (fun v ->
      if Array.length v.costs <> n then
        invalid_arg
          (Printf.sprintf "Multiview: view %S cost width mismatch" v.name))
    views;
  n

(* Charge one instant's combined actions: per view its batches' costs,
   the raw and the discounted total, and the joins beyond each group's
   first member. *)
let charge parts batches =
  let per_view = Array.make (Array.length parts) 0.0 in
  let raw_total = ref 0.0 and discounted_total = ref 0.0 and joins = ref 0 in
  List.iter
    (fun group ->
      List.iter
        (fun (m : Coflush.member) ->
          per_view.(m.who) <- per_view.(m.who) +. m.cost)
        group;
      let charged, raw = Coflush.price group in
      joins := !joins + (List.length group - 1);
      raw_total := !raw_total +. raw;
      discounted_total := !discounted_total +. charged)
    (Coflush.groups parts batches);
  (per_view, !raw_total, !discounted_total, !joins)

let run ~views ~shared_setup ~arrivals ~coordinate =
  let n = validate ~views ~shared_setup ~arrivals in
  let k = Array.length views in
  let horizon = Array.length arrivals - 1 in
  (* One §4.3 controller per view: its own pending queues and rates,
     marginal-score selection (f(q) / time bought). *)
  let ctrls =
    Array.map
      (fun v ->
        Abivm.Online.controller ~scorer:Abivm.Online.Amortized_marginal
          (Abivm.Spec.make ~costs:v.costs ~limit:v.limit ~arrivals))
      views
  in
  let participant v c =
    {
      Coflush.pending = Abivm.Online.pending c;
      capacity =
        (fun i -> Cost.Check.max_batch v.costs.(i) ~limit:v.limit ~cap:1_000_000);
      cost = (fun i b -> Cost.Func.eval v.costs.(i) b);
      shared = (fun i -> shared_setup.(i));
    }
  in
  let per_view_total = Array.make k 0.0 in
  let total = ref 0.0 and undiscounted = ref 0.0 in
  let joins = ref 0 and valid = ref true in
  for t = 0 to horizon do
    Array.iter (fun c -> Abivm.Online.observe c ~arrivals:arrivals.(t)) ctrls;
    let parts = Array.map2 participant views ctrls in
    (* Forced actions per view, each from its own controller; the horizon
       flushes everything. *)
    let batches =
      Array.map
        (fun c ->
          if t = horizon then Abivm.Online.pending c
          else
            match Abivm.Online.propose c with
            | Some q -> q
            | None -> Abivm.Statevec.zero n)
        ctrls
    in
    (* Optional coordination: the co-flush rule's joins. *)
    let batches =
      if coordinate && t < horizon then (Coflush.invite parts batches).rows
      else batches
    in
    Array.iteri
      (fun v c ->
        Abivm.Online.absorb c batches.(v);
        if t < horizon && Abivm.Online.full c then valid := false)
      ctrls;
    let per_view, raw, discounted, step_joins = charge parts batches in
    Array.iteri
      (fun v c -> per_view_total.(v) <- per_view_total.(v) +. c)
      per_view;
    total := !total +. discounted;
    undiscounted := !undiscounted +. raw;
    joins := !joins + step_joins;
    if step_joins > 0 then begin
      Telemetry.add "multiview.co_flushes" (float_of_int step_joins);
      Telemetry.add "multiview.discount_pocketed" (raw -. discounted)
    end;
  done;
  Array.iter
    (fun c ->
      if not (Abivm.Statevec.is_zero (Abivm.Online.pending c)) then
        valid := false)
    ctrls;
  {
    per_view_cost =
      Array.mapi (fun v c -> (views.(v).name, c)) per_view_total;
    total_cost = !total;
    undiscounted_cost = !undiscounted;
    co_flushes = !joins;
    valid = !valid;
  }

let independent ~views ~shared_setup ~arrivals () =
  run ~views ~shared_setup ~arrivals ~coordinate:false

let piggyback ~views ~shared_setup ~arrivals () =
  run ~views ~shared_setup ~arrivals ~coordinate:true
