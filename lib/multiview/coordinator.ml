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

(* One table's co-flush price: every participant beyond the first earns
   one [discount], floored so the shared cost never drops below the most
   expensive single participant. *)
let charge_shared ~discount part_costs =
  if discount < 0.0 then invalid_arg "Multiview.charge_shared: negative discount";
  match part_costs with
  | [] -> 0.0
  | costs ->
      let raw = List.fold_left ( +. ) 0.0 costs in
      let floor_cost = List.fold_left Float.max 0.0 costs in
      let extra = List.length costs - 1 in
      Float.max floor_cost (raw -. (float_of_int extra *. discount))

(* Charge one instant's combined actions.  [batches.(v).(i)] is the batch
   view [v] processes from table [i] right now.  Raw cost sums per-view
   costs; the per-table discounted price is {!charge_shared}. *)
let charge ~views ~shared_setup batches =
  let k = Array.length views and n = Array.length shared_setup in
  let per_view = Array.make k 0.0 in
  let raw_total = ref 0.0 and discounted_total = ref 0.0 and joins = ref 0 in
  for i = 0 to n - 1 do
    let participants = ref [] in
    for v = 0 to k - 1 do
      let b = batches.(v).(i) in
      if b > 0 then begin
        let c = Cost.Func.eval views.(v).costs.(i) b in
        per_view.(v) <- per_view.(v) +. c;
        participants := (v, c) :: !participants
      end
    done;
    match !participants with
    | [] -> ()
    | parts ->
        let costs = List.map snd parts in
        let raw = List.fold_left ( +. ) 0.0 costs in
        joins := !joins + (List.length parts - 1);
        let discounted = charge_shared ~discount:shared_setup.(i) costs in
        raw_total := !raw_total +. raw;
        discounted_total := !discounted_total +. discounted
  done;
  (per_view, !raw_total, !discounted_total, !joins)

type sim_view = {
  model : Abivm.Spec.t; (* the view's costs and limit; arrivals unused *)
  pending : Abivm.Statevec.t;
  rates : float array;
}

(* The §4.3 choice restricted to this view: greedy minimal subsets of its
   own pending queues, marginal-score selection (f(q) / time bought). *)
let forced_action sim =
  Abivm.Online.best_action ~scorer:Abivm.Online.Amortized_marginal sim.model
    ~ttf:(Abivm.Online.time_to_full sim.model ~rates:sim.rates ~from_time:0)
    ~spent:0.0 ~t:0 sim.pending

let run ~views ~shared_setup ~arrivals ~coordinate =
  let n = validate ~views ~shared_setup ~arrivals in
  let k = Array.length views in
  let horizon = Array.length arrivals - 1 in
  let sims =
    Array.map
      (fun v ->
        {
          model =
            Abivm.Spec.make ~costs:v.costs ~limit:v.limit
              ~arrivals:[| Array.make n 0 |];
          pending = Abivm.Statevec.zero n;
          rates = Array.make n 0.0;
        })
      views
  in
  let per_view_total = Array.make k 0.0 in
  let total = ref 0.0 and undiscounted = ref 0.0 in
  let joins = ref 0 and valid = ref true in
  let alpha = 0.2 in
  for t = 0 to horizon do
    let d = arrivals.(t) in
    Array.iter
      (fun sim ->
        Abivm.Statevec.add_in_place sim.pending d;
        Array.iteri
          (fun i di ->
            sim.rates.(i) <-
              ((1.0 -. alpha) *. sim.rates.(i)) +. (alpha *. float_of_int di))
          d)
      sims;
    (* Forced actions per view: each view's choice depends only on its own
       pending/rates. *)
    let batches =
      Array.map
        (fun sim ->
          if t = horizon then Abivm.Statevec.copy sim.pending
          else if Abivm.Spec.is_full sim.model sim.pending then
            forced_action sim
          else Abivm.Statevec.zero n)
        sims
    in
    (* Optional coordination: piggyback on co-flushed tables, but only when
       the joining view's own flush of that table is nearly due (its pending
       batch is close to the largest batch its constraint allows).  Joining
       early with a small batch would add setups without removing future
       flushes and lose money; joining when a flush is imminent replaces
       that imminent solo flush and pockets the shared-work discount. *)
    if coordinate && t < horizon then begin
      for i = 0 to n - 1 do
        let someone_flushes = Array.exists (fun row -> row.(i) > 0) batches in
        if someone_flushes && shared_setup.(i) > 0.0 then
          Array.iteri
            (fun v sim ->
              let pending_i = sim.pending.(i) in
              if batches.(v).(i) = 0 && pending_i > 0 then begin
                let capacity =
                  max 1
                    (Cost.Check.max_batch views.(v).costs.(i)
                       ~limit:views.(v).limit ~cap:1_000_000)
                in
                if float_of_int pending_i >= 0.6 *. float_of_int capacity then
                  batches.(v).(i) <- pending_i
              end)
            sims
      done
    end;
    (* Apply and charge. *)
    Array.iteri
      (fun v sim ->
        Array.iteri
          (fun i b ->
            if b > 0 then sim.pending.(i) <- sim.pending.(i) - b)
          batches.(v);
        if t < horizon && Abivm.Spec.is_full sim.model sim.pending then
          valid := false;
        ignore v)
      sims;
    let per_view, raw, discounted, step_joins =
      charge ~views ~shared_setup batches
    in
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
    (fun sim ->
      if not (Abivm.Statevec.is_zero sim.pending) then valid := false)
    sims;
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
