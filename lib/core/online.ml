type predictor =
  | Ewma of float
  | Ewma_conservative of { alpha : float; z : float }
  | Window of int
  | Oracle

let default_predictor = Ewma 0.2

type scorer = Amortized_total | Amortized_marginal | Cheapest

let default_scorer = Amortized_total

let never = 1 lsl 30

(* State under projected rates after tau further steps. *)
let projected s rates tau =
  Array.mapi
    (fun i si ->
      si + int_of_float (Float.round (float_of_int tau *. rates.(i))))
    s

let time_to_full spec ~rates s =
  let full tau = Spec.is_full spec (projected s rates tau) in
  if not (full never) then never
  else begin
    (* Doubling then bisection: smallest tau >= 1 with full tau. *)
    let rec double tau = if tau >= never || full tau then min tau never else double (2 * tau) in
    let hi = double 1 in
    if hi = 1 then 1
    else begin
      let lo = ref (hi / 2) and hi = ref hi in
      (* Invariant: not (full lo) && full hi. *)
      while !hi - !lo > 1 do
        let mid = !lo + ((!hi - !lo) / 2) in
        if full mid then hi := mid else lo := mid
      done;
      !hi
    end
  end

let oracle_time_to_full spec ~from_time s =
  let horizon = Spec.horizon spec in
  let acc = Statevec.copy s in
  let rec loop t =
    if t > horizon then never
    else begin
      Statevec.add_in_place acc (Spec.arrivals spec).(t);
      if Spec.is_full spec acc then t - from_time else loop (t + 1)
    end
  in
  loop (from_time + 1)

(* --- the controller ------------------------------------------------------ *)

type controller = {
  mutable spec : Spec.t;  (* costs and limit; [Oracle] reads its arrivals *)
  predictor : predictor;
  scorer : scorer;
  rates : float array;
  means : float array;  (* [Ewma_conservative]: EWMA mean and second moment *)
  second_moments : float array;
  mutable window : int array list;  (* [Window k]: the last k rows, newest first *)
  mutable now : int;  (* global index of the last observed step *)
  mutable clock : int;  (* steps observed since the last refresh *)
  mutable pending : Statevec.t;
  mutable spent : float;
}

let controller ?(predictor = default_predictor) ?(scorer = default_scorer) spec =
  (match predictor with
  | (Ewma alpha | Ewma_conservative { alpha; _ })
    when not (alpha > 0.0 && alpha <= 1.0) ->
      invalid_arg "Online.controller: smoothing must be in (0, 1]"
  | Ewma_conservative { z; _ } when not (Float.is_finite z) ->
      invalid_arg "Online.controller: non-finite z"
  | Window k when k < 1 -> invalid_arg "Online.controller: empty window"
  | _ -> ());
  let n = Spec.n_tables spec in
  {
    spec;
    predictor;
    scorer;
    rates = Array.make n 0.0;
    means = Array.make n 0.0;
    second_moments = Array.make n 0.0;
    window = [];
    now = -1;
    clock = 0;
    pending = Statevec.zero n;
    spent = 0.0;
  }

let pending c = Statevec.copy c.pending

let rates c = Array.copy c.rates

let costs c = Array.copy (Spec.costs c.spec)

let refresh_cost c = Spec.f c.spec c.pending

let full c = Spec.is_full c.spec c.pending

let set_costs c costs =
  if Array.length costs <> Spec.n_tables c.spec then
    invalid_arg "Online.set_costs: cost vector width mismatch";
  c.spec <-
    Spec.make ~costs:(Array.copy costs) ~limit:(Spec.limit c.spec)
      ~arrivals:(Spec.arrivals c.spec)

let observe c ~arrivals =
  if Array.length arrivals <> Spec.n_tables c.spec then
    invalid_arg "Online.observe: arrival vector width mismatch";
  c.now <- c.now + 1;
  c.clock <- c.clock + 1;
  (match c.predictor with
  | Ewma alpha ->
      Array.iteri
        (fun i d ->
          c.rates.(i) <-
            ((1.0 -. alpha) *. c.rates.(i)) +. (alpha *. float_of_int d))
        arrivals
  | Ewma_conservative { alpha; z } ->
      Array.iteri
        (fun i d ->
          let x = float_of_int d in
          c.means.(i) <- ((1.0 -. alpha) *. c.means.(i)) +. (alpha *. x);
          c.second_moments.(i) <-
            ((1.0 -. alpha) *. c.second_moments.(i)) +. (alpha *. x *. x);
          let variance =
            Float.max 0.0 (c.second_moments.(i) -. (c.means.(i) *. c.means.(i)))
          in
          c.rates.(i) <- c.means.(i) +. (z *. sqrt variance))
        arrivals
  | Window k ->
      c.window <- List.filteri (fun j _ -> j < k) (Array.copy arrivals :: c.window);
      let len = float_of_int (List.length c.window) in
      Array.iteri
        (fun i _ ->
          let sum = List.fold_left (fun acc row -> acc + row.(i)) 0 c.window in
          c.rates.(i) <- float_of_int sum /. len)
        c.rates
  | Oracle -> ());
  c.pending <- Statevec.add c.pending arrivals

let time_to_full_of c s =
  match c.predictor with
  | Oracle -> oracle_time_to_full c.spec ~from_time:c.now s
  | Ewma _ | Ewma_conservative _ | Window _ -> time_to_full c.spec ~rates:c.rates s

(* The §4.3 choice at a full pending state: among the greedy minimal
   valid actions, the first with the least score.  H's [t] is the
   current step's 0-based index since the last refresh: in a plan, the
   step itself (DESIGN.md §5). *)
let best_action c =
  let pre = c.pending in
  let score q =
    match c.scorer with
    | Amortized_total ->
        (c.spent +. Spec.f c.spec q)
        /. float_of_int (c.clock - 1 + time_to_full_of c (Statevec.sub pre q))
    | Amortized_marginal ->
        Spec.f c.spec q /. float_of_int (time_to_full_of c (Statevec.sub pre q))
    | Cheapest -> Spec.f c.spec q
  in
  match Actions.minimal_greedy_actions c.spec pre with
  | [] -> invalid_arg "Online: no candidate action at a full state"
  | first :: rest ->
      let best = ref first and best_score = ref (score first) in
      List.iter
        (fun q ->
          let sc = score q in
          if sc < !best_score then begin
            best := q;
            best_score := sc
          end)
        rest;
      !best

let propose c =
  if not (full c) then None
  else begin
    Telemetry.incr "online.decisions";
    Some (best_action c)
  end

let absorb c batches =
  if Array.length batches <> Spec.n_tables c.spec then
    invalid_arg "Online.absorb: batch vector width mismatch";
  if not (Statevec.is_zero batches) then begin
    (* Statevec.sub raises if any batch exceeds the pending count. *)
    let pending' = Statevec.sub c.pending batches in
    c.spent <- c.spent +. Spec.f c.spec batches;
    c.pending <- pending'
  end

let step c ~arrivals =
  observe c ~arrivals;
  match propose c with
  | None -> None
  | Some action ->
      absorb c action;
      Some action

(* A refresh starts a new period: H's [F_t] and [t] restart together
   (DESIGN.md §5). *)
let force_refresh c =
  Telemetry.incr "online.flush.forced";
  let action = c.pending in
  absorb c action;
  c.clock <- 0;
  c.spent <- 0.0;
  action

let plan ?predictor ?scorer spec =
  let c = controller ?predictor ?scorer spec in
  let horizon = Spec.horizon spec in
  let out = ref [] in
  for t = 0 to horizon do
    observe c ~arrivals:(Spec.arrivals spec).(t);
    let action =
      if t < horizon then propose c
      else if Statevec.is_zero c.pending then None
      else begin
        Telemetry.incr "online.flush.horizon";
        Some c.pending
      end
    in
    Option.iter
      (fun a ->
        absorb c a;
        out := (t, a) :: !out)
      action
  done;
  Plan.of_actions (List.rev !out)
