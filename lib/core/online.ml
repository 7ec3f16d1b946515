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

let time_to_full spec ~rates ~from_time:_ s =
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

(* Shared action scoring for the §4.3 heuristic: among the greedy minimal
   valid actions at full pre-action state [pre], pick the one minimizing
   the configured score (the paper's H by default). *)
let best_action ?(scorer = default_scorer) spec ~ttf ~spent ~t pre =
  let candidates = Actions.minimal_greedy_actions spec pre in
  let score q =
    match scorer with
    | Amortized_total ->
        let post = Statevec.sub pre q in
        (spent +. Spec.f spec q) /. float_of_int (t + ttf post)
    | Amortized_marginal ->
        let post = Statevec.sub pre q in
        Spec.f spec q /. float_of_int (ttf post)
    | Cheapest -> Spec.f spec q
  in
  match candidates with
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

let plan ?(predictor = default_predictor) ?(scorer = default_scorer) spec =
  let n = Spec.n_tables spec in
  let horizon = Spec.horizon spec in
  let state = ref (Statevec.zero n) in
  let spent = ref 0.0 in
  let out = ref [] in
  (* Rate estimation state: EWMA mean and (for the conservative variant)
     EWMA second moment per table. *)
  let rates = Array.make n 0.0 in
  let means = Array.make n 0.0 in
  let second_moments = Array.make n 0.0 in
  let window : int array list ref = ref [] in
  let observe d =
    match predictor with
    | Ewma alpha ->
        Array.iteri
          (fun i di ->
            rates.(i) <- ((1.0 -. alpha) *. rates.(i)) +. (alpha *. float_of_int di))
          d
    | Ewma_conservative { alpha; z } ->
        Array.iteri
          (fun i di ->
            let x = float_of_int di in
            means.(i) <- ((1.0 -. alpha) *. means.(i)) +. (alpha *. x);
            second_moments.(i) <-
              ((1.0 -. alpha) *. second_moments.(i)) +. (alpha *. x *. x);
            let variance =
              Float.max 0.0 (second_moments.(i) -. (means.(i) *. means.(i)))
            in
            rates.(i) <- means.(i) +. (z *. sqrt variance))
          d
    | Window k ->
        window := d :: !window;
        let rec take j = function
          | [] -> []
          | x :: rest -> if j = 0 then [] else x :: take (j - 1) rest
        in
        window := take k !window;
        let len = float_of_int (List.length !window) in
        Array.iteri
          (fun i _ ->
            let sum =
              List.fold_left (fun acc row -> acc + row.(i)) 0 !window
            in
            rates.(i) <- float_of_int sum /. len)
          rates
    | Oracle -> ()
  in
  let ttf ~from_time s =
    match predictor with
    | Oracle -> oracle_time_to_full spec ~from_time s
    | Ewma _ | Ewma_conservative _ | Window _ ->
        time_to_full spec ~rates ~from_time s
  in
  for t = 0 to horizon do
    let d = (Spec.arrivals spec).(t) in
    observe d;
    let pre = Statevec.add !state d in
    if t = horizon then begin
      if not (Statevec.is_zero pre) then begin
        Telemetry.incr "online.flush.horizon";
        spent := !spent +. Spec.f spec pre;
        out := (t, pre) :: !out
      end;
      state := Statevec.zero n
    end
    else if Spec.is_full spec pre then begin
      Telemetry.incr "online.decisions";
      let best =
        best_action ~scorer spec ~ttf:(ttf ~from_time:t) ~spent:!spent ~t pre
      in
      spent := !spent +. Spec.f spec best;
      out := (t, best) :: !out;
      state := Statevec.sub pre best
    end
    else state := pre
  done;
  Plan.of_actions (List.rev !out)

(* --- step-by-step controller -------------------------------------------- *)

type controller = {
  mutable ctrl_costs : Cost.Func.t array;
  ctrl_limit : float;
  alpha : float;
  ctrl_rates : float array;
  mutable clock : int;  (* steps since the last refresh *)
  mutable ctrl_pending : Statevec.t;
  mutable ctrl_spent : float;
}

let controller ?(alpha = 0.2) ~costs ~limit () =
  if alpha <= 0.0 || alpha > 1.0 then
    invalid_arg "Online.controller: alpha must be in (0, 1]";
  let n = Array.length costs in
  if n = 0 then invalid_arg "Online.controller: no tables";
  {
    ctrl_costs = costs;
    ctrl_limit = limit;
    alpha;
    ctrl_rates = Array.make n 0.0;
    clock = 0;
    ctrl_pending = Statevec.zero n;
    ctrl_spent = 0.0;
  }

(* A throwaway single-step spec so the controller can reuse the Spec-based
   machinery (f, fullness, action enumeration, time_to_full). *)
let ctrl_spec c =
  Spec.make ~costs:c.ctrl_costs ~limit:c.ctrl_limit
    ~arrivals:[| Statevec.zero (Array.length c.ctrl_costs) |]

let pending c = Statevec.copy c.ctrl_pending

let rates c = Array.copy c.ctrl_rates

let costs c = Array.copy c.ctrl_costs

let set_costs c costs =
  if Array.length costs <> Array.length c.ctrl_costs then
    invalid_arg "Online.set_costs: cost vector width mismatch";
  c.ctrl_costs <- Array.copy costs

let observe c ~arrivals =
  if Array.length arrivals <> Array.length c.ctrl_costs then
    invalid_arg "Online.observe: arrival vector width mismatch";
  c.clock <- c.clock + 1;
  Array.iteri
    (fun i d ->
      c.ctrl_rates.(i) <-
        ((1.0 -. c.alpha) *. c.ctrl_rates.(i)) +. (c.alpha *. float_of_int d))
    arrivals;
  c.ctrl_pending <- Statevec.add c.ctrl_pending arrivals

let propose c =
  let spec = ctrl_spec c in
  if not (Spec.is_full spec c.ctrl_pending) then None
  else begin
    Telemetry.incr "online.decisions";
    let ttf = time_to_full spec ~rates:c.ctrl_rates ~from_time:c.clock in
    Some (best_action spec ~ttf ~spent:c.ctrl_spent ~t:c.clock c.ctrl_pending)
  end

let absorb c batches =
  if Array.length batches <> Array.length c.ctrl_costs then
    invalid_arg "Online.absorb: batch vector width mismatch";
  if not (Statevec.is_zero batches) then begin
    (* Statevec.sub raises if any batch exceeds the pending count. *)
    let pending' = Statevec.sub c.ctrl_pending batches in
    c.ctrl_spent <- c.ctrl_spent +. Spec.f (ctrl_spec c) batches;
    c.ctrl_pending <- pending'
  end

let step c ~arrivals =
  observe c ~arrivals;
  match propose c with
  | None -> None
  | Some action ->
      absorb c action;
      Some action

let force_refresh c =
  Telemetry.incr "online.flush.forced";
  let spec = ctrl_spec c in
  let action = c.ctrl_pending in
  c.ctrl_spent <- c.ctrl_spent +. Spec.f spec action;
  c.ctrl_pending <- Statevec.zero (Array.length c.ctrl_costs);
  c.clock <- 0;
  action
