(* The plan-level §4.3 ONLINE loop as it stood before {!Abivm.Online.plan}
   became a loop over {!Abivm.Online.controller}: its own rate state per
   predictor, its own pending state and spent total, and H scored with
   [t] the step index.  Kept as the reference the controller must
   reproduce action for action (test_props), so a change to how the
   controller counts its steps cannot move the plan and its reference
   together. *)

open Abivm

let never = 1 lsl 30

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

let best_action scorer spec ~ttf ~spent ~t pre =
  let score q =
    match (scorer : Online.scorer) with
    | Amortized_total ->
        (spent +. Spec.f spec q) /. float_of_int (t + ttf (Statevec.sub pre q))
    | Amortized_marginal ->
        Spec.f spec q /. float_of_int (ttf (Statevec.sub pre q))
    | Cheapest -> Spec.f spec q
  in
  match Actions.minimal_greedy_actions spec pre with
  | [] -> invalid_arg "Online_oracle: no candidate action at a full state"
  | first :: rest ->
      fst
        (List.fold_left
           (fun (best, best_score) q ->
             let sc = score q in
             if sc < best_score then (q, sc) else (best, best_score))
           (first, score first) rest)

let plan ~(predictor : Online.predictor) ~scorer spec =
  let n = Spec.n_tables spec in
  let horizon = Spec.horizon spec in
  let state = ref (Statevec.zero n) and spent = ref 0.0 and out = ref [] in
  let rates = Array.make n 0.0 in
  let means = Array.make n 0.0 and second_moments = Array.make n 0.0 in
  let window = ref [] in
  let observe d =
    match predictor with
    | Ewma alpha ->
        Array.iteri
          (fun i di ->
            rates.(i) <-
              ((1.0 -. alpha) *. rates.(i)) +. (alpha *. float_of_int di))
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
        window := List.filteri (fun j _ -> j < k) (d :: !window);
        let len = float_of_int (List.length !window) in
        Array.iteri
          (fun i _ ->
            let sum = List.fold_left (fun acc row -> acc + row.(i)) 0 !window in
            rates.(i) <- float_of_int sum /. len)
          rates
    | Oracle -> ()
  in
  for t = 0 to horizon do
    let d = (Spec.arrivals spec).(t) in
    observe d;
    let pre = Statevec.add !state d in
    if t = horizon then begin
      if not (Statevec.is_zero pre) then out := (t, pre) :: !out;
      state := Statevec.zero n
    end
    else if Spec.is_full spec pre then begin
      let ttf s =
        match predictor with
        | Oracle -> oracle_time_to_full spec ~from_time:t s
        | Ewma _ | Ewma_conservative _ | Window _ ->
            Online.time_to_full spec ~rates s
      in
      let best = best_action scorer spec ~ttf ~spent:!spent ~t pre in
      spent := !spent +. Spec.f spec best;
      out := (t, best) :: !out;
      state := Statevec.sub pre best
    end
    else state := pre
  done;
  List.rev !out
