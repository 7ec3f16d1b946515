exception Too_large of string

module Memo = Statekey.Tbl

(* Lazily enumerate all sub-vectors 0 <= p <= s in odometer order
   (rightmost component varies fastest — the same order the previous
   materializing enumerator produced, so tie-breaking is unchanged).  [f]
   receives a scratch vector reused across calls: callers must copy
   anything they keep.  Replacing the materialized O(∏(s_i+1)) candidate
   list with this iterator lets the expansion budget bound memory as well
   as time — the budget check runs per candidate, during enumeration. *)
let iter_sub_vectors s f =
  let n = Array.length s in
  let cur = Array.make n 0 in
  let rec advance i =
    i >= 0
    && (if cur.(i) < s.(i) then begin
          cur.(i) <- cur.(i) + 1;
          true
        end
        else begin
          cur.(i) <- 0;
          advance (i - 1)
        end)
  in
  let rec loop () =
    f cur;
    if advance (n - 1) then loop ()
  in
  loop ()

let solve ?(max_expansions = 2_000_000) spec =
  let horizon = Spec.horizon spec in
  let memo : (float * Statevec.t option) Memo.t = Memo.create 4096 in
  let expansions = ref 0 in
  let budget () =
    incr expansions;
    if !expansions > max_expansions then
      raise
        (Too_large
           (Printf.sprintf "Exact.solve: exceeded %d expansions" max_expansions))
  in
  (* best t pre = (min future cost, best action at t), with [pre] the
     pre-action state at time t.  [pre] is always a fresh vector, handed
     over to the memo key (see the Statekey ownership note). *)
  let rec best t pre =
    let key = Statekey.make ~time:t pre in
    match Memo.find_opt memo key with
    | Some cached -> cached
    | None ->
        let result =
          if t = horizon then (Spec.f spec pre, Some (Statevec.copy pre))
          else begin
            let best_cost = ref infinity and best_action = ref None in
            iter_sub_vectors pre (fun action ->
                budget ();
                let post = Statevec.sub pre action in
                if not (Spec.is_full spec post) then begin
                  (* Evaluate the action's cost before recursing: [action]
                     is the iterator's scratch vector and the recursion
                     runs nested enumerations. *)
                  let action_cost = Spec.f spec action in
                  let next_pre =
                    Statevec.add post (Spec.arrivals spec).(t + 1)
                  in
                  let future, _ = best (t + 1) next_pre in
                  let total = action_cost +. future in
                  if total < !best_cost then begin
                    best_cost := total;
                    best_action := Some (Statevec.copy action)
                  end
                end);
            (!best_cost, !best_action)
          end
        in
        Memo.add memo key result;
        result
  in
  let book () =
    Telemetry.add "exact.expansions" (float_of_int !expansions);
    Telemetry.add "exact.key_collisions" (float_of_int (Statekey.collisions memo));
    Telemetry.max_gauge "exact.live_peak" (float_of_int (Memo.length memo))
  in
  Fun.protect ~finally:book (fun () ->
      let initial_pre = Spec.arrivals_at spec 0 in
      let total, _ = best 0 initial_pre in
      if total = infinity then
        raise (Too_large "Exact.solve: no valid plan found (unexpected)");
      (* Walk the memo greedily from the initial pre-action state. *)
      let actions = ref [] in
      let state = ref initial_pre in
      for t = 0 to horizon do
        let _, action_opt = best t !state in
        (match action_opt with
        | Some action ->
            if not (Statevec.is_zero action) then
              actions := (t, action) :: !actions;
            state := Statevec.sub !state action
        | None -> raise (Too_large "Exact.solve: reconstruction failed"));
        if t < horizon then
          state := Statevec.add !state (Spec.arrivals spec).(t + 1)
      done;
      (total, Plan.of_actions (List.rev !actions)))

