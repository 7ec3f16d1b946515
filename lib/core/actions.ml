let greedy_of_subset pre subset = Statevec.restrict_to pre subset

let feasible_subset spec pre subset =
  let post = Statevec.sub pre (greedy_of_subset pre subset) in
  not (Spec.is_full spec post)

(* Flushing the tables of [mask] leaves residual cost Σ_{j ∉ mask} w.(j),
   accumulated in ascending j so that, with [w] listing the active
   tables' f_j(pre_j) in ascending table order, the sum is bit-identical
   to [Spec.f] of the post-action state (the skipped terms are the exact
   0.0 of the emptied and inactive tables).  The loop allocates nothing:
   a search can call it on every expansion. *)
let residual_fits w ~count ~limit mask =
  let acc = ref 0.0 in
  for j = 0 to count - 1 do
    if mask land (1 lsl j) = 0 then acc := !acc +. w.(j)
  done;
  !acc <= limit

(* Feasible, and no mask with one bit fewer is. *)
let minimal w ~count ~limit mask =
  residual_fits w ~count ~limit mask
  &&
  let j = ref 0 in
  while
    !j < count
    && (mask land (1 lsl !j) = 0
       || not (residual_fits w ~count ~limit (mask lxor (1 lsl !j))))
  do
    incr j
  done;
  !j >= count

let iter_minimal_masks w ~count ~limit f =
  if count > 16 then
    invalid_arg "Actions.iter_minimal_masks: too many non-empty tables";
  if residual_fits w ~count ~limit 0 then f 0
  else
    for mask = 1 to (1 lsl count) - 1 do
      if minimal w ~count ~limit mask then f mask
    done

let minimal_greedy spec pre =
  let active = Array.of_list (Statevec.support pre) in
  let m = Array.length active in
  let w =
    Array.map (fun i -> Cost.Func.eval (Spec.cost_fn spec i) pre.(i)) active
  in
  let out = ref [] in
  iter_minimal_masks w ~count:m ~limit:(Spec.limit spec) (fun mask ->
      out :=
        List.map (fun j -> active.(j)) (Util.Subsets.of_mask m mask) :: !out);
  List.rev !out

let minimal_greedy_actions spec pre =
  List.map (greedy_of_subset pre) (minimal_greedy spec pre)

let minimize spec pre action =
  let current = Statevec.copy action in
  Array.iteri
    (fun i k ->
      if k > 0 then begin
        current.(i) <- 0;
        let post = Statevec.sub pre current in
        if Spec.is_full spec post then current.(i) <- k
      end)
    action;
  current
