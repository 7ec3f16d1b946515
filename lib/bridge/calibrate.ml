let measure m ~fill ~sizes =
  if Array.exists (fun q -> q > 0) (Ivm.Maintainer.pending_sizes m) then
    invalid_arg "Bridge.Calibrate.measure: modifications are pending";
  if List.exists (fun k -> k < 0) sizes then
    invalid_arg "Bridge.Calibrate.measure: negative batch size";
  List.map
    (fun k ->
      fill k;
      (k, Ivm.Maintainer.apply m (Ivm.Maintainer.pending_sizes m)))
    sizes

let measure_curve m feeds ~table ~sizes =
  let n = Ivm.Viewdef.n_tables (Ivm.Maintainer.view m) in
  if table < 0 || table >= n then
    invalid_arg "Bridge.Calibrate.measure_curve: bad table index";
  measure m ~sizes ~fill:(fun k ->
      Ivm.Maintainer.ingest m ~next:feeds.Tpcr.Updates.next
        (Array.init n (fun i -> if i = table then k else 0)))

let fitted ~name samples =
  let fit = Cost.Fit.affine samples in
  (Cost.Fit.to_func ~name fit, fit)

let tabulated ~name samples =
  (* Drop duplicate sizes and enforce monotone non-decreasing costs so the
     tabulated function honours the planner's contract even under
     measurement noise. *)
  let sorted = List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b) samples in
  let monotone =
    List.rev
      (List.fold_left
         (fun acc (k, c) ->
           match acc with
           | (_, prev) :: _ -> (k, Float.max c prev) :: acc
           | [] -> [ (k, c) ])
         [] sorted)
  in
  let positive = List.filter (fun (k, _) -> k > 0) monotone in
  Cost.Func.tabulated ~name positive
