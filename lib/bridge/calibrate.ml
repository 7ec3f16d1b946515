let measure_curve m feeds ~table ~sizes =
  if Ivm.Maintainer.pending_size m table <> 0 then
    invalid_arg "Calibrate.measure_curve: pending queue not empty";
  if List.exists (fun k -> k < 0) sizes then
    invalid_arg "Calibrate.measure_curve: negative batch size";
  let n = Ivm.Viewdef.n_tables (Ivm.Maintainer.view m) in
  List.map
    (fun k ->
      let batch = Array.init n (fun i -> if i = table then k else 0) in
      Ivm.Maintainer.ingest m ~next:feeds.Tpcr.Updates.next batch;
      (k, Ivm.Maintainer.apply m batch))
    sizes

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

let measure_orders ~make ~table ~sizes =
  List.map
    (fun order ->
      let m, feeds = make order in
      if Ivm.Maintainer.order m <> order then
        invalid_arg "Calibrate.measure_orders: factory ignored the order";
      (order, measure_curve m feeds ~table ~sizes))
    [ Ivm.Viewdef.First_order; Ivm.Viewdef.Higher_order ]
