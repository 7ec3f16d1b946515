(* Tests for the multi-view coordinator: cost accounting with shared-work
   discounts, validity, and the piggyback policy. *)

let checkb = Alcotest.check Alcotest.bool
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

let view name costs limit = { Multiview.Coordinator.name; costs; limit }

let flat = Cost.Func.plateau ~a:5.0 ~cap:50.0
let steep = Cost.Func.affine ~a:3.0 ~b:10.0

let uniform ~horizon per_step = Array.make (horizon + 1) per_step

let test_validation () =
  let arrivals = uniform ~horizon:5 [| 1 |] in
  Alcotest.check_raises "no views" (Invalid_argument "Multiview: no views")
    (fun () ->
      ignore
        (Multiview.Coordinator.independent ~views:[||] ~shared_setup:[| 0.0 |]
           ~arrivals ()));
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Multiview: shared_setup width mismatch") (fun () ->
      ignore
        (Multiview.Coordinator.independent
           ~views:[| view "v" [| flat |] 100.0 |]
           ~shared_setup:[| 0.0; 0.0 |] ~arrivals ()));
  Alcotest.check_raises "negative discount"
    (Invalid_argument "Multiview: negative discount") (fun () ->
      ignore
        (Multiview.Coordinator.independent
           ~views:[| view "v" [| flat |] 100.0 |]
           ~shared_setup:[| -1.0 |] ~arrivals ()))

let test_single_view_matches_online_style_cost () =
  (* One view, no sharing possible: discounted = undiscounted, valid. *)
  let arrivals = uniform ~horizon:60 [| 1; 1 |] in
  let out =
    Multiview.Coordinator.independent
      ~views:[| view "only" [| flat; steep |] 80.0 |]
      ~shared_setup:[| 0.0; 0.0 |] ~arrivals ()
  in
  checkb "valid" true out.Multiview.Coordinator.valid;
  checkf "no discount possible" out.Multiview.Coordinator.undiscounted_cost
    out.Multiview.Coordinator.total_cost;
  checkb "no co-flushes" true (out.Multiview.Coordinator.co_flushes = 0)

let test_one_view_is_the_online_plan () =
  (* One uncoordinated view runs ONLINE under the marginal scorer: its
     total is that plan's cost, bit for bit. *)
  for seed = 1 to 200 do
    let spec = Gen.online_instance ~seed:(500_000 + seed) in
    let out =
      Multiview.Coordinator.independent
        ~views:[| view "v" (Abivm.Spec.costs spec) (Abivm.Spec.limit spec) |]
        ~shared_setup:(Array.make (Abivm.Spec.n_tables spec) 0.0)
        ~arrivals:(Abivm.Spec.arrivals spec) ()
    in
    let plan =
      Abivm.Online.plan ~scorer:Abivm.Online.Amortized_marginal spec
    in
    if
      Int64.bits_of_float out.Multiview.Coordinator.total_cost
      <> Int64.bits_of_float (Abivm.Plan.cost spec plan)
    then
      Alcotest.failf "seed %d: simulator %h, plan %h (%s)" seed
        out.Multiview.Coordinator.total_cost (Abivm.Plan.cost spec plan)
        (Gen.describe spec)
  done

let test_identical_views_discounted () =
  (* Two identical views over one table flush at identical times, so every
     flush is a co-flush and earns the discount. *)
  let arrivals = uniform ~horizon:50 [| 1 |] in
  let views = [| view "a" [| steep |] 60.0; view "b" [| steep |] 60.0 |] in
  let out =
    Multiview.Coordinator.independent ~views ~shared_setup:[| 8.0 |] ~arrivals ()
  in
  checkb "valid" true out.Multiview.Coordinator.valid;
  checkb "co-flushes happened" true (out.Multiview.Coordinator.co_flushes > 0);
  checkb "discount applied" true
    (out.Multiview.Coordinator.total_cost
    < out.Multiview.Coordinator.undiscounted_cost -. 1e-9)

let test_discount_floor () =
  (* A huge discount cannot push a table's cost below the most expensive
     single participant. *)
  let arrivals = uniform ~horizon:30 [| 1 |] in
  let views = [| view "a" [| steep |] 50.0; view "b" [| steep |] 50.0 |] in
  let out =
    Multiview.Coordinator.independent ~views ~shared_setup:[| 1e9 |] ~arrivals ()
  in
  (* Total cost must stay at least half the raw sum (the max participant). *)
  checkb "floored" true
    (out.Multiview.Coordinator.total_cost
    >= (out.Multiview.Coordinator.undiscounted_cost /. 2.0) -. 1e-9)

let test_piggyback_beats_independent_on_staggered_views () =
  (* Views with different constraints flush at different times when
     independent; piggyback aligns them and earns discounts. *)
  let arrivals = uniform ~horizon:200 [| 1 |] in
  let views =
    [| view "tight" [| steep |] 45.0; view "loose" [| steep |] 150.0 |]
  in
  let shared_setup = [| 14.0 |] in
  (* >= f(1) = 13: piggyback rule fires *)
  let ind = Multiview.Coordinator.independent ~views ~shared_setup ~arrivals () in
  let pig = Multiview.Coordinator.piggyback ~views ~shared_setup ~arrivals () in
  checkb "independent valid" true ind.Multiview.Coordinator.valid;
  checkb "piggyback valid" true pig.Multiview.Coordinator.valid;
  checkb "piggyback co-flushes more" true
    (pig.Multiview.Coordinator.co_flushes > ind.Multiview.Coordinator.co_flushes);
  checkb "piggyback cheaper" true
    (pig.Multiview.Coordinator.total_cost < ind.Multiview.Coordinator.total_cost)

let test_piggyback_never_worse_with_zero_discount () =
  (* With no shared work to save, the piggyback rule must not fire at all
     and the two strategies coincide. *)
  let arrivals = uniform ~horizon:100 [| 1 |] in
  let views =
    [| view "tight" [| steep |] 45.0; view "loose" [| steep |] 150.0 |]
  in
  let shared_setup = [| 0.0 |] in
  let ind = Multiview.Coordinator.independent ~views ~shared_setup ~arrivals () in
  let pig = Multiview.Coordinator.piggyback ~views ~shared_setup ~arrivals () in
  checkf "same cost" ind.Multiview.Coordinator.total_cost
    pig.Multiview.Coordinator.total_cost;
  checkb "same co-flushes" true
    (ind.Multiview.Coordinator.co_flushes = pig.Multiview.Coordinator.co_flushes)

let test_per_view_costs_sum_to_undiscounted () =
  let arrivals = uniform ~horizon:80 [| 1; 2 |] in
  let views =
    [| view "a" [| flat; steep |] 90.0; view "b" [| steep; flat |] 120.0 |]
  in
  let out =
    Multiview.Coordinator.piggyback ~views ~shared_setup:[| 10.0; 10.0 |]
      ~arrivals ()
  in
  let sum =
    Array.fold_left (fun acc (_, c) -> acc +. c) 0.0
      out.Multiview.Coordinator.per_view_cost
  in
  checkb "per-view sums to raw total" true
    (Float.abs (sum -. out.Multiview.Coordinator.undiscounted_cost) < 1e-6)

(* The co-flush gate on the group's discount, not on the guest's share:
   a flusher whose share is zero earns the group no discount, so a
   nearly-due participant with a positive share of its own stays out.
   With a positive flusher share the same participant joins with its
   whole pending batch.  Neither caller can tell the gate apart from
   the guest's own share check: serve and the simulator give every
   participant of a table the same share, zero or positive. *)
let test_zero_share_flusher_invites_no_one () =
  let part ~pending ~shared =
    {
      Multiview.Coflush.pending = [| pending |];
      capacity = (fun _ -> 10);
      cost = (fun _ k -> float_of_int k);
      shared = (fun _ -> shared);
    }
  in
  let forced = [| [| 3 |]; [| 0 |] |] in
  let invite flusher_share =
    (Multiview.Coflush.invite
       [| part ~pending:3 ~shared:flusher_share; part ~pending:9 ~shared:1.0 |]
       forced)
      .Multiview.Coflush.rows
  in
  Alcotest.(check (array (array int))) "zero share: no join" forced (invite 0.0);
  Alcotest.(check (array (array int))) "positive share: the guest joins"
    [| [| 3 |]; [| 9 |] |] (invite 0.5)

let () =
  Alcotest.run "multiview"
    [
      ( "coordinator",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "single view" `Quick
            test_single_view_matches_online_style_cost;
          Alcotest.test_case "identical views discounted" `Quick
            test_identical_views_discounted;
          Alcotest.test_case "discount floor" `Quick test_discount_floor;
          Alcotest.test_case "piggyback beats independent" `Quick
            test_piggyback_beats_independent_on_staggered_views;
          Alcotest.test_case "piggyback inert without discount" `Quick
            test_piggyback_never_worse_with_zero_discount;
          Alcotest.test_case "per-view sums" `Quick
            test_per_view_costs_sum_to_undiscounted;
          Alcotest.test_case "one view = ONLINE plan" `Quick
            test_one_view_is_the_online_plan;
          Alcotest.test_case "zero-share flusher invites no one" `Quick
            test_zero_share_flusher_invites_no_one;
        ] );
    ]
