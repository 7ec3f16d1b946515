(* Property-based tests (qcheck) on the core invariants:

   - cost-function families satisfy the monotone/subadditive contract for
     random parameters;
   - MakeLazyPlan and MakeLGMPlan preserve validity and respect their
     cost bounds on random valid plans (Lemma 1, Theorem 1);
   - A* equals the exact optimum on affine instances (Theorem 2) and stays
     within factor 2 of it in general (Theorem 1);
   - ONLINE and NAIVE always produce valid plans;
   - the pairing heap sorts;
   - the value multiset agrees with a sorted-list model;
   - the incremental maintainer agrees with recompute-from-scratch under
     random modification streams and random asymmetric processing. *)

let seeded_gen f = QCheck.Gen.(int_range 0 1_000_000 >>= fun seed -> return (f seed))

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- cost function properties --------------------------------------------- *)

let arb_cost_func =
  let open QCheck.Gen in
  let pos lo hi = float_range lo hi in
  let g =
    oneof
      [
        (pos 0.1 10.0 >|= fun a -> Cost.Func.linear ~a);
        ( pair (pos 0.1 10.0) (pos 0.0 20.0) >|= fun (a, b) ->
          Cost.Func.affine ~a ~b );
        ( pair (pos 0.1 10.0) (pos 0.0 20.0) >|= fun (a, b) ->
          Cost.Func.concave_sqrt ~a ~b );
        ( pair (pos 0.1 10.0) (pos 0.0 20.0) >|= fun (a, b) ->
          Cost.Func.logarithmic ~a ~b );
        ( pair (pos 0.5 10.0) (int_range 1 16) >|= fun (c, b) ->
          Cost.Func.blocked ~per_block:c ~block_size:b );
        ( pair (pos 0.1 10.0) (pos 1.0 100.0) >|= fun (a, cap) ->
          Cost.Func.plateau ~a ~cap );
        ( pair (pos 0.01 0.9) (pos 1.0 50.0) >|= fun (eps, limit) ->
          Cost.Func.step_tightness ~eps ~limit );
      ]
  in
  QCheck.make ~print:Cost.Func.name g

let prop_cost_monotone =
  QCheck.Test.make ~name:"every family is monotone" ~count:200 arb_cost_func
    (fun f -> Cost.Check.is_monotone ~upto:120 f)

let prop_cost_subadditive =
  QCheck.Test.make ~name:"every family is subadditive" ~count:200 arb_cost_func
    (fun f -> Cost.Check.is_subadditive ~upto:120 f)

let prop_cost_sum_closed =
  QCheck.Test.make ~name:"sum preserves the contract" ~count:100
    (QCheck.pair arb_cost_func arb_cost_func) (fun (f, g) ->
      let s = Cost.Func.sum f g in
      Cost.Check.is_monotone ~upto:80 s && Cost.Check.is_subadditive ~upto:80 s)

let prop_max_batch_correct =
  QCheck.Test.make ~name:"max_batch is the boundary" ~count:200
    (QCheck.pair arb_cost_func (QCheck.float_range 0.5 200.0)) (fun (f, limit) ->
      let k = Cost.Check.max_batch f ~limit ~cap:10_000 in
      let fits n = Cost.Func.eval f n <= limit in
      (k = 0 || fits k) && (k = 10_000 || not (fits (k + 1))))

(* --- random specs and plans ------------------------------------------------ *)

let gen_affine_costs n st =
  Array.init n (fun _ ->
      let a = 0.5 +. QCheck.Gen.float_bound_exclusive 3.0 st in
      let b = QCheck.Gen.float_bound_inclusive 5.0 st in
      Cost.Func.affine ~a ~b)

let gen_mixed_costs n st =
  Array.init n (fun _ ->
      match QCheck.Gen.int_bound 2 st with
      | 0 ->
          let a = 0.5 +. QCheck.Gen.float_bound_exclusive 3.0 st in
          Cost.Func.linear ~a
      | 1 ->
          let a = 0.5 +. QCheck.Gen.float_bound_exclusive 2.0 st in
          let cap = 2.0 +. QCheck.Gen.float_bound_inclusive 8.0 st in
          Cost.Func.plateau ~a ~cap
      | _ ->
          let c = 1.0 +. QCheck.Gen.float_bound_inclusive 3.0 st in
          let b = 1 + QCheck.Gen.int_bound 4 st in
          Cost.Func.blocked ~per_block:c ~block_size:b)

let gen_spec ~affine st =
  let n = 1 + QCheck.Gen.int_bound 1 st in
  let horizon = 2 + QCheck.Gen.int_bound 4 st in
  let costs = if affine then gen_affine_costs n st else gen_mixed_costs n st in
  let arrivals =
    Array.init (horizon + 1) (fun _ ->
        Array.init n (fun _ -> QCheck.Gen.int_bound 2 st))
  in
  (* Keep the limit meaningful: above the cheapest single modification,
     below the cost of everything at once (when possible). *)
  let limit = 3.0 +. QCheck.Gen.float_bound_inclusive 10.0 st in
  Abivm.Spec.make ~costs ~limit ~arrivals

let print_spec spec =
  Printf.sprintf "n=%d T=%d C=%.2f arrivals=%s"
    (Abivm.Spec.n_tables spec) (Abivm.Spec.horizon spec) (Abivm.Spec.limit spec)
    (String.concat ","
       (Array.to_list
          (Array.map
             (fun row -> Abivm.Statevec.to_string row)
             (Abivm.Spec.arrivals spec))))

let arb_affine_spec = QCheck.make ~print:print_spec (gen_spec ~affine:true)
let arb_mixed_spec = QCheck.make ~print:print_spec (gen_spec ~affine:false)

(* Random valid plan: at each step, with probability 1/2 take a random
   valid sub-action (falling back to flush-all when the state is full and
   the random choice is invalid). *)
let random_valid_plan st spec =
  let n = Abivm.Spec.n_tables spec in
  let horizon = Abivm.Spec.horizon spec in
  let state = ref (Abivm.Statevec.zero n) in
  let actions = ref [] in
  for t = 0 to horizon do
    let pre = Abivm.Statevec.add !state (Abivm.Spec.arrivals spec).(t) in
    let action =
      if t = horizon then pre
      else begin
        let candidate =
          if QCheck.Gen.bool st then
            Array.map (fun k -> if k = 0 then 0 else QCheck.Gen.int_bound k st) pre
          else Abivm.Statevec.zero n
        in
        let post = Abivm.Statevec.sub pre candidate in
        if Abivm.Spec.is_full spec post then pre (* flush everything *)
        else candidate
      end
    in
    if not (Abivm.Statevec.is_zero action) then actions := (t, action) :: !actions;
    state := Abivm.Statevec.sub pre action
  done;
  Abivm.Plan.of_actions (List.rev !actions)

let arb_spec_and_plan =
  let gen st =
    let spec = gen_spec ~affine:false st in
    (spec, random_valid_plan st spec)
  in
  QCheck.make
    ~print:(fun (spec, plan) ->
      print_spec spec ^ " plan=" ^ Abivm.Plan.to_string plan)
    gen

let prop_random_plans_valid =
  QCheck.Test.make ~name:"random plan generator yields valid plans" ~count:300
    arb_spec_and_plan (fun (spec, plan) -> Abivm.Plan.is_valid spec plan)

let prop_make_lazy =
  QCheck.Test.make ~name:"make_lazy: lazy, valid, never costlier (Lemma 1)"
    ~count:300 arb_spec_and_plan (fun (spec, plan) ->
      let lazy_plan = Abivm.Transforms.make_lazy spec plan in
      Abivm.Plan.is_valid spec lazy_plan
      && Abivm.Plan.is_lazy spec lazy_plan
      && Abivm.Plan.cost spec lazy_plan <= Abivm.Plan.cost spec plan +. 1e-9)

let prop_make_lgm =
  QCheck.Test.make
    ~name:"make_lgm: valid LGM, per-table cost within 2x (Lemmas 2-4)"
    ~count:300 arb_spec_and_plan (fun (spec, plan) ->
      let lgm = Abivm.Transforms.make_lgm spec plan in
      let per_in = Abivm.Plan.cost_per_table spec plan in
      let per_out = Abivm.Plan.cost_per_table spec lgm in
      Abivm.Plan.is_valid spec lgm
      && Abivm.Plan.is_lgm spec lgm
      && Array.for_all2 (fun o i -> o <= (2.0 *. i) +. 1e-9) per_out per_in)

let prop_astar_equals_exact_affine =
  QCheck.Test.make ~name:"A* = exact optimum on affine costs (Theorem 2)"
    ~count:60 arb_affine_spec (fun spec ->
      match Abivm.Exact.solve ~max_expansions:400_000 spec with
      | exception Abivm.Exact.Too_large _ -> QCheck.assume_fail ()
      | exact_cost, _ ->
          let { Abivm.Astar.cost = astar_cost; plan = plan; stats = _ } = Abivm.Astar.solve spec in
          Abivm.Plan.is_lgm spec plan
          && Float.abs (astar_cost -. exact_cost) < 1e-6)

let prop_astar_within_two_of_exact =
  QCheck.Test.make ~name:"A* within factor 2 of exact (Theorem 1)" ~count:60
    arb_mixed_spec (fun spec ->
      match Abivm.Exact.solve ~max_expansions:400_000 spec with
      | exception Abivm.Exact.Too_large _ -> QCheck.assume_fail ()
      | exact_cost, _ ->
          let { Abivm.Astar.cost = astar_cost; plan = plan; stats = _ } = Abivm.Astar.solve spec in
          Abivm.Plan.is_valid spec plan
          && astar_cost >= exact_cost -. 1e-6
          && astar_cost <= (2.0 *. exact_cost) +. 1e-6)

(* NAIVE is lazy and greedy but not minimal, so it lives outside the LGM
   space A* optimizes over: on subadditive non-concave costs (blocked) a
   flush-everything plan can undercut every minimal plan, and the
   unconditional claim "A* <= NAIVE" is false (it intermittently failed
   on random blocked-cost instances).  What does hold: on affine costs
   OPT_LGM = OPT <= NAIVE (Theorem 2), and in general
   OPT_LGM <= 2 OPT <= 2 NAIVE (Theorem 1). *)
let prop_astar_beats_or_ties_naive_affine =
  QCheck.Test.make ~name:"A* never worse than NAIVE (affine)" ~count:150
    arb_affine_spec (fun spec ->
      let { Abivm.Astar.cost = astar_cost; plan = _; stats = _ } = Abivm.Astar.solve spec in
      astar_cost <= Abivm.Plan.cost spec (Abivm.Naive.plan spec) +. 1e-6)

let prop_astar_within_twice_naive =
  QCheck.Test.make ~name:"A* within 2x of NAIVE (mixed)" ~count:150
    arb_mixed_spec (fun spec ->
      let { Abivm.Astar.cost = astar_cost; plan = _; stats = _ } = Abivm.Astar.solve spec in
      astar_cost <= (2.0 *. Abivm.Plan.cost spec (Abivm.Naive.plan spec)) +. 1e-6)

let prop_naive_valid =
  QCheck.Test.make ~name:"NAIVE always valid" ~count:300 arb_mixed_spec
    (fun spec -> Abivm.Plan.is_valid spec (Abivm.Naive.plan spec))

let prop_online_valid =
  QCheck.Test.make ~name:"ONLINE always valid" ~count:300 arb_mixed_spec
    (fun spec -> Abivm.Plan.is_valid spec (Abivm.Online.plan spec))

let prop_adapt_valid =
  QCheck.Test.make ~name:"ADAPT always valid (any t0)" ~count:100
    (QCheck.pair arb_mixed_spec (QCheck.int_range 1 12)) (fun (spec, t0) ->
      Abivm.Plan.is_valid spec (Abivm.Adapt.plan spec ~t0))

let prop_adapt_theorem4_bound =
  (* Theorem 4 (affine costs): adapting a T0-optimal plan to refresh time T
     costs at most OPT_T + sum b_i when T < T0, and
     OPT_T + ceil(T / T0) * sum b_i when T > T0 (periodic arrivals). *)
  let gen st =
    let n = 1 + QCheck.Gen.int_bound 1 st in
    let costs = gen_affine_costs n st in
    let t0 = 4 + QCheck.Gen.int_bound 8 st in
    let t = 2 + QCheck.Gen.int_bound 16 st in
    let period = Array.init n (fun _ -> QCheck.Gen.int_bound 2 st) in
    let arrivals = Array.init (t + 1) (fun _ -> Array.copy period) in
    let limit = 4.0 +. QCheck.Gen.float_bound_inclusive 10.0 st in
    (Abivm.Spec.make ~costs ~limit ~arrivals, t0)
  in
  QCheck.Test.make ~name:"ADAPT within Theorem 4's bound (affine, periodic)"
    ~count:100
    (QCheck.make ~print:(fun (spec, t0) -> print_spec spec ^ Printf.sprintf " t0=%d" t0) gen)
    (fun (spec, t0) ->
      let t = Abivm.Spec.horizon spec in
      let adapted = Abivm.Adapt.plan spec ~t0 in
      let { Abivm.Astar.cost = opt_t; plan = _; stats = _ } = Abivm.Astar.solve spec in
      (* b_i = f_i(1) - slope; recover from two evaluations. *)
      let sum_b =
        Array.fold_left
          (fun acc f ->
            let f1 = Cost.Func.eval f 1 and f2 = Cost.Func.eval f 2 in
            acc +. Float.max 0.0 (f1 -. (f2 -. f1)))
          0.0 (Abivm.Spec.costs spec)
      in
      let slack =
        if t <= t0 then sum_b
        else float_of_int ((t + t0 - 1) / t0) *. sum_b
      in
      Abivm.Plan.is_valid spec adapted
      && Abivm.Plan.cost spec adapted <= opt_t +. slack +. 1e-6)

let prop_minimal_greedy_actions =
  QCheck.Test.make ~name:"minimal greedy actions restore the constraint"
    ~count:300 arb_mixed_spec (fun spec ->
      let n = Abivm.Spec.n_tables spec in
      (* Build a full state by stacking arrivals. *)
      let s = Array.make n 0 in
      Array.iter (fun row -> Abivm.Statevec.add_in_place s row)
        (Abivm.Spec.arrivals spec);
      QCheck.assume (Abivm.Spec.is_full spec s);
      let subsets = Abivm.Actions.minimal_greedy spec s in
      subsets <> []
      && List.for_all
           (fun subset ->
             Abivm.Actions.feasible_subset spec s subset
             && Util.Subsets.is_minimal_satisfying subset
                  (Abivm.Actions.feasible_subset spec s))
           subsets)

(* --- pqueue ---------------------------------------------------------------- *)

let prop_pqueue_sorts =
  QCheck.Test.make ~name:"pairing heap pops in priority order" ~count:300
    QCheck.(list (float_range (-100.0) 100.0))
    (fun priorities ->
      let q = Util.Pqueue.create () in
      List.iteri (fun i p -> Util.Pqueue.push q ~priority:p i) priorities;
      let rec drain acc =
        match Util.Pqueue.pop q with
        | Some (p, _) -> drain (p :: acc)
        | None -> List.rev acc
      in
      let popped = drain [] in
      List.length popped = List.length priorities
      && popped = List.sort Float.compare priorities)

(* --- vmultiset vs model ----------------------------------------------------- *)

let prop_vmultiset_model =
  QCheck.Test.make ~name:"vmultiset agrees with sorted-list model" ~count:300
    QCheck.(list (pair bool (int_range 0 8)))
    (fun ops ->
      let open Relation in
      let apply (ms, model) (is_add, v) =
        let value = Value.Int v in
        if is_add then (Vmultiset.add ms value, value :: model)
        else if List.exists (Value.equal value) model then
          ( Vmultiset.remove ms value,
            let removed = ref false in
            List.filter
              (fun x ->
                if (not !removed) && Value.equal x value then begin
                  removed := true;
                  false
                end
                else true)
              model )
        else (ms, model)
      in
      let ms, model = List.fold_left apply (Vmultiset.empty, []) ops in
      let sorted = List.sort Value.compare model in
      Vmultiset.cardinal ms = List.length model
      && Vmultiset.min_elt ms
         = (match sorted with [] -> None | x :: _ -> Some x)
      && Vmultiset.max_elt ms
         = (match List.rev sorted with [] -> None | x :: _ -> Some x))

let prop_opflow_refresh_monotone =
  QCheck.Test.make ~name:"opflow refresh cost monotone in queue sizes"
    ~count:200
    QCheck.(pair (list_of_size (Gen.return 3) (int_range 0 20)) (int_range 0 2))
    (fun (qs, bump_at) ->
      let stage name cost selectivity = { Opflow.Pipeline.name; cost; selectivity } in
      let p =
        Opflow.Pipeline.make ~limit:1e9
          [
            stage "a" (Cost.Func.linear ~a:1.0) 0.5;
            stage "b" (Cost.Func.plateau ~a:5.0 ~cap:40.0) 1.5;
            stage "c" (Cost.Func.affine ~a:0.5 ~b:2.0) 1.0;
          ]
      in
      match qs with
      | [ a; b; c ] ->
          let state = [| a; b; c |] in
          let bigger = Array.copy state in
          bigger.(bump_at) <- bigger.(bump_at) + 1;
          Opflow.Pipeline.refresh_cost p bigger
          >= Opflow.Pipeline.refresh_cost p state -. 1e-9
      | _ -> QCheck.assume_fail ())

(* --- maintainer vs recompute ------------------------------------------------ *)

(* Random modification streams over a 2-table join, applied through random
   asymmetric batches; after every batch the incremental content must
   equal the from-scratch evaluation. *)
let prop_maintainer_agrees_with_recompute =
  let gen st =
    let seed = QCheck.Gen.int_bound 1_000_000 st in
    let batches =
      QCheck.Gen.list_size (QCheck.Gen.int_range 1 8)
        (QCheck.Gen.pair (QCheck.Gen.int_bound 1) (QCheck.Gen.int_bound 4))
        st
    in
    (seed, batches)
  in
  let print (seed, batches) =
    Printf.sprintf "seed=%d batches=%s" seed
      (String.concat ";"
         (List.map (fun (i, k) -> Printf.sprintf "(%d,%d)" i k) batches))
  in
  QCheck.Test.make ~name:"maintainer = recompute under random streams"
    ~count:60 (QCheck.make ~print gen) (fun (seed, batches) ->
      let open Relation in
      let prng = Util.Prng.create ~seed in
      let meter = Meter.create () in
      let r =
        Table.create ~meter ~name:"r"
          ~schema:(Schema.make [ ("rk", Datatype.TInt); ("jk", Datatype.TInt) ])
          ()
      in
      let s =
        Table.create ~meter ~name:"s"
          ~schema:
            (Schema.make
               [ ("sk", Datatype.TInt); ("jk", Datatype.TInt); ("w", Datatype.TFloat) ])
          ()
      in
      Table.create_index r "jk";
      for i = 0 to 9 do
        ignore (Table.insert r [| Value.Int i; Value.Int (i mod 4) |])
      done;
      for i = 0 to 9 do
        ignore
          (Table.insert s
             [| Value.Int i; Value.Int (i mod 4); Value.Float (float_of_int i) |])
      done;
      let view =
        Ivm.Viewdef.make ~name:"pv" ~tables:[| r; s |]
          ~join:[ { Ivm.Viewdef.left = 0; left_col = "jk"; right = 1; right_col = "jk" } ]
          ~aggs:
            [
              Relation.Agg.count "n";
              Relation.Agg.min_of "s.w" ~as_name:"mn";
              Relation.Agg.sum "s.w" ~as_name:"tot";
            ]
          ()
      in
      let m = Ivm.Maintainer.create ~meter view in
      let shadows =
        [| Tpcr.Updates.shadow_of_table r; Tpcr.Updates.shadow_of_table s |]
      in
      let next_key = ref 1000 in
      let random_change i =
        let shadow = shadows.(i) in
        match Util.Prng.int prng 3 with
        | 0 ->
            incr next_key;
            let make _ =
              if i = 0 then [| Value.Int !next_key; Value.Int (Util.Prng.int prng 4) |]
              else
                [|
                  Value.Int !next_key;
                  Value.Int (Util.Prng.int prng 4);
                  Value.Float (Util.Prng.float prng 10.0);
                |]
            in
            Tpcr.Updates.insert_row prng shadow ~make
        | 1 when Tpcr.Updates.shadow_size shadow > 0 ->
            Tpcr.Updates.delete_random prng shadow
        | _ when Tpcr.Updates.shadow_size shadow > 0 ->
            Tpcr.Updates.update_column prng shadow ~column:"jk" ~value:(fun g ->
                Value.Int (Util.Prng.int g 4))
        | _ ->
            incr next_key;
            Tpcr.Updates.insert_row prng shadow ~make:(fun _ ->
                if i = 0 then [| Value.Int !next_key; Value.Int 0 |]
                else [| Value.Int !next_key; Value.Int 0; Value.Float 0.0 |])
      in
      List.for_all
        (fun (table, k) ->
          for _ = 1 to k do
            Ivm.Maintainer.on_arrive m table (random_change table)
          done;
          ignore (Ivm.Maintainer.process m table (Ivm.Maintainer.pending_size m table));
          Ivm.Maintainer.check_consistent m = Ok ())
        batches
      && begin
           ignore (Ivm.Maintainer.refresh m);
           Ivm.Maintainer.check_consistent m = Ok ()
         end)

let prop_codec_value_roundtrip =
  let arb_value =
    let open QCheck.Gen in
    oneof
      [
        (int >|= fun x -> Relation.Value.Int x);
        ( float >|= fun x ->
          (* NaN never equals itself; replace with a sentinel. *)
          Relation.Value.Float (if Float.is_nan x then 0.0 else x) );
        (string >|= fun s -> Relation.Value.Str s);
        (bool >|= fun b -> Relation.Value.Bool b);
        return Relation.Value.Null;
      ]
  in
  QCheck.Test.make ~name:"codec value roundtrip" ~count:500
    (QCheck.make ~print:Relation.Value.to_string arb_value) (fun v ->
      match Ivm.Codec.value_of_string (Ivm.Codec.value_to_string v) with
      | Ok v' -> Relation.Value.compare v v' = 0
      | Error _ -> false)

(* --- arrivals ---------------------------------------------------------------- *)

let prop_arrivals_non_negative =
  QCheck.Test.make ~name:"arrival sequences are non-negative" ~count:100
    (QCheck.make (seeded_gen (fun s -> s)))
    (fun seed ->
      let d =
        Workload.Arrivals.generate ~seed ~horizon:60
          [|
            Workload.Arrivals.slow_unstable;
            Workload.Arrivals.Poisson 1.5;
            Workload.Arrivals.fast_unstable;
          |]
      in
      Array.for_all (Array.for_all (fun c -> c >= 0)) d)

(* --- deterministic seeded theorem suite ----------------------------------- *)

(* Unlike the qcheck properties above (which draw fresh instances every
   run), this suite fixes its seeds: 250 mixed and 250 affine instances
   from the shared [Gen] module, each solved exactly, each checked against
   every strategy the library exposes.  A failure message carries the seed
   and the full instance, and re-running reproduces it bit for bit. *)

let strategy_plans spec =
  let t0 = max 1 (Abivm.Spec.horizon spec / 2) in
  let naive = Abivm.Naive.plan spec in
  [
    ("naive", naive);
    ("lazy(naive)", Abivm.Transforms.make_lazy spec naive);
    ("lgm(naive)", Abivm.Transforms.make_lgm spec naive);
    ("astar", (Abivm.Astar.solve spec).Abivm.Astar.plan);
    ("online", Abivm.Online.plan spec);
    ("adapt", Abivm.Adapt.plan spec ~t0);
  ]

let check_seeded_instance ~seed ~affine spec =
  match Abivm.Exact.solve ~max_expansions:500_000 spec with
  | exception Abivm.Exact.Too_large _ -> false
  | opt, opt_plan ->
      let fail fmt =
        Printf.ksprintf
          (fun msg ->
            Alcotest.failf "seed %d (%s): %s" seed (Gen.describe spec) msg)
          fmt
      in
      if not (Abivm.Plan.is_valid spec opt_plan) then fail "exact plan invalid";
      let astar_cost = ref nan in
      List.iter
        (fun (name, plan) ->
          (match Abivm.Plan.validate spec plan with
          | Ok () -> ()
          | Error v ->
              fail "%s plan invalid: %s" name
                (Format.asprintf "%a" Abivm.Plan.pp_violation v));
          let c = Abivm.Plan.cost spec plan in
          if c < opt -. 1e-6 then
            fail "%s cost %.6f below the exact optimum %.6f" name c opt;
          if name = "astar" then astar_cost := c)
        (strategy_plans spec);
      if !astar_cost > (2.0 *. opt) +. 1e-6 then
        fail "OPT_LGM %.6f exceeds 2 * OPT = %.6f (Theorem 1)" !astar_cost
          (2.0 *. opt);
      if affine && Float.abs (!astar_cost -. opt) > 1e-6 then
        fail "OPT_LGM %.6f <> OPT %.6f on affine costs (Theorem 2)" !astar_cost
          opt;
      (* Lemma 1's fixed point: lazifying a lazy plan changes nothing. *)
      let l1 = Abivm.Transforms.make_lazy spec (Abivm.Naive.plan spec) in
      let l2 = Abivm.Transforms.make_lazy spec l1 in
      if Abivm.Plan.actions l1 <> Abivm.Plan.actions l2 then
        fail "make_lazy is not idempotent";
      true

let test_seeded_theorems ~affine () =
  let solved = ref 0 in
  for seed = 1 to 250 do
    let spec =
      Gen.instance ~affine ~seed:(((if affine then 2 else 1) * 100_000) + seed) ()
    in
    if check_seeded_instance ~seed ~affine spec then incr solved
  done;
  if !solved < 200 then
    Alcotest.failf "only %d/250 instances were exactly solvable (need >= 200)"
      !solved

(* --- higher-order metered curves: heuristic admissibility ------------------ *)

(* The A* heuristic was re-derived for calibrated curves (DESIGN.md §13):
   [lb_i(M)] is the DP optimum of the single-table relaxation, replacing
   the paper's floor-term heuristic (unsound on subadditive non-concave
   costs).  This suite pins the re-derivation against the curves the
   engine actually produces: batch cost curves metered from live synth
   engines under both maintenance orders, repaired to their greatest
   subadditive minorant (raw HO curves violate subadditivity at small [k]
   because the per-batch setup charge dominates), then fed through random
   limit/arrival specs and checked four ways:

   - A* with the heuristic returns the same cost as uniform-cost search
     (Dijkstra), bit for bit — the admissibility/consistency witness;
   - the plan is valid LGM;
   - where Exact can solve the instance, [opt <= astar <= 2 opt];
   - [table_lower_bound] never exceeds the cost of an explicit random
     decomposition into batches within [batch_bounds]. *)

let measured_order_costs ~engine_seed =
  let sizes = [ 1; 2; 4; 8; 16 ] in
  let make order =
    let db = Tpcr.Synth.generate ~seed:engine_seed ~r_rows:120 ~s_rows:120 () in
    let m =
      Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter ~order
        (Tpcr.Synth.join_view db)
    in
    (m, Tpcr.Synth.insert_feeds ~seed:(engine_seed + 1) db)
  in
  let c0 = Bridge.Calibrate.measure_orders ~make ~table:0 ~sizes in
  let c1 = Bridge.Calibrate.measure_orders ~make ~table:1 ~sizes in
  List.map
    (fun order ->
      let repaired t curves =
        let name =
          Printf.sprintf "measured-%s-t%d" (Ivm.Viewdef.order_name order) t
        in
        Cost.Func.subadditive_hull ~upto:48
          (Bridge.Calibrate.tabulated ~name (List.assoc order curves))
      in
      (order, [| repaired 0 c0; repaired 1 c1 |]))
    [ Ivm.Viewdef.First_order; Ivm.Viewdef.Higher_order ]

let check_curve_instance ~seed ~label spec =
  let fail fmt =
    Printf.ksprintf
      (fun msg -> Alcotest.failf "%s seed %d: %s" label seed msg)
      fmt
  in
  let h = Abivm.Astar.solve spec in
  let d = Abivm.Astar.solve ~use_heuristic:false spec in
  if h.Abivm.Astar.cost <> d.Abivm.Astar.cost then
    fail "A* with heuristic %.17g <> uniform-cost %.17g (admissibility broken)"
      h.Abivm.Astar.cost d.Abivm.Astar.cost;
  if not (Abivm.Plan.is_valid spec h.Abivm.Astar.plan) then fail "A* plan invalid";
  if not (Abivm.Plan.is_lgm spec h.Abivm.Astar.plan) then fail "A* plan not LGM";
  (match Abivm.Exact.solve ~max_expansions:300_000 spec with
  | exception Abivm.Exact.Too_large _ -> ()
  | opt, _ ->
      if h.Abivm.Astar.cost < opt -. 1e-6 then
        fail "A* %.6f below exact optimum %.6f" h.Abivm.Astar.cost opt;
      if h.Abivm.Astar.cost > (2.0 *. opt) +. 1e-6 then
        fail "A* %.6f exceeds 2 * OPT = %.6f" h.Abivm.Astar.cost (2.0 *. opt));
  (* Admissibility of the tabulated single-table bound against explicit
     random decompositions into batches within the batch bounds. *)
  let g = Util.Prng.create ~seed:(seed + 555) in
  let bounds = Abivm.Astar.batch_bounds spec in
  let costs = Abivm.Spec.costs spec in
  for table = 0 to Abivm.Spec.n_tables spec - 1 do
    if Abivm.Astar.table_lower_bound spec ~table ~remaining:0 <> 0.0 then
      fail "lb(0) <> 0 for table %d" table;
    for _ = 1 to 8 do
      let remaining = 1 + Util.Prng.int g 24 in
      let rec decompose left acc =
        if left = 0 then acc
        else
          let k = 1 + Util.Prng.int g (min bounds.(table) left) in
          decompose (left - k) (k :: acc)
      in
      let parts = decompose remaining [] in
      let explicit =
        List.fold_left
          (fun acc k -> acc +. Cost.Func.eval costs.(table) k)
          0.0 parts
      in
      let lb = Abivm.Astar.table_lower_bound spec ~table ~remaining in
      if lb > explicit +. 1e-9 then
        fail
          "lb_%d(%d) = %.6f exceeds explicit decomposition [%s] = %.6f"
          table remaining lb
          (String.concat ";" (List.map string_of_int parts))
          explicit
    done
  done

let test_ho_curve_theorems () =
  List.iter
    (fun engine_seed ->
      List.iter
        (fun (order, costs) ->
          let label =
            Printf.sprintf "engine=%d order=%s" engine_seed
              (Ivm.Viewdef.order_name order)
          in
          for seed = 1 to 80 do
            let g = Util.Prng.create ~seed:((engine_seed * 10_000) + seed) in
            let n = Array.length costs in
            let horizon = 2 + Util.Prng.int g 4 in
            let arrivals =
              Array.init (horizon + 1) (fun _ ->
                  Array.init n (fun _ -> Util.Prng.int g 3))
            in
            (* Above the cheapest single modification so single-step
               flushes exist, but low enough that batching matters. *)
            let f1 =
              Array.fold_left
                (fun acc f -> Float.max acc (Cost.Func.eval f 1))
                0.0 costs
            in
            let limit = f1 *. (1.2 +. Util.Prng.float g 2.0) in
            let spec = Abivm.Spec.make ~costs ~limit ~arrivals in
            check_curve_instance ~seed ~label spec
          done)
        (measured_order_costs ~engine_seed))
    [ 3; 19 ]

(* --- regression pin: first-order metering -------------------------------- *)

(* The exact cost-unit curves the seed engine produced before the
   higher-order refactor (synth seed 7, 400x400 rows, insert feeds seed
   11, batches of 1/8/64/256 measured for table 0 then table 1 on one
   engine).  The first-order path must re-meter bit-identically: any
   drift here means the refactor changed FO behaviour, not just added HO
   behaviour. *)
let test_fo_metering_fixture () =
  let db = Tpcr.Synth.generate ~seed:7 ~r_rows:400 ~s_rows:400 () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter
      ~order:Ivm.Viewdef.First_order
      (Tpcr.Synth.join_view db)
  in
  let feeds = Tpcr.Synth.insert_feeds ~seed:11 db in
  let sizes = [ 1; 8; 64; 256 ] in
  let check table expected =
    let got = Bridge.Calibrate.measure_curve m feeds ~table ~sizes in
    List.iter2
      (fun (k, cu) (k', cu') ->
        if k <> k' || cu <> cu' then
          Alcotest.failf
            "FO metering drift on table %d: f(%d) = %.17g, seed fixture %.17g"
            table k cu cu')
      got expected
  in
  check 0 [ (1, 854.0); (8, 892.0); (64, 1190.0); (256, 2253.0) ];
  check 1 [ (1, 65.0); (8, 191.0); (64, 1136.0); (256, 4443.5) ]

let () =
  Alcotest.run "props"
    [
      ( "cost",
        List.map to_alcotest
          [
            prop_cost_monotone;
            prop_cost_subadditive;
            prop_cost_sum_closed;
            prop_max_batch_correct;
          ] );
      ( "plans",
        List.map to_alcotest
          [
            prop_random_plans_valid;
            prop_make_lazy;
            prop_make_lgm;
            prop_minimal_greedy_actions;
          ] );
      ( "algorithms",
        List.map to_alcotest
          [
            prop_astar_equals_exact_affine;
            prop_astar_within_two_of_exact;
            prop_astar_beats_or_ties_naive_affine;
            prop_astar_within_twice_naive;
            prop_naive_valid;
            prop_online_valid;
            prop_adapt_valid;
            prop_adapt_theorem4_bound;
          ] );
      ( "structures",
        List.map to_alcotest
          [ prop_pqueue_sorts; prop_vmultiset_model ] );
      ("opflow", List.map to_alcotest [ prop_opflow_refresh_monotone ]);
      ( "maintainer",
        List.map to_alcotest [ prop_maintainer_agrees_with_recompute ] );
      ("codec", List.map to_alcotest [ prop_codec_value_roundtrip ]);
      ("workload", List.map to_alcotest [ prop_arrivals_non_negative ]);
      ( "seeded",
        [
          Alcotest.test_case
            "250 mixed instances: validity, Theorem 1, Lemma 1" `Quick
            (test_seeded_theorems ~affine:false);
          Alcotest.test_case "250 affine instances: Theorem 2 equality" `Quick
            (test_seeded_theorems ~affine:true);
          Alcotest.test_case
            "320 instances on metered HO/FO curves: heuristic = Dijkstra, \
             bounds admissible"
            `Quick test_ho_curve_theorems;
          Alcotest.test_case "first-order metering matches seed fixtures"
            `Quick test_fo_metering_fixture;
        ] );
    ]
