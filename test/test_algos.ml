(* Tests for the planning algorithms of §4 and the approximation theory of
   §3: exact DP, A* (optimal LGM), heuristic consistency, the §3.2
   tightness construction, ADAPT (Theorem 4), and the ONLINE heuristic. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf ?(eps = 1e-6) msg = Alcotest.check (Alcotest.float eps) msg

let lin a = Cost.Func.linear ~a
let aff a b = Cost.Func.affine ~a ~b

let uniform_arrivals ~horizon counts = Array.make (horizon + 1) counts

let mk_spec ~costs ~limit arrivals = Abivm.Spec.make ~costs ~limit ~arrivals

(* A small standard instance reused across tests. *)
let small_affine_spec () =
  mk_spec
    ~costs:[| aff 1.0 2.0; aff 0.5 5.0 |]
    ~limit:6.0
    [| [| 1; 1 |]; [| 2; 0 |]; [| 0; 3 |]; [| 1; 1 |]; [| 2; 2 |] |]

(* --- Exact --------------------------------------------------------------- *)

let test_exact_trivial_instance () =
  (* No intermediate fullness: everything flushed at the horizon. *)
  let spec = mk_spec ~costs:[| lin 1.0 |] ~limit:100.0 [| [| 1 |]; [| 2 |] |] in
  let cost, plan = Abivm.Exact.solve spec in
  checkf "cost is f(3)" 3.0 cost;
  checkb "valid" true (Abivm.Plan.is_valid spec plan);
  checki "single action" 1 (List.length (Abivm.Plan.actions plan))

let test_exact_forced_split () =
  let spec = mk_spec ~costs:[| lin 1.0 |] ~limit:2.0 [| [| 2 |]; [| 2 |] |] in
  let cost, plan = Abivm.Exact.solve spec in
  (* Linear cost: any split costs 4 total. *)
  checkf "cost" 4.0 cost;
  checkb "valid" true (Abivm.Plan.is_valid spec plan)

let test_exact_respects_budget () =
  let spec =
    mk_spec ~costs:[| lin 1.0; lin 1.0 |] ~limit:50.0
      (uniform_arrivals ~horizon:30 [| 5; 5 |])
  in
  checkb "raises Too_large" true
    (try
       ignore (Abivm.Exact.solve ~max_expansions:100 spec);
       false
     with Abivm.Exact.Too_large _ -> true)

let test_exact_can_beat_lgm_on_step_cost () =
  (* The §3.2 example: a non-LGM plan that splits a batch beats every LGM
     plan under the step cost function. *)
  let eps = 0.5 and limit = 8.0 in
  let f = Cost.Func.step_tightness ~eps ~limit in
  (* 2/eps + 1 = 5 arrivals per step. *)
  let arrivals = uniform_arrivals ~horizon:3 [| 5 |] in
  let spec = mk_spec ~costs:[| f |] ~limit arrivals in
  let exact_cost, exact_plan = Abivm.Exact.solve spec in
  let { Abivm.Astar.cost = lgm_cost; plan = lgm_plan; stats = _ } = Abivm.Astar.solve spec in
  checkb "exact valid" true (Abivm.Plan.is_valid spec exact_plan);
  checkb "lgm valid" true (Abivm.Plan.is_valid spec lgm_plan);
  checkb "exact strictly better" true (exact_cost < lgm_cost -. 1e-9)

let test_tightness_ratio_approaches_two () =
  (* With eps -> 0 the construction approaches OPT_LGM = (2 - eps) OPT.
     At eps = 0.25 the gap is already well above 1.5. *)
  let eps = 0.25 and limit = 4.0 in
  let f = Cost.Func.step_tightness ~eps ~limit in
  let per_step = int_of_float (2.0 /. eps) + 1 in
  let arrivals = uniform_arrivals ~horizon:3 [| per_step |] in
  let spec = mk_spec ~costs:[| f |] ~limit arrivals in
  let exact_cost, _ = Abivm.Exact.solve spec in
  let { Abivm.Astar.cost = lgm_cost; plan = _; stats = _ } = Abivm.Astar.solve spec in
  let ratio = lgm_cost /. exact_cost in
  checkb "ratio below 2 (Theorem 1)" true (ratio <= 2.0 +. 1e-9);
  checkb "ratio above 1.5 (tightness)" true (ratio > 1.5)

(* --- Astar --------------------------------------------------------------- *)

let test_astar_matches_exact_on_affine () =
  (* Theorem 2: for affine costs the best LGM plan is globally optimal. *)
  let spec = small_affine_spec () in
  let exact_cost, _ = Abivm.Exact.solve spec in
  let { Abivm.Astar.cost = astar_cost; plan = plan; stats = _ } = Abivm.Astar.solve spec in
  checkf "OPT_LGM = OPT" exact_cost astar_cost;
  checkb "plan is valid LGM" true (Abivm.Plan.is_lgm spec plan)

let test_astar_plan_cost_matches_reported () =
  let spec = small_affine_spec () in
  let { Abivm.Astar.cost = cost; plan = plan; stats = _ } = Abivm.Astar.solve spec in
  checkf "reported = recomputed" cost (Abivm.Plan.cost spec plan)

let test_astar_no_worse_than_naive () =
  let spec =
    mk_spec
      ~costs:[| Cost.Func.plateau ~a:1.0 ~cap:6.0; lin 2.0 |]
      ~limit:8.0
      (uniform_arrivals ~horizon:40 [| 1; 1 |])
  in
  let { Abivm.Astar.cost = astar_cost; plan = plan; stats = _ } = Abivm.Astar.solve spec in
  let naive_cost = Abivm.Plan.cost spec (Abivm.Naive.plan spec) in
  checkb "astar <= naive" true (astar_cost <= naive_cost +. 1e-9);
  checkb "valid" true (Abivm.Plan.is_valid spec plan)

let test_astar_exploits_asymmetry () =
  (* Plateau table gains from batching; linear table does not.  The optimal
     plan must flush the linear table far more often. *)
  let spec =
    mk_spec
      ~costs:[| Cost.Func.plateau ~a:2.0 ~cap:6.0; lin 1.0 |]
      ~limit:8.0
      (uniform_arrivals ~horizon:60 [| 1; 1 |])
  in
  let { Abivm.Astar.cost = _; plan = plan; stats = _ } = Abivm.Astar.solve spec in
  let counts = Abivm.Plan.action_count_per_table plan ~n:2 in
  checkb "linear table flushed more often" true (counts.(1) > counts.(0))

let test_astar_heuristic_admissible_along_plan () =
  (* At every node of the optimal plan, h must not exceed the true
     remaining cost of that plan (which is the optimal continuation). *)
  let spec = small_affine_spec () in
  let h = Abivm.Astar.heuristic spec in
  let { Abivm.Astar.cost = _; plan = plan; stats = _ } = Abivm.Astar.solve spec in
  let states = Abivm.Plan.states spec plan in
  let actions = Abivm.Plan.actions plan in
  List.iteri
    (fun i (t, _) ->
      let post = snd states.(t) in
      let remaining =
        List.filteri (fun j _ -> j > i) actions
        |> List.fold_left (fun acc (_, a) -> acc +. Abivm.Spec.f spec a) 0.0
      in
      checkb "h <= remaining optimal cost" true
        (h ~t post <= remaining +. 1e-9))
    actions

let test_astar_heuristic_admissible_at_source () =
  let spec = small_affine_spec () in
  let h0 = Abivm.Astar.heuristic spec ~t:(-1) (Abivm.Statevec.zero 2) in
  let { Abivm.Astar.cost = opt; plan = _; stats = _ } = Abivm.Astar.solve spec in
  checkb "h(source) <= OPT_LGM" true (h0 <= opt +. 1e-9)

let test_astar_without_heuristic_same_cost () =
  let spec = small_affine_spec () in
  let { Abivm.Astar.cost = with_h; plan = _; stats = stats_h } = Abivm.Astar.solve ~use_heuristic:true spec in
  let { Abivm.Astar.cost = without_h; plan = _; stats = _ } = Abivm.Astar.solve ~use_heuristic:false spec in
  checkf "same optimum" with_h without_h;
  checkb "did some work" true (stats_h.Abivm.Astar.expanded > 0)

let test_astar_empty_stream () =
  let spec = mk_spec ~costs:[| lin 1.0 |] ~limit:5.0 [| [| 0 |]; [| 0 |] |] in
  let { Abivm.Astar.cost = cost; plan = plan; stats = _ } = Abivm.Astar.solve spec in
  checkf "zero cost" 0.0 cost;
  checkb "no actions" true (Abivm.Plan.actions plan = []);
  checkb "valid" true (Abivm.Plan.is_valid spec plan)

let test_astar_single_burst () =
  let spec = mk_spec ~costs:[| lin 1.0 |] ~limit:3.0 [| [| 10 |]; [| 0 |]; [| 0 |] |] in
  let { Abivm.Astar.cost = cost; plan = plan; stats = _ } = Abivm.Astar.solve spec in
  checkf "linear total" 10.0 cost;
  checkb "valid" true (Abivm.Plan.is_valid spec plan)

let test_astar_three_tables () =
  let spec =
    mk_spec
      ~costs:[| aff 1.0 1.0; aff 1.0 2.0; aff 1.0 4.0 |]
      ~limit:9.0
      (uniform_arrivals ~horizon:25 [| 1; 1; 1 |])
  in
  let exact_cost, _ = Abivm.Exact.solve ~max_expansions:5_000_000 spec in
  let { Abivm.Astar.cost = astar_cost; plan = plan; stats = _ } = Abivm.Astar.solve spec in
  checkf "matches exact (affine, 3 tables)" exact_cost astar_cost;
  checkb "lgm" true (Abivm.Plan.is_lgm spec plan)

(* --- Adapt --------------------------------------------------------------- *)

let fig6_style_spec horizon =
  mk_spec
    ~costs:[| Cost.Func.plateau ~a:1.0 ~cap:5.0; lin 1.0 |]
    ~limit:7.0
    (uniform_arrivals ~horizon [| 1; 1 |])

let test_adapt_exact_t0 () =
  (* T = T0: ADAPT must replay the optimal LGM plan verbatim. *)
  let spec = fig6_style_spec 30 in
  let { Abivm.Astar.cost = opt; plan = _; stats = _ } = Abivm.Astar.solve spec in
  let adapted = Abivm.Adapt.plan spec ~t0:30 in
  checkb "valid" true (Abivm.Plan.is_valid spec adapted);
  checkf "same cost as OPT_LGM" opt (Abivm.Plan.cost spec adapted)

let test_adapt_truncation () =
  (* T < T0 (Theorem 4 upper bound: OPT_T + sum b_i for affine costs). *)
  let costs = [| aff 1.0 2.0; aff 1.0 3.0 |] in
  let full = mk_spec ~costs ~limit:8.0 (uniform_arrivals ~horizon:40 [| 1; 1 |]) in
  let actual = Abivm.Spec.truncate full 25 in
  let { Abivm.Astar.cost = t0_cost; plan = t0_plan; stats = _ } = Abivm.Astar.solve full in
  ignore t0_cost;
  let result = Abivm.Adapt.replay actual ~t0:40 ~t0_plan in
  checkb "valid" true (Abivm.Plan.is_valid actual result.Abivm.Adapt.plan);
  let { Abivm.Astar.cost = opt_t; plan = _; stats = _ } = Abivm.Astar.solve actual in
  let bound = opt_t +. 2.0 +. 3.0 in
  checkb "within Theorem 4 bound" true
    (Abivm.Plan.cost actual result.Abivm.Adapt.plan <= bound +. 1e-9);
  checki "no rescues on matching arrivals" 0 result.Abivm.Adapt.rescues

let test_adapt_extension_cyclic () =
  (* T > T0 with a periodic stream: bound OPT_T + ceil(T/T0) * sum b_i. *)
  let costs = [| aff 1.0 2.0; aff 1.0 3.0 |] in
  let actual = mk_spec ~costs ~limit:8.0 (uniform_arrivals ~horizon:50 [| 1; 1 |]) in
  let adapted = Abivm.Adapt.plan actual ~t0:20 in
  checkb "valid" true (Abivm.Plan.is_valid actual adapted);
  let { Abivm.Astar.cost = opt_t; plan = _; stats = _ } = Abivm.Astar.solve actual in
  let ceil_ratio = float_of_int ((50 + 19) / 20) in
  let bound = opt_t +. (ceil_ratio *. 5.0) in
  checkb "within Theorem 4 bound" true
    (Abivm.Plan.cost actual adapted <= bound +. 1e-9)

let test_adapt_rescues_on_deviating_arrivals () =
  (* Plan computed for a gentle stream, replayed against a bursty one:
     the executor must stay valid via rescue flushes. *)
  let costs = [| lin 1.0; lin 1.0 |] in
  let gentle = mk_spec ~costs ~limit:6.0 (uniform_arrivals ~horizon:20 [| 1; 0 |]) in
  let { Abivm.Astar.cost = _; plan = t0_plan; stats = _ } = Abivm.Astar.solve gentle in
  let bursty = mk_spec ~costs ~limit:6.0 (uniform_arrivals ~horizon:20 [| 3; 3 |]) in
  let result = Abivm.Adapt.replay bursty ~t0:20 ~t0_plan in
  checkb "still valid" true (Abivm.Plan.is_valid bursty result.Abivm.Adapt.plan);
  checkb "used rescues" true (result.Abivm.Adapt.rescues > 0)

let test_adapt_t0_zero () =
  (* Degenerate estimate T0 = 0: the plan covers only the single row
     [d_0], so its refresh replays with period 1 — flush whatever arrived,
     every step.  Expensive but valid, and never a rescue. *)
  let spec = fig6_style_spec 12 in
  let t0_plan =
    (Abivm.Astar.solve (Abivm.Adapt.projected spec ~t0:0)).Abivm.Astar.plan
  in
  let r = Abivm.Adapt.replay spec ~t0:0 ~t0_plan in
  checkb "valid" true (Abivm.Plan.is_valid spec r.Abivm.Adapt.plan);
  checki "no rescues" 0 r.Abivm.Adapt.rescues;
  checki "flushes every step" 13
    (List.length (Abivm.Plan.actions r.Abivm.Adapt.plan))

let test_adapt_cyclic_zero_tail () =
  (* T > T0 where the stream dies mid-run: the cyclic schedule keeps
     firing against an emptying state.  Restricting a slot's subset to an
     empty pending state yields a zero action, which the executor must
     drop (plans cannot carry zero actions) while staying valid; arrivals
     that only ever undershoot the projection never need a rescue. *)
  let costs = [| Cost.Func.plateau ~a:1.0 ~cap:5.0; lin 1.0 |] in
  let arrivals =
    Array.init 41 (fun t -> if t <= 10 then [| 1; 1 |] else [| 0; 0 |])
  in
  let spec = mk_spec ~costs ~limit:7.0 arrivals in
  let t0_plan =
    (Abivm.Astar.solve (Abivm.Adapt.projected spec ~t0:8)).Abivm.Astar.plan
  in
  let r = Abivm.Adapt.replay spec ~t0:8 ~t0_plan in
  checkb "valid" true (Abivm.Plan.is_valid spec r.Abivm.Adapt.plan);
  checki "no rescues when arrivals only shrink" 0 r.Abivm.Adapt.rescues;
  checkb "no action after the dead tail drains" true
    (List.for_all
       (fun (t, _) -> t <= 26 || t = 40)
       (Abivm.Plan.actions r.Abivm.Adapt.plan))

let test_adapt_rescue_count_exact () =
  (* An empty schedule against a steady overload: every pre-horizon step
     trips the constraint with nothing scheduled, so each one is exactly
     one rescue flush; the unconditional horizon refresh is not counted. *)
  let spec =
    mk_spec ~costs:[| lin 1.0 |] ~limit:2.9 (uniform_arrivals ~horizon:5 [| 3 |])
  in
  let r = Abivm.Adapt.replay spec ~t0:5 ~t0_plan:(Abivm.Plan.of_actions []) in
  checkb "valid" true (Abivm.Plan.is_valid spec r.Abivm.Adapt.plan);
  checki "one rescue per pre-horizon step" 5 r.Abivm.Adapt.rescues;
  checki "six flushes" 6 (List.length (Abivm.Plan.actions r.Abivm.Adapt.plan))

(* --- Online -------------------------------------------------------------- *)

let test_online_valid_on_uniform () =
  let spec = fig6_style_spec 50 in
  let plan = Abivm.Online.plan spec in
  checkb "valid" true (Abivm.Plan.is_valid spec plan)

let test_online_between_opt_and_naive () =
  let spec = fig6_style_spec 80 in
  let { Abivm.Astar.cost = opt; plan = _; stats = _ } = Abivm.Astar.solve spec in
  let naive = Abivm.Plan.cost spec (Abivm.Naive.plan spec) in
  let online = Abivm.Plan.cost spec (Abivm.Online.plan spec) in
  checkb "online >= opt" true (online >= opt -. 1e-9);
  checkb "online beats naive on asymmetric instance" true (online < naive)

let test_online_valid_on_bursty () =
  let arrivals =
    Workload.Arrivals.generate ~seed:5 ~horizon:200
      [| Workload.Arrivals.fast_unstable; Workload.Arrivals.slow_unstable |]
  in
  let spec =
    mk_spec ~costs:[| Cost.Func.plateau ~a:1.0 ~cap:6.0; lin 1.5 |] ~limit:10.0
      arrivals
  in
  List.iter
    (fun predictor ->
      let plan = Abivm.Online.plan ~predictor spec in
      checkb "valid under every predictor" true (Abivm.Plan.is_valid spec plan))
    [ Abivm.Online.Ewma 0.2;
      Abivm.Online.Ewma_conservative { alpha = 0.2; z = 1.0 };
      Abivm.Online.Window 10; Abivm.Online.Oracle ]

let test_online_oracle_no_worse_than_default_on_average () =
  (* Not a strict theorem, but across several seeds the oracle predictor
     should not lose to EWMA in total. *)
  let total predictor =
    List.fold_left
      (fun acc seed ->
        let arrivals =
          Workload.Arrivals.generate ~seed ~horizon:150
            [| Workload.Arrivals.fast_unstable; Workload.Arrivals.slow_unstable |]
        in
        let spec =
          mk_spec ~costs:[| Cost.Func.plateau ~a:1.0 ~cap:6.0; lin 1.5 |]
            ~limit:10.0 arrivals
        in
        acc +. Abivm.Plan.cost spec (Abivm.Online.plan ~predictor spec))
      0.0
      [ 1; 2; 3; 4; 5 ]
  in
  checkb "oracle <= 1.05 * ewma" true
    (total Abivm.Online.Oracle <= 1.05 *. total (Abivm.Online.Ewma 0.2))

let test_online_time_to_full () =
  let spec = mk_spec ~costs:[| lin 1.0 |] ~limit:10.0 [| [| 0 |] |] in
  (* At rate 2/step from state 4: full when 4 + 2 tau > 10, i.e. tau = 4. *)
  checki "ttf" 4
    (Abivm.Online.time_to_full spec ~rates:[| 2.0 |] [| 4 |]);
  (* Zero rates: never full -> capped large value. *)
  checkb "never" true
    (Abivm.Online.time_to_full spec ~rates:[| 0.0 |] [| 4 |]
    > 1_000_000)

let test_online_immediate_burst () =
  (* First arrival already violates the constraint. *)
  let spec = mk_spec ~costs:[| lin 1.0 |] ~limit:3.0 [| [| 10 |]; [| 1 |] |] in
  let plan = Abivm.Online.plan spec in
  checkb "valid" true (Abivm.Plan.is_valid spec plan);
  checkb "acts at t=0" true (Abivm.Plan.action_at plan 0 <> None)

let test_online_scorers_all_valid () =
  let spec = fig6_style_spec 120 in
  List.iter
    (fun scorer ->
      checkb "valid under every scorer" true
        (Abivm.Plan.is_valid spec (Abivm.Online.plan ~scorer spec)))
    [ Abivm.Online.Amortized_total; Abivm.Online.Amortized_marginal;
      Abivm.Online.Cheapest ]

let test_online_scorers_differ () =
  (* The scoring criterion matters: on the standard asymmetric instance the
     myopic 'cheapest' scorer must not beat the paper's H. *)
  let spec = fig6_style_spec 200 in
  let cost scorer = Abivm.Plan.cost spec (Abivm.Online.plan ~scorer spec) in
  checkb "H <= cheapest" true
    (cost Abivm.Online.Amortized_total <= cost Abivm.Online.Cheapest +. 1e-9)

(* A live controller: its spec supplies the costs and limit only. *)
let controller ~costs ~limit =
  Abivm.Online.controller
    (mk_spec ~costs ~limit [| Array.make (Array.length costs) 0 |])

let test_controller_keeps_constraint () =
  let costs = [| Cost.Func.plateau ~a:1.0 ~cap:5.0; lin 1.0 |] in
  let limit = 7.0 in
  let c = controller ~costs ~limit in
  let spec_for_f = mk_spec ~costs ~limit [| [| 0; 0 |] |] in
  let prng = Util.Prng.create ~seed:77 in
  for _ = 1 to 300 do
    let arrivals = [| Util.Prng.int prng 3; Util.Prng.int prng 3 |] in
    ignore (Abivm.Online.step c ~arrivals);
    checkb "never full after step" false
      (Abivm.Spec.is_full spec_for_f (Abivm.Online.pending c))
  done

let test_controller_force_refresh () =
  let costs = [| lin 1.0 |] in
  let c = controller ~costs ~limit:100.0 in
  ignore (Abivm.Online.step c ~arrivals:[| 5 |]);
  Alcotest.check (Alcotest.array Alcotest.int) "pending tracked" [| 5 |]
    (Abivm.Online.pending c);
  let flushed = Abivm.Online.force_refresh c in
  Alcotest.check (Alcotest.array Alcotest.int) "flushed all" [| 5 |] flushed;
  checkb "empty after refresh" true
    (Abivm.Statevec.is_zero (Abivm.Online.pending c))

let test_controller_rejects_bad_width () =
  let c = controller ~costs:[| lin 1.0 |] ~limit:10.0 in
  checkb "raises" true
    (try
       ignore (Abivm.Online.step c ~arrivals:[| 1; 2 |]);
       false
     with Invalid_argument _ -> true)

let test_controller_rates_converge () =
  let c = controller ~costs:[| lin 1.0 |] ~limit:1_000_000.0 in
  for _ = 1 to 100 do
    ignore (Abivm.Online.step c ~arrivals:[| 3 |])
  done;
  let r = Abivm.Online.rates c in
  checkb "ewma converged to the true rate" true (Float.abs (r.(0) -. 3.0) < 0.01);
  r.(0) <- 0.0;
  checkb "rates is a snapshot, not a live view" true
    ((Abivm.Online.rates c).(0) > 2.9)

let test_controller_force_refresh_resets_clock () =
  (* H(q) = (F + f(q)) / (t + ttf(s - q)): with a stale clock the
     denominator is dominated by [t] and the controller goes myopically
     cheap; with a fresh clock the survival time bought matters.  On the
     burst below a fresh controller flushes table 0 (costs 8 but buys 3
     steps) while a clock left at step index 30 would flush table 1 (costs
     5, buys 1) — so a controller idled for 30 steps and then force-refreshed
     must decide exactly like a brand-new one. *)
  let costs = [| lin 1.0; lin 1.0 |] and limit = 10.0 in
  let burst = [| 8; 5 |] in
  let refreshed = controller ~costs ~limit in
  for _ = 1 to 30 do
    checkb "idle step takes no action" true
      (Abivm.Online.step refreshed ~arrivals:[| 0; 0 |] = None)
  done;
  Alcotest.check (Alcotest.array Alcotest.int) "nothing pending to force"
    [| 0; 0 |]
    (Abivm.Online.force_refresh refreshed);
  let fresh = controller ~costs ~limit in
  let act c =
    match Abivm.Online.step c ~arrivals:burst with
    | Some a -> a
    | None -> Alcotest.fail "burst must trip the constraint"
  in
  let a_fresh = act fresh in
  Alcotest.check (Alcotest.array Alcotest.int) "the long-horizon choice"
    [| 8; 0 |] a_fresh;
  Alcotest.check (Alcotest.array Alcotest.int)
    "post-refresh controller decides like a fresh one" a_fresh (act refreshed)

(* A forced refresh starts a new period for [F_t] as for [t]: two
   controllers with equal rates, pending and clock must choose alike,
   whatever either spent before.  [flushed] pays for its warm-up flushes
   under dear costs; [idle] sees the same arrivals under near-free costs,
   never fills, and spends almost nothing.  Both are force-refreshed and
   given the same costs.  On the burst, H's cheap short-lived choice
   (table 1) wins from [F = 0], the dear long-lived one (table 0) once
   [F] is large, so a refresh that kept [spent] split them. *)
let test_controller_force_refresh_resets_spent () =
  let limit = 8.0 and costs = [| lin 1.0; lin 1.0 |] in
  let flushed = controller ~costs ~limit
  and idle = controller ~costs:[| lin 0.001; lin 0.001 |] ~limit in
  let flushes = ref 0 in
  for _ = 1 to 40 do
    if Abivm.Online.step flushed ~arrivals:[| 1; 1 |] <> None then incr flushes;
    checkb "idle never fills" true (Abivm.Online.step idle ~arrivals:[| 1; 1 |] = None)
  done;
  checkb "flushed during warm-up" true (!flushes > 0);
  ignore (Abivm.Online.force_refresh flushed);
  ignore (Abivm.Online.force_refresh idle);
  Abivm.Online.set_costs idle costs;
  Alcotest.check (Alcotest.array (Alcotest.float 0.0)) "equal rates"
    (Abivm.Online.rates flushed) (Abivm.Online.rates idle);
  let act c =
    match Abivm.Online.step c ~arrivals:[| 7; 3 |] with
    | Some a -> a
    | None -> Alcotest.fail "burst must trip the constraint"
  in
  let a_idle = act idle in
  Alcotest.check (Alcotest.array Alcotest.int) "the cheap choice from F = 0"
    [| 0; 3 |] a_idle;
  Alcotest.check (Alcotest.array Alcotest.int) "same action after the refresh"
    a_idle (act flushed)

let test_controller_step_bookkeeping () =
  (* The pending vector must always equal (previous + arrivals - action),
     actions fire exactly at full pre-states, and every action restores
     the constraint. *)
  let costs = [| Cost.Func.plateau ~a:1.0 ~cap:5.0; lin 1.0 |] in
  let limit = 7.0 in
  let c = controller ~costs ~limit in
  let spec_for_f = mk_spec ~costs ~limit [| [| 0; 0 |] |] in
  let prng = Util.Prng.create ~seed:91 in
  let model = ref (Abivm.Statevec.zero 2) in
  for _ = 1 to 500 do
    let arrivals = [| Util.Prng.int prng 4; Util.Prng.int prng 4 |] in
    let pre = Abivm.Statevec.add !model arrivals in
    (match Abivm.Online.step c ~arrivals with
    | None ->
        checkb "acts whenever full" false (Abivm.Spec.is_full spec_for_f pre);
        model := pre
    | Some action ->
        checkb "acts only on full states" true
          (Abivm.Spec.is_full spec_for_f pre);
        checkb "action within pending" true (Abivm.Statevec.leq action pre);
        model := Abivm.Statevec.sub pre action;
        checkb "action restores the constraint" false
          (Abivm.Spec.is_full spec_for_f !model));
    Alcotest.check (Alcotest.array Alcotest.int) "pending bookkeeping" !model
      (Abivm.Online.pending c)
  done

(* --- Simulate front-end --------------------------------------------------- *)

let test_simulate_all_ordering () =
  let spec = fig6_style_spec 40 in
  let reports = Abivm.Simulate.all spec in
  checki "four strategies" 4 (List.length reports);
  List.iter
    (fun (r : Abivm.Report.t) ->
      checkb (Abivm.Report.name r ^ " valid") true r.valid)
    reports;
  let find name =
    (List.find (fun (r : Abivm.Report.t) -> Abivm.Report.name r = name) reports)
      .Abivm.Report.total_cost
  in
  checkb "opt is cheapest" true
    (find "OPT-LGM" <= find "NAIVE" +. 1e-9
    && find "OPT-LGM" <= find "ONLINE" +. 1e-9
    && find "OPT-LGM" <= find "ADAPT" +. 1e-9)

let test_simulate_cost_per_modification () =
  let spec = mk_spec ~costs:[| lin 1.0 |] ~limit:100.0 [| [| 4 |]; [| 6 |] |] in
  let report = Abivm.Simulate.naive spec in
  checkf "per mod" 1.0 (Abivm.Simulate.cost_per_modification spec report)

let () =
  Alcotest.run "algos"
    [
      ( "exact",
        [
          Alcotest.test_case "trivial" `Quick test_exact_trivial_instance;
          Alcotest.test_case "forced split" `Quick test_exact_forced_split;
          Alcotest.test_case "budget" `Quick test_exact_respects_budget;
          Alcotest.test_case "beats LGM on step cost" `Quick
            test_exact_can_beat_lgm_on_step_cost;
          Alcotest.test_case "tightness ratio" `Quick test_tightness_ratio_approaches_two;
        ] );
      ( "astar",
        [
          Alcotest.test_case "matches exact on affine" `Quick
            test_astar_matches_exact_on_affine;
          Alcotest.test_case "reported cost correct" `Quick
            test_astar_plan_cost_matches_reported;
          Alcotest.test_case "no worse than naive" `Quick test_astar_no_worse_than_naive;
          Alcotest.test_case "exploits asymmetry" `Quick test_astar_exploits_asymmetry;
          Alcotest.test_case "heuristic admissible along plan" `Quick
            test_astar_heuristic_admissible_along_plan;
          Alcotest.test_case "heuristic admissible" `Quick
            test_astar_heuristic_admissible_at_source;
          Alcotest.test_case "dijkstra agreement" `Quick
            test_astar_without_heuristic_same_cost;
          Alcotest.test_case "empty stream" `Quick test_astar_empty_stream;
          Alcotest.test_case "single burst" `Quick test_astar_single_burst;
          Alcotest.test_case "three tables" `Quick test_astar_three_tables;
        ] );
      ( "adapt",
        [
          Alcotest.test_case "T = T0" `Quick test_adapt_exact_t0;
          Alcotest.test_case "truncation bound" `Quick test_adapt_truncation;
          Alcotest.test_case "cyclic extension bound" `Quick
            test_adapt_extension_cyclic;
          Alcotest.test_case "rescues on deviation" `Quick
            test_adapt_rescues_on_deviating_arrivals;
          Alcotest.test_case "T0 = 0" `Quick test_adapt_t0_zero;
          Alcotest.test_case "cyclic replay over a dead tail" `Quick
            test_adapt_cyclic_zero_tail;
          Alcotest.test_case "exact rescue count" `Quick
            test_adapt_rescue_count_exact;
        ] );
      ( "online",
        [
          Alcotest.test_case "valid on uniform" `Quick test_online_valid_on_uniform;
          Alcotest.test_case "between opt and naive" `Quick
            test_online_between_opt_and_naive;
          Alcotest.test_case "valid on bursty" `Quick test_online_valid_on_bursty;
          Alcotest.test_case "oracle predictor" `Quick
            test_online_oracle_no_worse_than_default_on_average;
          Alcotest.test_case "time_to_full" `Quick test_online_time_to_full;
          Alcotest.test_case "immediate burst" `Quick test_online_immediate_burst;
          Alcotest.test_case "scorers all valid" `Quick test_online_scorers_all_valid;
          Alcotest.test_case "scorers differ" `Quick test_online_scorers_differ;
          Alcotest.test_case "controller keeps constraint" `Quick
            test_controller_keeps_constraint;
          Alcotest.test_case "controller force refresh" `Quick
            test_controller_force_refresh;
          Alcotest.test_case "controller bad width" `Quick
            test_controller_rejects_bad_width;
          Alcotest.test_case "controller rates converge" `Quick
            test_controller_rates_converge;
          Alcotest.test_case "force refresh resets the clock" `Quick
            test_controller_force_refresh_resets_clock;
          Alcotest.test_case "force_refresh resets spent" `Quick
            test_controller_force_refresh_resets_spent;
          Alcotest.test_case "controller bookkeeping" `Quick
            test_controller_step_bookkeeping;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "all strategies" `Quick test_simulate_all_ordering;
          Alcotest.test_case "cost per modification" `Quick
            test_simulate_cost_per_modification;
        ] );
    ]
