(* Search-engine regression tests for the A*/Exact overhaul:

   - the packed (time, state) key agrees with structural equality, and
     equal keys hash identically;
   - the memoized heuristic ([Astar.heuristic spec] applied many times)
     is bit-identical to rebuilding the precomputation per call;
   - Exact.solve is repeatable bit for bit and its plan is valid at the
     reported cost on random instances;
   - A* and Exact reproduce the pre-overhaul plan costs (and A* expands
     no more nodes) on the fixture instances;
   - Exact's lazy action enumerator raises [Too_large] on an instance
     whose materialized candidate list would exhaust memory;
   - the pairing heap survives a root with hundreds of thousands of
     children (tail-recursive two-pass merge). *)

let to_alcotest = QCheck_alcotest.to_alcotest
let lin a = Cost.Func.linear ~a
let aff a b = Cost.Func.affine ~a ~b

(* --- packed keys ----------------------------------------------------------- *)

let arb_keyed_state =
  let open QCheck.Gen in
  let g =
    pair (int_range 0 50) (list_size (int_range 1 24) (int_range 0 9))
    >|= fun (t, s) -> (t, Array.of_list s)
  in
  QCheck.make
    ~print:(fun (t, s) -> Printf.sprintf "(%d, %s)" t (Abivm.Statevec.to_string s))
    g

let prop_key_structural =
  QCheck.Test.make ~name:"packed key = structural equality" ~count:500
    (QCheck.pair arb_keyed_state arb_keyed_state)
    (fun ((t1, s1), (t2, s2)) ->
      let k1 = Abivm.Statekey.make ~time:t1 (Abivm.Statevec.copy s1) in
      let k2 = Abivm.Statekey.make ~time:t2 (Abivm.Statevec.copy s2) in
      let structural = t1 = t2 && Abivm.Statevec.equal s1 s2 in
      Abivm.Statekey.equal k1 k2 = structural
      && ((not structural)
         || Abivm.Statekey.hash k1 = Abivm.Statekey.hash k2))

let prop_statevec_hash_equal =
  QCheck.Test.make ~name:"Statevec.hash respects equality" ~count:500
    arb_keyed_state
    (fun (_, s) ->
      Abivm.Statevec.hash s = Abivm.Statevec.hash (Abivm.Statevec.copy s)
      && Abivm.Statevec.hash s >= 0)

(* --- packed keys at partitioned width ---------------------------------------- *)

(* Partitioned specs double the table count, so the key must round-trip and
   keep hash quality at 2n-wide states.  The population below is the
   adversarial shape for a prefix- or low-entropy hash: wide vectors with
   tiny component values, many of them differing only in one component or
   only in the time. *)
let test_statekey_width () =
  let widths = [ 12; 16 ] in
  List.iter
    (fun n ->
      let s = Array.init n (fun i -> i mod 4) in
      let k = Abivm.Statekey.make ~time:7 (Abivm.Statevec.copy s) in
      Alcotest.(check int) "time round-trips" 7 (Abivm.Statekey.time k);
      Alcotest.(check bool)
        "state round-trips" true
        (Abivm.Statevec.equal s (Abivm.Statekey.state k)))
    widths;
  (match Abivm.Statekey.make ~time:(-2) [| 0 |] with
  | _ -> Alcotest.fail "time -2 accepted"
  | exception Invalid_argument _ -> ());
  (* -1 stays legal: it is A*'s virtual source. *)
  ignore (Abivm.Statekey.make ~time:(-1) [| 0 |]);
  let n = 12 in
  let tbl = Abivm.Statekey.Tbl.create 64 in
  let bindings = ref 0 in
  for time = 0 to 9 do
    let base = Array.make n 0 in
    let rec fill i =
      if i >= 3 then begin
        let key = Abivm.Statekey.make ~time (Array.copy base) in
        if not (Abivm.Statekey.Tbl.mem tbl key) then begin
          Abivm.Statekey.Tbl.add tbl key ();
          incr bindings
        end
      end
      else
        for v = 0 to 7 do
          base.(i) <- v;
          fill (i + 1);
          base.(i) <- 0
        done
    in
    fill 0
  done;
  (* 10 * 8^3 = 5120 distinct keys.  A uniform hash at this load factor
     leaves well under half the bindings sharing buckets; a degraded hash
     (prefix-only, or entropy collapsed into a few bits) collides on
     nearly all of them since the keys differ in 3 of 13 dimensions. *)
  let collisions = Abivm.Statekey.collisions tbl in
  if float_of_int collisions > 0.5 *. float_of_int !bindings then
    Alcotest.failf "hash quality degraded at width %d: %d/%d colliding" n
      collisions !bindings

(* --- memoized exact DP --------------------------------------------------------- *)

(* Each solve starts from a fresh memo table: solving the same spec twice
   returns the bit-identical optimum (cost and plan), and the plan is valid
   and costs exactly what the solver reports. *)
let prop_exact_memoized =
  QCheck.Test.make
    ~name:"Exact.solve repeatable, plan valid at its reported cost" ~count:40
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let spec = Gen.instance ~seed () in
      let cost1, plan1 = Abivm.Exact.solve spec in
      let cost2, plan2 = Abivm.Exact.solve spec in
      Int64.equal (Int64.bits_of_float cost1) (Int64.bits_of_float cost2)
      && List.equal
           (fun (t1, a1) (t2, a2) -> t1 = t2 && Abivm.Statevec.equal a1 a2)
           (Abivm.Plan.actions plan1) (Abivm.Plan.actions plan2)
      && Abivm.Plan.is_valid spec plan1
      && Float.abs (Abivm.Plan.cost spec plan1 -. cost1) <= 1e-9)

(* --- memoized heuristic ----------------------------------------------------- *)

let random_spec seed =
  let prng = Util.Prng.create ~seed in
  let n = 1 + Util.Prng.int prng 3 in
  let costs =
    Array.init n (fun _ ->
        if Util.Prng.bool prng then
          aff (0.5 +. Util.Prng.float prng 3.0) (Util.Prng.float prng 4.0)
        else Cost.Func.plateau ~a:(0.5 +. Util.Prng.float prng 2.0)
               ~cap:(2.0 +. Util.Prng.float prng 10.0))
  in
  let horizon = 5 + Util.Prng.int prng 40 in
  let arrivals =
    Array.init (horizon + 1) (fun _ ->
        Array.init n (fun _ -> Util.Prng.int prng 3))
  in
  let limit = 4.0 +. Util.Prng.float prng 20.0 in
  Abivm.Spec.make ~costs ~limit ~arrivals

let prop_heuristic_memo =
  QCheck.Test.make
    ~name:"memoized heuristic = from-scratch heuristic at random (t, s)"
    ~count:60
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let spec = random_spec seed in
      let memoized = Abivm.Astar.heuristic spec in
      let prng = Util.Prng.create ~seed:(seed + 1) in
      let n = Abivm.Spec.n_tables spec in
      List.for_all
        (fun _ ->
          let t = Util.Prng.int prng (Abivm.Spec.horizon spec + 1) in
          let s = Array.init n (fun _ -> Util.Prng.int prng 8) in
          memoized ~t s = Abivm.Astar.heuristic spec ~t s)
        (List.init 10 Fun.id))

(* --- fixture regressions ---------------------------------------------------- *)

(* Costs and node counts recorded from the pre-overhaul engine.  Costs
   must match exactly; the overhauled A* must expand no more nodes. *)
let small_affine_spec () =
  Abivm.Spec.make
    ~costs:[| aff 1.0 2.0; aff 0.5 5.0 |]
    ~limit:6.0
    ~arrivals:[| [| 1; 1 |]; [| 2; 0 |]; [| 0; 3 |]; [| 1; 1 |]; [| 2; 2 |] |]

let three_table_spec () =
  Abivm.Spec.make
    ~costs:[| aff 1.0 1.0; aff 1.0 2.0; aff 1.0 4.0 |]
    ~limit:9.0
    ~arrivals:(Array.make 26 [| 1; 1; 1 |])

let step_spec () =
  let eps = 0.5 and limit = 8.0 in
  let f = Cost.Func.step_tightness ~eps ~limit in
  Abivm.Spec.make ~costs:[| f |] ~limit ~arrivals:(Array.make 4 [| 5 |])

let plateau_spec () =
  Abivm.Spec.make
    ~costs:[| Cost.Func.plateau ~a:1.0 ~cap:6.0; lin 2.0 |]
    ~limit:8.0
    ~arrivals:(Array.make 41 [| 1; 1 |])

let check_fixture name spec ~astar_cost ~expanded_at_most ?exact_cost () =
  let r = Abivm.Astar.solve spec in
  Alcotest.(check (float 1e-9)) (name ^ ": A* cost") astar_cost r.Abivm.Astar.cost;
  Alcotest.(check (float 1e-9))
    (name ^ ": plan cost consistent")
    r.Abivm.Astar.cost
    (Abivm.Plan.cost spec r.Abivm.Astar.plan);
  if r.Abivm.Astar.stats.Abivm.Astar.expanded > expanded_at_most then
    Alcotest.failf "%s: expanded %d nodes (pre-overhaul engine: %d)" name
      r.Abivm.Astar.stats.Abivm.Astar.expanded expanded_at_most;
  match exact_cost with
  | None -> ()
  | Some c ->
      let e, plan = Abivm.Exact.solve spec in
      Alcotest.(check (float 1e-9)) (name ^ ": exact cost") c e;
      Alcotest.(check (float 1e-9))
        (name ^ ": exact plan cost consistent")
        c (Abivm.Plan.cost spec plan)

let test_fixtures () =
  check_fixture "small_affine" (small_affine_spec ()) ~astar_cost:27.5
    ~expanded_at_most:8 ~exact_cost:27.5 ();
  check_fixture "three_table" (three_table_spec ()) ~astar_cost:140.0
    ~expanded_at_most:738 ~exact_cost:140.0 ();
  check_fixture "step" (step_spec ()) ~astar_cost:40.0 ~expanded_at_most:4
    ~exact_cost:24.0 ();
  check_fixture "plateau" (plateau_spec ()) ~astar_cost:88.0
    ~expanded_at_most:20 ()

(* --- exact: budget bounds memory -------------------------------------------- *)

let test_exact_lazy_budget () =
  (* 8 tables with 30 pending modifications each: 31^8 ~ 8.5e11 candidate
     actions at the very first expansion.  The pre-overhaul enumerator
     materialized that list before checking any budget; the lazy one must
     raise [Too_large] after [max_expansions] candidates. *)
  let n = 8 in
  let spec =
    Abivm.Spec.make
      ~costs:(Array.init n (fun _ -> lin 1.0))
      ~limit:1e9
      ~arrivals:[| Array.make n 30; Array.make n 0 |]
  in
  match Abivm.Exact.solve ~max_expansions:10_000 spec with
  | _ -> Alcotest.fail "expected Too_large"
  | exception Abivm.Exact.Too_large _ -> ()

(* --- pairing heap at depth --------------------------------------------------- *)

let test_pqueue_wide_root () =
  (* Ascending pushes hang every node off the first root, so the first pop
     merges ~n children: the two-pass merge must not overflow the stack. *)
  let q = Util.Pqueue.create () in
  let n = 300_000 in
  for i = 0 to n - 1 do
    Util.Pqueue.push q ~priority:(float_of_int i) i
  done;
  for i = 0 to n - 1 do
    match Util.Pqueue.pop q with
    | Some (p, v) when v = i && p = float_of_int i -> ()
    | _ -> Alcotest.failf "pop %d out of order" i
  done;
  Alcotest.(check bool) "empty" true (Util.Pqueue.is_empty q)

let () =
  Alcotest.run "search"
    [
      ( "keys",
        Alcotest.test_case "round-trip and hash quality at partitioned width"
          `Quick test_statekey_width
        :: List.map to_alcotest [ prop_key_structural; prop_statevec_hash_equal ]
      );
      ("heuristic", List.map to_alcotest [ prop_heuristic_memo ]);
      ("exact-memoized", List.map to_alcotest [ prop_exact_memoized ]);
      ( "engine",
        [
          Alcotest.test_case "fixture costs and node counts" `Quick
            test_fixtures;
          Alcotest.test_case "exact budget raises before materializing" `Quick
            test_exact_lazy_budget;
          Alcotest.test_case "pairing heap wide root" `Quick
            test_pqueue_wide_root;
        ] );
    ]
