(* Search-engine regression tests for the A*/Exact overhaul:

   - the packed (time, state) key agrees with structural equality, and
     equal keys hash identically;
   - the memoized heuristic ([Astar.heuristic spec] applied many times)
     is bit-identical to rebuilding the precomputation per call;
   - Exact.solve is repeatable bit for bit and its plan is valid at the
     reported cost on random instances;
   - A* and Exact reproduce the pre-overhaul plan costs (and A* expands
     no more nodes) on the fixture instances;
   - A* is pinned bit for bit (cost bits, plan, all six stats) on a
     seeded family of specs and on the calibrated TPC-R MIN spec;
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
    Util.Pqueue.push q ~priority:(float_of_int i) ~payload:(float_of_int (-i)) i
  done;
  for i = 0 to n - 1 do
    let p = Util.Pqueue.peek_priority q and g = Util.Pqueue.peek_payload q in
    let v = Util.Pqueue.pop q in
    if not (v = i && p = float_of_int i && g = float_of_int (-i)) then
      Alcotest.failf "pop %d out of order" i
  done;
  Alcotest.(check bool) "empty" true (Util.Pqueue.is_empty q)

(* --- bit-level pins ------------------------------------------------------------ *)

(* A seeded family of specs over widths 1-6, every analytic cost family
   plus a tabulated curve, and arrival rows with zero and burst entries.
   For each spec and both [use_heuristic] values the solver's result was
   recorded as the cost's [%h], a digest of the plan's actions and the six
   stats fields.  The fixture checks above compare costs to 1e-9 and bound
   expanded nodes from above; these pins also catch a changed tie-break,
   a changed float summation order or a changed node count. *)
let pin_cost prng ~limit =
  let f bound = Util.Prng.float prng bound in
  match Util.Prng.int prng 8 with
  | 0 -> lin (0.5 +. f 2.5)
  | 1 -> aff (0.5 +. f 2.0) (f 4.0)
  | 2 -> Cost.Func.concave_sqrt ~a:(1.0 +. f 3.0) ~b:(f 3.0)
  | 3 -> Cost.Func.logarithmic ~a:(1.0 +. f 3.0) ~b:(f 2.0)
  | 4 ->
      Cost.Func.blocked ~per_block:(1.0 +. f 4.0)
        ~block_size:(2 + Util.Prng.int prng 4)
  | 5 -> Cost.Func.plateau ~a:(0.5 +. f 2.0) ~cap:(2.0 +. f 8.0)
  | 6 -> Cost.Func.step_tightness ~eps:(0.25 +. f 0.75) ~limit
  | _ ->
      (* A concave measured-looking curve: falling slopes between
         breakpoints. *)
      let c1 = 1.0 +. f 3.0 in
      let c5 = c1 +. 4.0 *. (0.3 +. f 0.7) in
      let c20 = c5 +. 15.0 *. (0.05 +. f 0.25) in
      Cost.Func.tabulated ~name:"pin" [ (1, c1); (5, c5); (20, c20) ]

let pin_spec ~seed ~width =
  let prng = Util.Prng.create ~seed:((1000 * width) + seed) in
  let limit = 4.0 +. Util.Prng.float prng 16.0 in
  let costs = Array.init width (fun _ -> pin_cost prng ~limit) in
  let horizon = 10 + Util.Prng.int prng (1 + (48 / width)) in
  let arrivals =
    Array.init (horizon + 1) (fun _ ->
        if Util.Prng.bernoulli prng 0.1 then Array.make width 0
        else
          Array.init width (fun _ ->
              if Util.Prng.bernoulli prng 0.3 then 0
              else if Util.Prng.bernoulli prng 0.1 then
                3 + Util.Prng.int prng 6
              else Util.Prng.int prng 3))
  in
  Abivm.Spec.make ~costs ~limit ~arrivals

let pin_line ~use_heuristic spec =
  let r = Abivm.Astar.solve ~use_heuristic spec in
  let st = r.Abivm.Astar.stats in
  let actions =
    String.concat ";"
      (List.map
         (fun (t, a) -> Printf.sprintf "%d:%s" t (Abivm.Statevec.to_string a))
         (Abivm.Plan.actions r.Abivm.Astar.plan))
  in
  Printf.sprintf "%h %s %d %d %d %d %d %d" r.Abivm.Astar.cost
    (Digest.to_hex (Digest.string actions))
    st.Abivm.Astar.expanded st.generated st.reopened st.pruned st.max_queue
    st.max_live

(* The paper's §5 instance, at perfbench paper-durable's scale and seed 1:
   TPC-R's MIN(supplycost) view, the PartSupp and Supplier curves
   calibrated from the engine (Fig. 4), C twice the single-PartSupp cost
   (Fig. 6), one update of each per step. *)
let tpcr_min_spec () =
  let horizon = 2000 in
  let db = Tpcr.Gen.generate ~seed:1 ~scale:0.05 () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter
      (Tpcr.Gen.min_supplycost_view db)
  in
  Relation.Meter.reset db.Tpcr.Gen.meter;
  let feeds = Tpcr.Updates.paper_feeds ~seed:8 db in
  let curve table name =
    Bridge.Calibrate.tabulated ~name
      (Bridge.Calibrate.measure_curve m feeds ~table
         ~sizes:[ 1; 2; 5; 10; 20; 50; 100; 200; 400; 600; 800; 1000 ])
  in
  let costs =
    [| curve 0 "c_dPartSupp"; curve 1 "c_dSupplier"; lin 1.0; lin 1.0 |]
  in
  Abivm.Spec.make ~costs
    ~limit:(2.0 *. Cost.Func.eval costs.(0) 1)
    ~arrivals:(Array.init (horizon + 1) (fun _ -> [| 1; 1; 0; 0 |]))

let pins =
  [
    (0, 1, true, "0x1.c96640222221p+3 9848a63ce67d8f5be6b315d974e2949a 2 2 0 0 1 3");
    (0, 1, false, "0x1.c96640222221p+3 9848a63ce67d8f5be6b315d974e2949a 2 2 0 0 1 3");
    (1, 1, true, "0x1.0e1b61d80fd27p+6 f4381de9dd1fecd449bd383f4364bc5d 5 5 0 0 1 6");
    (1, 1, false, "0x1.0e1b61d80fd27p+6 f4381de9dd1fecd449bd383f4364bc5d 5 5 0 0 1 6");
    (2, 1, true, "0x1.3b2eccdbd38f2p+1 3abb3df35a1e6cda06d799c6b431659a 1 1 0 0 1 2");
    (2, 1, false, "0x1.3b2eccdbd38f2p+1 3abb3df35a1e6cda06d799c6b431659a 1 1 0 0 1 2");
    (3, 1, true, "0x1.17aff16501befp+3 d6a21703c1f2bc8949f3528fc1c51fbe 1 1 0 0 1 2");
    (3, 1, false, "0x1.17aff16501befp+3 d6a21703c1f2bc8949f3528fc1c51fbe 1 1 0 0 1 2");
    (0, 2, true, "0x1.4568a9a0fb2a3p+5 15dead58dbdcf0e00e89dad8544f19a2 3 4 0 0 2 5");
    (0, 2, false, "0x1.4568a9a0fb2a3p+5 15dead58dbdcf0e00e89dad8544f19a2 7 9 0 2 3 8");
    (1, 2, true, "0x1.5b6f2330a8ffbp+6 f0b734ed28584c3c8d80378c91b8c778 23 26 0 1 4 26");
    (1, 2, false, "0x1.5b6f2330a8ffbp+6 f0b734ed28584c3c8d80378c91b8c778 25 28 0 3 3 26");
    (2, 2, true, "0x1.2d663ec0477dcp+4 46877da224fab4c31b7a6c2711be30fb 2 3 0 0 2 4");
    (2, 2, false, "0x1.2d663ec0477dcp+4 46877da224fab4c31b7a6c2711be30fb 6 10 0 1 5 10");
    (3, 2, true, "0x1.05d6e3eb60684p+4 96cef2daa45a0ffcc7993019832f8523 5 7 0 0 3 8");
    (3, 2, false, "0x1.05d6e3eb60684p+4 96cef2daa45a0ffcc7993019832f8523 15 23 1 7 5 16");
    (0, 3, true, "0x1.3b2a930791026p+6 852319f0675061d12a25e0ae7a834b34 261 641 11 286 98 350");
    (0, 3, false, "0x1.3b2a930791026p+6 852319f0675061d12a25e0ae7a834b34 661 1487 44 815 116 673");
    (1, 3, true, "0x1.e13389e7a662p+5 8f2f4369ac2ca7ecfae2bc59eb68098e 108 222 4 87 29 136");
    (1, 3, false, "0x1.e13389e7a662p+5 8f2f4369ac2ca7ecfae2bc59eb68098e 244 478 22 224 47 253");
    (2, 3, true, "0x1.4b3005c7087c4p+6 8d37d4da1630e7de900b6f919ba197cc 64 124 7 29 33 93");
    (2, 3, false, "0x1.4b3005c7087c4p+6 8d37d4da1630e7de900b6f919ba197cc 165 315 17 149 27 167");
    (3, 3, true, "0x1.09afebb35b1b6p+5 8ddfdad86b8ecac154a023e035f9c9d9 15 40 0 4 22 37");
    (3, 3, false, "0x1.09afebb35b1b6p+5 8ddfdad86b8ecac154a023e035f9c9d9 210 476 5 257 54 219");
    (0, 4, true, "0x1.28e9fc6e82a46p+7 294b5d45b1960415e741ffcbce5bf5e2 115 296 3 75 108 220");
    (0, 4, false, "0x1.28e9fc6e82a46p+7 1af468ab9a987e263445945ec7dabdb4 894 1994 72 1064 170 928");
    (1, 4, true, "0x1.5862357132b99p+6 2a16d15cfcd7dc8980e2efc77e2c08cd 939 2819 136 1506 408 1248");
    (1, 4, false, "0x1.5862357132b99p+6 2a16d15cfcd7dc8980e2efc77e2c08cd 2109 6073 203 3709 386 2358");
    (2, 4, true, "0x1.37e18b63b434ap+6 e1754801205f0cbf0eaedea8775eede2 37 75 1 13 26 62");
    (2, 4, false, "0x1.37e18b63b434ap+6 bc6060d8d92f5732d81218f696c9074a 203 396 12 172 37 224");
    (3, 4, true, "0x1.a2c48412108fdp+6 795fb121c6a72399e8a9067b703777e4 29 66 1 16 22 51");
    (3, 4, false, "0x1.a2c48412108fdp+6 e1382806f1b807d7399ba9c9f941908f 104 210 8 105 38 105");
    (0, 5, true, "0x1.95f2de17f9634p+6 c501b447e1aa4532665803a4054c2613 98 302 31 144 64 133");
    (0, 5, false, "0x1.95f2de17f9634p+6 6f7a0708a8fb5c8784adcaefea266808 178 516 35 325 55 192");
    (1, 5, true, "0x1.dcda2abe28756p+6 14802990b953e4fc7f74e8893bad0126 339 947 37 504 106 442");
    (1, 5, false, "0x1.dcda2abe28756p+6 9b584758f9e50aeee6dac33818927bbc 600 1873 70 1130 194 739");
    (2, 5, true, "0x1.88e9e117616d4p+6 7e3c2c26d697eecfff3e63d2558fa83d 123 387 32 162 106 215");
    (2, 5, false, "0x1.88e9e117616d4p+6 7e3c2c26d697eecfff3e63d2558fa83d 379 1027 64 646 106 380");
    (3, 5, true, "0x1.b336e690e3de7p+5 bf0dc3f23130f751f389a994001f95b9 30 66 2 23 15 42");
    (3, 5, false, "0x1.b336e690e3de7p+5 bf0dc3f23130f751f389a994001f95b9 49 95 4 45 14 50");
    (0, 6, true, "0x1.c376bd8aee6acp+6 e7401423398d98a72722f239f37b8083 62 177 8 98 19 80");
    (0, 6, false, "0x1.c376bd8aee6acp+6 b04f7c0536c1d452be041670e9ab87b9 119 301 15 177 19 125");
    (1, 6, true, "0x1.eed63d26fd1fap+6 536d7dfe228055e18f7040bd6ff93694 765 3686 189 2735 286 944");
    (1, 6, false, "0x1.eed63d26fd1fap+6 536d7dfe228055e18f7040bd6ff93694 1144 4475 266 3329 248 1145");
    (2, 6, true, "0x1.ccef70f25b303p+5 43bf8d6dd40153865b3f45c6234156e2 78 434 16 89 269 330");
    (2, 6, false, "0x1.ccef70f25b303p+5 a6d8cd3de3f756eaa75355f4b8a70dd3 8527 43793 2529 35230 4140 8544");
    (3, 6, true, "0x1.22d40b83bf8e4p+7 4d2be3f558647c7843010ba7c8be8d4c 383 1608 85 1117 137 481");
    (3, 6, false, "0x1.22d40b83bf8e4p+7 4d2be3f558647c7843010ba7c8be8d4c 598 2198 125 1599 130 599");
  ]

let test_pins () =
  List.iter
    (fun (seed, width, use_heuristic, expected) ->
      Alcotest.(check string)
        (Printf.sprintf "seed %d width %d heuristic %b" seed width
           use_heuristic)
        expected
        (pin_line ~use_heuristic (pin_spec ~seed ~width)))
    pins

let test_tpcr_pin () =
  Alcotest.(check string)
    "TPC-R MIN, T = 2000"
    "0x1.084addddddddap+19 e1e2d1997fb4595e5298fbe1f5fb3a62 109616 215609 \
     3321 105464 559 110053"
    (pin_line ~use_heuristic:true (tpcr_min_spec ()))

(* The open list and the node store are flat, so after their arrays
   have grown an A* solve allocates only per expansion scratch it cannot
   avoid and the final plan.  [Gc.minor_words] counts the calling domain
   only, and this test runs on one.  The boxed pairing heap it replaced
   allocated about 8.1M words on this spec. *)
let test_tpcr_alloc () =
  let spec = tpcr_min_spec () in
  let before = Gc.minor_words () in
  ignore (Abivm.Astar.solve spec);
  let words = Gc.minor_words () -. before in
  if words > 1e6 then
    Alcotest.failf "one solve allocated %.0f minor words (bound 1M)" words

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
          Alcotest.test_case "seeded family pinned bit for bit" `Quick
            test_pins;
          Alcotest.test_case "calibrated TPC-R MIN spec pinned bit for bit"
            `Quick test_tpcr_pin;
          Alcotest.test_case "TPC-R MIN solve allocates at most 1M words"
            `Quick test_tpcr_alloc;
        ] );
    ]
