(* Deterministic random problem instances shared by the test executables.

   This module is deliberately not listed in the (tests (names ...))
   stanza, so dune links it into every test binary: property suites in
   different executables draw instances from one generator, and a seed
   printed by a failing test reproduces the exact instance anywhere.

   All sizes are kept small enough that Exact.solve finishes within its
   default expansion budget — the seeded theorem suite needs the true
   optimum for every instance. *)

let affine_costs g ~n =
  Array.init n (fun _ ->
      let a = 0.5 +. Util.Prng.float g 3.0 in
      let b = Util.Prng.float g 5.0 in
      Cost.Func.affine ~a ~b)

(* Monotone subadditive, but spanning the shapes the planner contract
   allows: linear, plateau (concave), blocked (subadditive non-concave),
   and sqrt (strictly concave). *)
let mixed_costs g ~n =
  Array.init n (fun _ ->
      match Util.Prng.int g 4 with
      | 0 -> Cost.Func.linear ~a:(0.5 +. Util.Prng.float g 3.0)
      | 1 ->
          Cost.Func.plateau
            ~a:(0.5 +. Util.Prng.float g 2.0)
            ~cap:(2.0 +. Util.Prng.float g 8.0)
      | 2 ->
          Cost.Func.blocked
            ~per_block:(1.0 +. Util.Prng.float g 3.0)
            ~block_size:(1 + Util.Prng.int g 4)
      | _ ->
          Cost.Func.concave_sqrt
            ~a:(0.5 +. Util.Prng.float g 3.0)
            ~b:(Util.Prng.float g 3.0))

let spec ?(affine = false) g =
  let n = 1 + Util.Prng.int g 2 in
  let horizon = 2 + Util.Prng.int g 5 in
  let costs = if affine then affine_costs g ~n else mixed_costs g ~n in
  let arrivals =
    Array.init (horizon + 1) (fun _ ->
        Array.init n (fun _ -> Util.Prng.int g 3))
  in
  (* Above the cheapest single modification, below everything at once. *)
  let limit = 3.0 +. Util.Prng.float g 10.0 in
  Abivm.Spec.make ~costs ~limit ~arrivals

let instance ?affine ~seed () = spec ?affine (Util.Prng.create ~seed)

(* Longer instances for the ONLINE suites: 2-3 affine tables over 21-60
   steps, so the controller is forced to flush several times. *)
let online_instance ~seed =
  let g = Util.Prng.create ~seed in
  let n = 2 + Util.Prng.int g 2 in
  let horizon = 20 + Util.Prng.int g 40 in
  let costs = affine_costs g ~n in
  let arrivals =
    Array.init (horizon + 1) (fun _ ->
        Array.init n (fun _ -> Util.Prng.int g 4))
  in
  let limit = 15.0 +. Util.Prng.float g 30.0 in
  Abivm.Spec.make ~costs ~limit ~arrivals

let describe spec =
  Printf.sprintf "n=%d T=%d C=%.2f costs=%s arrivals=%s"
    (Abivm.Spec.n_tables spec)
    (Abivm.Spec.horizon spec)
    (Abivm.Spec.limit spec)
    (String.concat ","
       (Array.to_list (Array.map Cost.Func.name (Abivm.Spec.costs spec))))
    (String.concat ","
       (Array.to_list
          (Array.map Abivm.Statevec.to_string (Abivm.Spec.arrivals spec))))

(* ------------------------------------------------------------------ *)
(* Engine instances for the maintenance-order suites (test_ho,        *)
(* test_props).  One seed pins the database, the update stream and    *)
(* the batch schedule, so FO/HO twins built from the same seed see    *)
(* bit-identical inputs.                                              *)

type engine = {
  db : Tpcr.Synth.db2;
  maintainer : Ivm.Maintainer.t;
  feeds : Tpcr.Updates.feeds;
}

(* Drawn once per seed so both twins get the same shape. *)
type engine_params = {
  p_seed : int;
  p_r_rows : int;
  p_s_rows : int;
  p_join_domain : int;
  p_feed_seed : int;
  p_exponent : float;
}

let engine_params ~seed =
  let g = Util.Prng.create ~seed in
  {
    p_seed = seed;
    p_r_rows = 6 + Util.Prng.int g 40;
    p_s_rows = 6 + Util.Prng.int g 40;
    p_join_domain = 1 + Util.Prng.int g 12;
    p_feed_seed = Util.Prng.int g 1_000_000;
    p_exponent = 0.5 +. Util.Prng.float g 1.0;
  }

(* Each call builds a fresh database: instances for different orders are
   physically independent but content-identical. *)
let engine_of_params ?(zipf = false) ~order p =
  let db =
    Tpcr.Synth.generate ~seed:p.p_seed ~r_rows:p.p_r_rows ~s_rows:p.p_s_rows
      ~join_domain:p.p_join_domain ()
  in
  let maintainer = Ivm.Maintainer.create ~order (Tpcr.Synth.join_view db) in
  let feeds =
    if zipf then
      Tpcr.Synth.zipf_feeds ~seed:p.p_feed_seed ~exponent:p.p_exponent db
    else Tpcr.Synth.insert_feeds ~seed:p.p_feed_seed db
  in
  { db; maintainer; feeds }

let engine ?zipf ?(order = Ivm.Viewdef.First_order) ~seed () =
  engine_of_params ?zipf ~order (engine_params ~seed)

(* The order instance wrapper: FO and HO twins over identical seeded
   databases and streams. *)
let twin_engines ?zipf ~seed () =
  let p = engine_params ~seed in
  ( engine_of_params ?zipf ~order:Ivm.Viewdef.First_order p,
    engine_of_params ?zipf ~order:Ivm.Viewdef.Higher_order p )

(* Feed [k] stream updates into table [i] of every engine (same changes,
   same arrival order). *)
let arrive_all engines i k =
  for _ = 1 to k do
    List.iter
      (fun e -> Ivm.Maintainer.on_arrive e.maintainer i (e.feeds.Tpcr.Updates.next i))
      engines
  done

let describe_engine p =
  Printf.sprintf "seed=%d r=%d s=%d dom=%d feed_seed=%d zexp=%.2f" p.p_seed
    p.p_r_rows p.p_s_rows p.p_join_domain p.p_feed_seed p.p_exponent
