(* Unit tests for the util library: PRNG, statistics, priority queue,
   subset enumeration, growable vectors, table formatting. *)

let check = Alcotest.check
let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checkf msg = Alcotest.check (Alcotest.float 1e-9) msg

(* --- Prng ---------------------------------------------------------------- *)

let test_prng_deterministic () =
  let a = Util.Prng.create ~seed:123 and b = Util.Prng.create ~seed:123 in
  for _ = 1 to 100 do
    checkb "same stream" true (Util.Prng.bits64 a = Util.Prng.bits64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Util.Prng.create ~seed:1 and b = Util.Prng.create ~seed:2 in
  checkb "different seeds diverge" false (Util.Prng.bits64 a = Util.Prng.bits64 b)

let test_prng_int_range () =
  let g = Util.Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Util.Prng.int g 7 in
    checkb "in range" true (x >= 0 && x < 7)
  done

let test_prng_int_in_range () =
  let g = Util.Prng.create ~seed:5 in
  for _ = 1 to 1000 do
    let x = Util.Prng.int_in g (-3) 3 in
    checkb "in range" true (x >= -3 && x <= 3)
  done

let test_prng_int_rejects_nonpositive () =
  let g = Util.Prng.create ~seed:5 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Util.Prng.int g 0))

let test_prng_float_range () =
  let g = Util.Prng.create ~seed:9 in
  for _ = 1 to 1000 do
    let x = Util.Prng.float g 2.5 in
    checkb "in range" true (x >= 0.0 && x < 2.5)
  done

let test_prng_bernoulli_bias () =
  let g = Util.Prng.create ~seed:11 in
  let hits = ref 0 in
  let n = 20_000 in
  for _ = 1 to n do
    if Util.Prng.bernoulli g 0.3 then incr hits
  done;
  let p = float_of_int !hits /. float_of_int n in
  checkb "p approx 0.3" true (Float.abs (p -. 0.3) < 0.02)

let test_prng_normal_moments () =
  let g = Util.Prng.create ~seed:13 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Util.Prng.normal g ~mu:2.0 ~sigma:3.0) in
  let m = Util.Stats.mean xs and sd = Util.Stats.stddev xs in
  checkb "mean approx 2" true (Float.abs (m -. 2.0) < 0.1);
  checkb "stddev approx 3" true (Float.abs (sd -. 3.0) < 0.1)

let test_prng_poisson_mean () =
  let g = Util.Prng.create ~seed:17 in
  let n = 20_000 in
  let xs = Array.init n (fun _ -> float_of_int (Util.Prng.poisson g ~mean:4.0)) in
  checkb "mean approx 4" true (Float.abs (Util.Stats.mean xs -. 4.0) < 0.1)

let test_prng_poisson_zero () =
  let g = Util.Prng.create ~seed:17 in
  checki "mean 0 gives 0" 0 (Util.Prng.poisson g ~mean:0.0)

let test_prng_split_independent () =
  let g = Util.Prng.create ~seed:19 in
  let a = Util.Prng.split g in
  let b = Util.Prng.split g in
  checkb "split streams differ" false (Util.Prng.bits64 a = Util.Prng.bits64 b)

let test_prng_shuffle_permutation () =
  let g = Util.Prng.create ~seed:23 in
  let a = Array.init 50 (fun i -> i) in
  Util.Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  check (Alcotest.array Alcotest.int) "still a permutation"
    (Array.init 50 (fun i -> i))
    sorted

let test_prng_sample_without_replacement () =
  let g = Util.Prng.create ~seed:29 in
  let s = Util.Prng.sample_without_replacement g 10 100 in
  checki "ten samples" 10 (Array.length s);
  let distinct = List.sort_uniq Int.compare (Array.to_list s) in
  checki "all distinct" 10 (List.length distinct);
  Array.iter (fun x -> checkb "in range" true (x >= 0 && x < 100)) s

let test_prng_sample_full_range () =
  let g = Util.Prng.create ~seed:31 in
  let s = Util.Prng.sample_without_replacement g 20 20 in
  let sorted = List.sort Int.compare (Array.to_list s) in
  check (Alcotest.list Alcotest.int) "k = n is a permutation"
    (List.init 20 (fun i -> i))
    sorted

(* --- Stats --------------------------------------------------------------- *)

let test_stats_mean_variance () =
  let xs = [| 1.0; 2.0; 3.0; 4.0 |] in
  checkf "mean" 2.5 (Util.Stats.mean xs);
  checkf "variance" 1.25 (Util.Stats.variance xs);
  checkf "sum" 10.0 (Util.Stats.sum xs)

let test_stats_min_max () =
  let lo, hi = Util.Stats.min_max [| 3.0; -1.0; 7.5; 0.0 |] in
  checkf "min" (-1.0) lo;
  checkf "max" 7.5 hi

let test_stats_percentile () =
  let xs = [| 10.0; 20.0; 30.0; 40.0; 50.0 |] in
  checkf "median" 30.0 (Util.Stats.percentile xs 50.0);
  checkf "p0" 10.0 (Util.Stats.percentile xs 0.0);
  checkf "p100" 50.0 (Util.Stats.percentile xs 100.0);
  checkf "p25" 20.0 (Util.Stats.percentile xs 25.0)

let test_stats_percentile_interpolates () =
  let xs = [| 0.0; 10.0 |] in
  checkf "p50 interpolated" 5.0 (Util.Stats.percentile xs 50.0)

let test_stats_linear_fit_exact () =
  let samples = Array.init 20 (fun i ->
      let x = float_of_int i in
      (x, (3.0 *. x) +. 7.0))
  in
  let slope, intercept = Util.Stats.linear_fit samples in
  checkb "slope" true (Float.abs (slope -. 3.0) < 1e-9);
  checkb "intercept" true (Float.abs (intercept -. 7.0) < 1e-9);
  checkf "r2 of exact fit" 1.0
    (Util.Stats.r_squared samples ~slope ~intercept)

let test_stats_linear_fit_degenerate () =
  Alcotest.check_raises "all x equal"
    (Invalid_argument "Stats.linear_fit: x values are all equal") (fun () ->
      ignore (Util.Stats.linear_fit [| (1.0, 1.0); (1.0, 2.0) |]))

let test_stats_mape () =
  let actual = [| 100.0; 200.0 |] and predicted = [| 110.0; 180.0 |] in
  checkf "mape" 0.1 (Util.Stats.mean_absolute_percentage_error ~actual ~predicted)

(* --- Pqueue -------------------------------------------------------------- *)

(* Pop the minimum as (priority, value, payload). *)
let pop_entry q =
  let p = Util.Pqueue.peek_priority q and g = Util.Pqueue.peek_payload q in
  (p, Util.Pqueue.pop q, g)

let test_pqueue_ordering () =
  let q = Util.Pqueue.create () in
  List.iter (fun (p, v) -> Util.Pqueue.push q ~priority:p ~payload:0.0 v)
    [ (5.0, 5); (1.0, 1); (3.0, 3); (2.0, 2); (4.0, 4) ];
  let popped = List.init 5 (fun _ -> Util.Pqueue.pop q) in
  check (Alcotest.list Alcotest.int) "sorted pops" [ 1; 2; 3; 4; 5 ] popped

let test_pqueue_empty () =
  let q = Util.Pqueue.create () in
  checkb "empty" true (Util.Pqueue.is_empty q);
  Alcotest.check_raises "pop raises" (Invalid_argument "Pqueue.pop: empty queue")
    (fun () -> ignore (Util.Pqueue.pop q));
  Alcotest.check_raises "peek raises"
    (Invalid_argument "Pqueue.peek_priority: empty queue") (fun () ->
      ignore (Util.Pqueue.peek_priority q))

let test_pqueue_length () =
  let q = Util.Pqueue.create () in
  Util.Pqueue.push q ~priority:1.0 ~payload:0.0 1;
  Util.Pqueue.push q ~priority:2.0 ~payload:0.0 2;
  checki "length 2" 2 (Util.Pqueue.length q);
  ignore (Util.Pqueue.pop q);
  checki "length 1" 1 (Util.Pqueue.length q)

let test_pqueue_peek_preserves () =
  let q = Util.Pqueue.create () in
  Util.Pqueue.push q ~priority:2.0 ~payload:20.0 24;
  Util.Pqueue.push q ~priority:1.0 ~payload:10.0 25;
  checkb "peek min" true
    ((Util.Pqueue.peek_priority q, Util.Pqueue.peek_payload q) = (1.0, 10.0));
  checki "length unchanged" 2 (Util.Pqueue.length q);
  checki "the peeked entry pops" 25 (Util.Pqueue.pop q)

let test_pqueue_duplicates () =
  let q = Util.Pqueue.create () in
  Util.Pqueue.push q ~priority:1.0 ~payload:3.0 7;
  Util.Pqueue.push q ~priority:1.0 ~payload:3.0 7;
  checkb "first" true (pop_entry q = (1.0, 7, 3.0));
  checkb "second" true (pop_entry q = (1.0, 7, 3.0))

(* --- Subsets ------------------------------------------------------------- *)

let test_subsets_all () =
  checki "2^3 subsets" 8 (List.length (Util.Subsets.all 3));
  checki "empty universe" 1 (List.length (Util.Subsets.all 0));
  checki "non-empty count" 7 (List.length (Util.Subsets.non_empty 3))

let test_subsets_of_mask () =
  check (Alcotest.list Alcotest.int) "mask 0b101" [ 0; 2 ]
    (Util.Subsets.of_mask 3 0b101)

let test_subsets_minimal_monotone () =
  (* ok s = |s| >= 2: minimal sets are exactly the pairs. *)
  let ok s = List.length s >= 2 in
  let minimal = Util.Subsets.minimal_satisfying 4 ok in
  checki "all 6 pairs" 6 (List.length minimal);
  List.iter (fun s -> checki "each has size 2" 2 (List.length s)) minimal

let test_subsets_minimal_empty_ok () =
  let minimal = Util.Subsets.minimal_satisfying 3 (fun _ -> true) in
  check (Alcotest.list (Alcotest.list Alcotest.int)) "only the empty set"
    [ [] ] minimal

let test_subsets_is_minimal () =
  let ok s = List.mem 1 s in
  checkb "[1] minimal" true (Util.Subsets.is_minimal_satisfying [ 1 ] ok);
  checkb "[0;1] not minimal" false
    (Util.Subsets.is_minimal_satisfying [ 0; 1 ] ok)

(* --- Vec ----------------------------------------------------------------- *)

let test_vec_push_get () =
  let v = Util.Vec.create () in
  for i = 0 to 99 do
    Util.Vec.push v (i * i)
  done;
  checki "length" 100 (Util.Vec.length v);
  checki "get 10" 100 (Util.Vec.get v 10);
  Util.Vec.set v 10 (-1);
  checki "set/get" (-1) (Util.Vec.get v 10)

let test_vec_bounds () =
  let v = Util.Vec.of_list [ 1; 2; 3 ] in
  Alcotest.check_raises "get out of bounds"
    (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Util.Vec.get v 3))

let test_vec_pop () =
  let v = Util.Vec.of_list [ 1; 2 ] in
  checkb "pop 2" true (Util.Vec.pop v = Some 2);
  checkb "pop 1" true (Util.Vec.pop v = Some 1);
  checkb "pop empty" true (Util.Vec.pop v = None)

let test_vec_conversions () =
  let v = Util.Vec.of_list [ 3; 1; 4 ] in
  check (Alcotest.list Alcotest.int) "to_list" [ 3; 1; 4 ] (Util.Vec.to_list v);
  check (Alcotest.array Alcotest.int) "to_array" [| 3; 1; 4 |]
    (Util.Vec.to_array v);
  checki "fold" 8 (Util.Vec.fold_left ( + ) 0 v);
  checkb "exists" true (Util.Vec.exists (fun x -> x = 4) v);
  checkb "not exists" false (Util.Vec.exists (fun x -> x = 5) v)

let test_vec_make_clear () =
  let v = Util.Vec.make 5 "x" in
  checki "make length" 5 (Util.Vec.length v);
  Util.Vec.clear v;
  checki "cleared" 0 (Util.Vec.length v)

(* --- Tablefmt ------------------------------------------------------------ *)

let test_tablefmt_render () =
  let out =
    Util.Tablefmt.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "33"; "4" ] ]
  in
  checkb "has separator" true (String.length out > 0);
  let lines = String.split_on_char '\n' out in
  checki "header + rule + 2 rows + trailing" 5 (List.length lines)

let test_tablefmt_alignment () =
  let out =
    Util.Tablefmt.render ~aligns:[ Util.Tablefmt.Right ] ~header:[ "num" ]
      [ [ "7" ] ]
  in
  checkb "right aligned" true
    (List.exists
       (fun line -> String.equal line "  7")
       (String.split_on_char '\n' out))

let test_tablefmt_csv () =
  let csv =
    Util.Tablefmt.to_csv ~header:[ "a"; "b" ]
      [ [ "1"; "plain" ]; [ "2"; "with, comma" ]; [ "3"; "with \"quote\"" ] ]
  in
  Alcotest.check Alcotest.string "quoting rules"
    "a,b\n1,plain\n2,\"with, comma\"\n3,\"with \"\"quote\"\"\"\n" csv

let test_tablefmt_write_csv () =
  let path = Filename.temp_file "tablefmt" ".csv" in
  Util.Tablefmt.write_csv ~path ~header:[ "x" ] [ [ "1" ] ];
  let ic = open_in path in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Alcotest.check Alcotest.string "file content" "x\n1\n" content

let test_tablefmt_float_cell () =
  Alcotest.check Alcotest.string "two decimals" "3.14"
    (Util.Tablefmt.float_cell 3.14159);
  Alcotest.check Alcotest.string "zero decimals" "3"
    (Util.Tablefmt.float_cell ~decimals:0 3.14159)

(* --- zipf sampler statistics -------------------------------------------------- *)

let zipf_histogram ~seed ~exponent ~n ~draws =
  let g = Util.Prng.create ~seed in
  let sample = Util.Prng.zipf_sampler ~exponent ~n in
  let counts = Array.make n 0 in
  for _ = 1 to draws do
    let r = sample g in
    if r < 0 || r >= n then Alcotest.failf "rank %d out of [0, %d)" r n;
    counts.(r) <- counts.(r) + 1
  done;
  counts

let test_zipf_deterministic () =
  let draw seed =
    let g = Util.Prng.create ~seed in
    let sample = Util.Prng.zipf_sampler ~exponent:1.1 ~n:50 in
    List.init 200 (fun _ -> sample g)
  in
  Alcotest.(check (list int)) "same seed, same sequence" (draw 42) (draw 42);
  if draw 42 = draw 43 then Alcotest.fail "different seeds, same sequence"

let test_zipf_rank_frequency () =
  (* exponent 1 over 100 ranks: the theoretical top-rank share is
     1/H_100 ~ 0.193 and the tail (ranks >= 50) carries ~13.4% of the
     mass.  20k draws put the sample well inside the loose bounds. *)
  let n = 100 and draws = 20_000 in
  let counts = zipf_histogram ~seed:7 ~exponent:1.0 ~n ~draws in
  let share r = float_of_int counts.(r) /. float_of_int draws in
  let top = share 0 in
  if not (top > 0.15 && top < 0.25) then
    Alcotest.failf "top-rank share %.3f outside [0.15, 0.25]" top;
  if not (counts.(0) > counts.(9) && counts.(9) > counts.(49)) then
    Alcotest.failf "rank frequencies not decreasing: %d, %d, %d" counts.(0)
      counts.(9) counts.(49);
  let tail = ref 0 in
  for r = 50 to n - 1 do
    tail := !tail + counts.(r)
  done;
  let tail_share = float_of_int !tail /. float_of_int draws in
  if not (tail_share > 0.06 && tail_share < 0.25) then
    Alcotest.failf "tail mass %.3f outside [0.06, 0.25]" tail_share

let test_zipf_exponent_zero_uniform () =
  let n = 10 and draws = 20_000 in
  let counts = zipf_histogram ~seed:11 ~exponent:0.0 ~n ~draws in
  Array.iteri
    (fun r c ->
      let share = float_of_int c /. float_of_int draws in
      if not (share > 0.05 && share < 0.15) then
        Alcotest.failf "exponent 0: rank %d share %.3f not near uniform" r
          share)
    counts

let test_zipf_exponent_sharpens () =
  (* A higher exponent concentrates strictly more mass on the top rank. *)
  let top exponent =
    (zipf_histogram ~seed:3 ~exponent ~n:50 ~draws:10_000).(0)
  in
  let t05 = top 0.5 and t10 = top 1.0 and t20 = top 2.0 in
  if not (t05 < t10 && t10 < t20) then
    Alcotest.failf "top-rank counts not increasing in exponent: %d, %d, %d"
      t05 t10 t20

let () =
  Alcotest.run "util"
    [
      ( "zipf",
        [
          Alcotest.test_case "seeded determinism" `Quick
            test_zipf_deterministic;
          Alcotest.test_case "rank-frequency and tail mass" `Quick
            test_zipf_rank_frequency;
          Alcotest.test_case "exponent 0 is uniform" `Quick
            test_zipf_exponent_zero_uniform;
          Alcotest.test_case "exponent sharpens the head" `Quick
            test_zipf_exponent_sharpens;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int_in range" `Quick test_prng_int_in_range;
          Alcotest.test_case "int rejects 0" `Quick test_prng_int_rejects_nonpositive;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "bernoulli bias" `Quick test_prng_bernoulli_bias;
          Alcotest.test_case "normal moments" `Quick test_prng_normal_moments;
          Alcotest.test_case "poisson mean" `Quick test_prng_poisson_mean;
          Alcotest.test_case "poisson zero" `Quick test_prng_poisson_zero;
          Alcotest.test_case "split independent" `Quick test_prng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick
            test_prng_sample_without_replacement;
          Alcotest.test_case "sample full range" `Quick test_prng_sample_full_range;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/variance/sum" `Quick test_stats_mean_variance;
          Alcotest.test_case "min/max" `Quick test_stats_min_max;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "percentile interpolates" `Quick
            test_stats_percentile_interpolates;
          Alcotest.test_case "linear fit exact" `Quick test_stats_linear_fit_exact;
          Alcotest.test_case "linear fit degenerate" `Quick
            test_stats_linear_fit_degenerate;
          Alcotest.test_case "mape" `Quick test_stats_mape;
        ] );
      ( "pqueue",
        [
          Alcotest.test_case "ordering" `Quick test_pqueue_ordering;
          Alcotest.test_case "empty" `Quick test_pqueue_empty;
          Alcotest.test_case "length" `Quick test_pqueue_length;
          Alcotest.test_case "peek preserves" `Quick test_pqueue_peek_preserves;
          Alcotest.test_case "duplicates" `Quick test_pqueue_duplicates;
        ] );
      ( "subsets",
        [
          Alcotest.test_case "all" `Quick test_subsets_all;
          Alcotest.test_case "of_mask" `Quick test_subsets_of_mask;
          Alcotest.test_case "minimal monotone" `Quick test_subsets_minimal_monotone;
          Alcotest.test_case "minimal empty ok" `Quick test_subsets_minimal_empty_ok;
          Alcotest.test_case "is_minimal" `Quick test_subsets_is_minimal;
        ] );
      ( "vec",
        [
          Alcotest.test_case "push/get/set" `Quick test_vec_push_get;
          Alcotest.test_case "bounds" `Quick test_vec_bounds;
          Alcotest.test_case "pop" `Quick test_vec_pop;
          Alcotest.test_case "conversions" `Quick test_vec_conversions;
          Alcotest.test_case "make/clear" `Quick test_vec_make_clear;
        ] );
      ( "tablefmt",
        [
          Alcotest.test_case "render" `Quick test_tablefmt_render;
          Alcotest.test_case "alignment" `Quick test_tablefmt_alignment;
          Alcotest.test_case "float cell" `Quick test_tablefmt_float_cell;
          Alcotest.test_case "csv" `Quick test_tablefmt_csv;
          Alcotest.test_case "write csv" `Quick test_tablefmt_write_csv;
        ] );
    ]
