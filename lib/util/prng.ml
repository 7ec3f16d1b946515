type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create ~seed = { state = Int64.of_int seed }

let copy g = { state = g.state }

(* splitmix64 finalizer: mixes a 64-bit counter value into output bits. *)
let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let bits64 g =
  g.state <- Int64.add g.state golden_gamma;
  mix g.state

let split g =
  let seed = bits64 g in
  { state = seed }

let int g bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let mask = Int64.shift_right_logical (bits64 g) 1 in
  Int64.to_int (Int64.rem mask (Int64.of_int bound))

let int_in g lo hi =
  if hi < lo then invalid_arg "Prng.int_in: hi < lo";
  lo + int g (hi - lo + 1)

let float g bound =
  let raw = Int64.to_float (Int64.shift_right_logical (bits64 g) 11) in
  bound *. (raw /. 9007199254740992.0 (* 2^53 *))

let bool g = Int64.logand (bits64 g) 1L = 1L

let bernoulli g p = float g 1.0 < p

let normal g ~mu ~sigma =
  (* Box-Muller; guard against log 0. *)
  let rec nonzero () =
    let u = float g 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  let u1 = nonzero () and u2 = float g 1.0 in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let exponential g ~rate =
  if rate <= 0.0 then invalid_arg "Prng.exponential: rate must be positive";
  let rec nonzero () =
    let u = float g 1.0 in
    if u > 0.0 then u else nonzero ()
  in
  -.log (nonzero ()) /. rate

let poisson g ~mean =
  if mean < 0.0 then invalid_arg "Prng.poisson: mean must be non-negative";
  if mean = 0.0 then 0
  else if mean > 64.0 then
    let x = normal g ~mu:mean ~sigma:(sqrt mean) in
    max 0 (int_of_float (Float.round x))
  else
    let limit = exp (-.mean) in
    let rec loop k p =
      let p = p *. float g 1.0 in
      if p <= limit then k else loop (k + 1) p
    in
    loop 0 1.0

let shuffle g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let sample_without_replacement g k n =
  if k > n then invalid_arg "Prng.sample_without_replacement: k > n";
  (* Partial Fisher-Yates over a lazily materialized identity permutation. *)
  let swapped = Hashtbl.create (2 * k) in
  let get i = match Hashtbl.find_opt swapped i with Some v -> v | None -> i in
  Array.init k (fun i ->
      let j = int_in g i (n - 1) in
      let vi = get i and vj = get j in
      Hashtbl.replace swapped j vi;
      Hashtbl.replace swapped i vj;
      vj)

let zipf_sampler ~exponent ~n =
  if n <= 0 then invalid_arg "Prng.zipf_sampler: n must be positive";
  if exponent < 0.0 then invalid_arg "Prng.zipf_sampler: negative exponent";
  (* Inverse-CDF sampling over the n ranks: cumulative weights are
     precomputed once so each draw is one uniform plus a binary search. *)
  let cum = Array.make n 0.0 in
  let total = ref 0.0 in
  for r = 0 to n - 1 do
    total := !total +. (1.0 /. Float.pow (float_of_int (r + 1)) exponent);
    cum.(r) <- !total
  done;
  fun g ->
    let u = float g !total in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cum.(mid) <= u then lo := mid + 1 else hi := mid
    done;
    !lo
