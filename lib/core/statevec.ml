type t = int array

let zero n = Array.make n 0

let copy = Array.copy

let is_zero s = Array.for_all (fun x -> x = 0) s

let check_lengths a b =
  if Array.length a <> Array.length b then
    invalid_arg "Statevec: length mismatch"

let add a b =
  check_lengths a b;
  Array.mapi (fun i x -> x + b.(i)) a

let sub a b =
  check_lengths a b;
  Array.mapi
    (fun i x ->
      let d = x - b.(i) in
      if d < 0 then invalid_arg "Statevec.sub: negative component";
      d)
    a

let add_in_place a b =
  check_lengths a b;
  Array.iteri (fun i x -> a.(i) <- a.(i) + x) b

let leq a b =
  check_lengths a b;
  let rec loop i = i >= Array.length a || (a.(i) <= b.(i) && loop (i + 1)) in
  loop 0

let total s = Array.fold_left ( + ) 0 s

let fold f init s = Array.fold_left f init s

let equal a b = Array.length a = Array.length b && Array.for_all2 ( = ) a b

(* FNV-1a folded over every component.  Generic [Hashtbl.hash] only
   inspects a bounded prefix of a structure, which collapses wide vectors
   onto few buckets; this covers all of [s] without allocating. *)
let fnv_offset = 0x811c9dc5
let fnv_prime = 0x01000193

let hash_seeded ~seed s =
  let h = ref seed in
  for i = 0 to Array.length s - 1 do
    h := (!h lxor s.(i)) * fnv_prime land max_int
  done;
  !h

let hash s = hash_seeded ~seed:fnv_offset s

let compare a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then Int.compare la lb
  else
    let rec loop i =
      if i >= la then 0
      else
        let c = Int.compare a.(i) b.(i) in
        if c <> 0 then c else loop (i + 1)
    in
    loop 0

let restrict_to s members =
  let out = zero (Array.length s) in
  List.iter (fun i -> out.(i) <- s.(i)) members;
  out

let support s =
  let out = ref [] in
  for i = Array.length s - 1 downto 0 do
    if s.(i) <> 0 then out := i :: !out
  done;
  !out

let to_string s =
  "[" ^ String.concat "; " (Array.to_list (Array.map string_of_int s)) ^ "]"
