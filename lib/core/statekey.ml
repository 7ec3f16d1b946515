type t = { time : int; state : Statevec.t; hash : int }

(* Finalizing mix (xorshift–multiply–xorshift).  The FNV fold in
   [Statevec.hash] is byte-oriented: over the short, small-valued vectors
   the planner produces — and twice as wide once partitioned specs double
   the table count — most of its entropy sits in the low bits.  [Tbl]
   buckets by the low bits too, so one avalanche round spreads every input
   bit across the word.  The multiplier is any odd constant below [max_int]. *)
let mix h =
  let h = h lxor (h lsr 29) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 32) in
  h land max_int

let hash_of ~time state =
  mix
    (Statevec.hash_seeded
       ~seed:((0x811c9dc5 lxor (time * 0x01000193)) land max_int)
       state)

let make ~time state =
  if time < -1 then invalid_arg "Statekey.make: time below -1";
  { time; state; hash = hash_of ~time state }

let time k = k.time
let state k = k.state
let hash k = k.hash

let equal a b =
  a.hash = b.hash && a.time = b.time && Statevec.equal a.state b.state

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash k = k.hash
end)

let collisions tbl =
  let stats = Tbl.stats tbl in
  let empty_buckets =
    if Array.length stats.Hashtbl.bucket_histogram > 0 then
      stats.Hashtbl.bucket_histogram.(0)
    else 0
  in
  max 0
    (stats.Hashtbl.num_bindings
    - (stats.Hashtbl.num_buckets - empty_buckets))
