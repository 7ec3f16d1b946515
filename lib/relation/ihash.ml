(* Open-addressing multimap from unboxed int keys to int payloads, for
   vectorized hash joins and delta probes: no boxing on insert or probe,
   payloads per key kept in insertion order via array-backed chains. *)

type t = {
  mutable mask : int; (* slot count - 1; slot count is a power of two *)
  mutable used : Bytes.t; (* one byte per slot: 1 = occupied *)
  mutable keys : int array;
  mutable heads : int array; (* first chain cell of the slot's payloads *)
  mutable tails : int array;
  mutable next : int array; (* chain cells, indexed by insertion order *)
  mutable payloads : int array;
  mutable n_slots : int;
  mutable n : int; (* total payloads *)
}

(* Slots are kept at most 1/4 full: probes are miss-dominated (most scan
   keys are not in the delta), and linear probing degrades steeply with
   load, while slots are only ints and a byte.  [create] sizes for [hint]
   distinct keys at that load. *)
(* [hint] is only a sizing hint.  Clamp it before the power-of-two
   sizing loop: for huge hints [4 * hint] (and the doubling itself) can
   overflow, after which [cap] never reaches its target and loops
   forever — and even a non-overflowing pathological hint should not
   demand a gigantic up-front allocation.  Past the clamp the table
   grows on demand as usual. *)
let max_hint = 1 lsl 20

let create hint =
  let hint = min max_hint (max 8 hint) in
  let rec cap n = if n >= 4 * hint then n else cap (2 * n) in
  let c = cap 8 in
  {
    mask = c - 1;
    used = Bytes.make c '\000';
    keys = Array.make c 0;
    heads = Array.make c (-1);
    tails = Array.make c (-1);
    next = Array.make hint (-1);
    payloads = Array.make hint 0;
    n_slots = 0;
    n = 0;
  }

let length h = h.n

let clear h =
  Bytes.fill h.used 0 (Bytes.length h.used) '\000';
  h.n_slots <- 0;
  h.n <- 0

let hash k =
  let x = k * 0x9E3779B1 in
  x lxor (x lsr 16)

(* Slot of [k], or the empty slot where it belongs.  Top-level recursion
   with explicit arguments: a local [let rec] capturing [h] and [k] would
   allocate a closure on every probe, which dominates hot probe loops. *)
let rec probe_loop used keys k mask i =
  if Bytes.unsafe_get used i = '\000' then i
  else if Array.unsafe_get keys i = k then i
  else probe_loop used keys k mask ((i + 1) land mask)

let probe h k = probe_loop h.used h.keys k h.mask (hash k land h.mask)

let grow_slots h =
  let old_used = h.used and old_keys = h.keys in
  let old_heads = h.heads and old_tails = h.tails in
  let c = 2 * (h.mask + 1) in
  h.mask <- c - 1;
  h.used <- Bytes.make c '\000';
  h.keys <- Array.make c 0;
  h.heads <- Array.make c (-1);
  h.tails <- Array.make c (-1);
  for i = 0 to Bytes.length old_used - 1 do
    if Bytes.unsafe_get old_used i <> '\000' then begin
      let j = probe h old_keys.(i) in
      Bytes.unsafe_set h.used j '\001';
      h.keys.(j) <- old_keys.(i);
      h.heads.(j) <- old_heads.(i);
      h.tails.(j) <- old_tails.(i)
    end
  done

let add h k payload =
  if 4 * h.n_slots > h.mask + 1 then grow_slots h;
  if h.n >= Array.length h.next then begin
    let n = Array.length h.next in
    let next = Array.make (2 * n) (-1) in
    Array.blit h.next 0 next 0 n;
    h.next <- next;
    let payloads = Array.make (2 * n) 0 in
    Array.blit h.payloads 0 payloads 0 n;
    h.payloads <- payloads
  end;
  let cell = h.n in
  h.payloads.(cell) <- payload;
  h.next.(cell) <- -1;
  h.n <- cell + 1;
  let i = probe h k in
  if Bytes.unsafe_get h.used i = '\000' then begin
    Bytes.unsafe_set h.used i '\001';
    h.keys.(i) <- k;
    h.heads.(i) <- cell;
    h.tails.(i) <- cell;
    h.n_slots <- h.n_slots + 1
  end
  else begin
    h.next.(h.tails.(i)) <- cell;
    h.tails.(i) <- cell
  end

(* Closure-free chain walking for hot probe loops: [first] yields the head
   chain cell of a key (-1 if absent), [next_cell] the following one,
   [payload_of] the cell's payload. *)
let first h k =
  let i = probe h k in
  if Bytes.unsafe_get h.used i = '\000' then -1 else h.heads.(i)

let next_cell h cell = Array.unsafe_get h.next cell
let payload_of h cell = Array.unsafe_get h.payloads cell

let iter_matches h k f =
  let i = probe h k in
  if Bytes.unsafe_get h.used i <> '\000' then begin
    let cell = ref h.heads.(i) in
    while !cell >= 0 do
      f (Array.unsafe_get h.payloads !cell);
      cell := Array.unsafe_get h.next !cell
    done
  end

let mem h k =
  let i = probe h k in
  Bytes.unsafe_get h.used i <> '\000'
