type snapshot = {
  seq_scanned : int;
  index_probes : int;
  index_entries : int;
  inserted : int;
  deleted : int;
  hash_build : int;
  hash_probe : int;
  output : int;
  batch_setup : int;
  batches : int;
}

(* Domain-safe metering.  Bumps happen on the engine's per-tuple hot paths
   and may race on a shared meter when engines that share it are
   maintained from several domains at once.  Counters are sharded: each field
   has [shards] cells and a domain bumps the cell indexed by its id, so
   under the common one-or-few-domains case distinct domains touch distinct
   cells.  Cells are [Atomic.t] (bumped with [fetch_and_add]) so that even
   when domain ids collide modulo [shards] no update is ever lost.  A
   snapshot sums the cells — merging is a read-side cost, the write side
   takes no lock and allocates nothing. *)

let shards = 16
let n_fields = 10

type t = int Atomic.t array (* [shards * n_fields], cell-major by shard *)

let f_seq_scanned = 0
let f_index_probes = 1
let f_index_entries = 2
let f_inserted = 3
let f_deleted = 4
let f_hash_build = 5
let f_hash_probe = 6
let f_output = 7
let f_batch_setup = 8
let f_batches = 9

let create () = Array.init (shards * n_fields) (fun _ -> Atomic.make 0)

(* Only meaningful while no other domain is bumping (e.g. between runs). *)
let reset m = Array.iter (fun c -> Atomic.set c 0) m

let sum m field =
  let acc = ref 0 in
  for s = 0 to shards - 1 do
    acc := !acc + Atomic.get m.((s * n_fields) + field)
  done;
  !acc

let snapshot m : snapshot =
  {
    seq_scanned = sum m f_seq_scanned;
    index_probes = sum m f_index_probes;
    index_entries = sum m f_index_entries;
    inserted = sum m f_inserted;
    deleted = sum m f_deleted;
    hash_build = sum m f_hash_build;
    hash_probe = sum m f_hash_probe;
    output = sum m f_output;
    batch_setup = sum m f_batch_setup;
    batches = sum m f_batches;
  }

let diff (a : snapshot) (b : snapshot) : snapshot =
  {
    seq_scanned = a.seq_scanned - b.seq_scanned;
    index_probes = a.index_probes - b.index_probes;
    index_entries = a.index_entries - b.index_entries;
    inserted = a.inserted - b.inserted;
    deleted = a.deleted - b.deleted;
    hash_build = a.hash_build - b.hash_build;
    hash_probe = a.hash_probe - b.hash_probe;
    output = a.output - b.output;
    batch_setup = a.batch_setup - b.batch_setup;
    batches = a.batches - b.batches;
  }

let[@inline] bump m field n =
  let shard = (Domain.self () :> int) land (shards - 1) in
  ignore (Atomic.fetch_and_add m.((shard * n_fields) + field) n)

let bump_seq_scanned m n = bump m f_seq_scanned n
let bump_index_probes m n = bump m f_index_probes n
let bump_index_entries m n = bump m f_index_entries n
let bump_inserted m n = bump m f_inserted n
let bump_deleted m n = bump m f_deleted n
let bump_hash_build m n = bump m f_hash_build n
let bump_hash_probe m n = bump m f_hash_probe n
let bump_output m n = bump m f_output n
let bump_batch_setup m n = bump m f_batch_setup n
let bump_batches m n = bump m f_batches n

(* Weights: a sequential tuple touch costs 1; an index probe pays a lookup
   overhead of 4 plus 1 per returned entry; structural modifications pay
   slightly more than a touch; a maintenance-statement setup models the
   paper's fixed "b" term (parsing, optimization, building hash tables). *)
let cost_units (s : snapshot) =
  (1.0 *. float_of_int s.seq_scanned)
  +. (4.0 *. float_of_int s.index_probes)
  +. (1.0 *. float_of_int s.index_entries)
  +. (2.0 *. float_of_int s.inserted)
  +. (2.0 *. float_of_int s.deleted)
  +. (1.5 *. float_of_int s.hash_build)
  +. (1.0 *. float_of_int s.hash_probe)
  +. (0.5 *. float_of_int s.output)
  +. (50.0 *. float_of_int s.batch_setup)

let pp fmt (s : snapshot) =
  Format.fprintf fmt
    "{scan=%d; probes=%d; entries=%d; ins=%d; del=%d; hbuild=%d; \
     hprobe=%d; out=%d; setup=%d; batches=%d; units=%.1f}"
    s.seq_scanned s.index_probes s.index_entries s.inserted s.deleted
    s.hash_build s.hash_probe s.output s.batch_setup s.batches (cost_units s)
