module Vhash = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

(* One key's row ids, ascending, in [ids.(0 .. len - 1)]; the slots past
   [len] are spare capacity.  Row ids are appended in increasing order
   ({!Table.insert}), so [add] almost always lands at the end. *)
type bucket = { mutable ids : int array; mutable len : int }

type t = { column : int; buckets : bucket Vhash.t; mutable entries : int }

let create ~column = { column; buckets = Vhash.create 64; entries = 0 }

let column idx = idx.column

(* The first position in [b] whose id is [>= row]. *)
let lower_bound b row =
  let lo = ref 0 and hi = ref b.len in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get b.ids mid < row then lo := mid + 1 else hi := mid
  done;
  !lo

let add idx v row =
  match Vhash.find_opt idx.buckets v with
  | None ->
      Vhash.add idx.buckets v { ids = [| row |]; len = 1 };
      idx.entries <- idx.entries + 1
  | Some b ->
      let i = lower_bound b row in
      if i = b.len || b.ids.(i) <> row then begin
        if b.len = Array.length b.ids then begin
          let ids = Array.make (2 * b.len) 0 in
          Array.blit b.ids 0 ids 0 b.len;
          b.ids <- ids
        end;
        Array.blit b.ids i b.ids (i + 1) (b.len - i);
        b.ids.(i) <- row;
        b.len <- b.len + 1;
        idx.entries <- idx.entries + 1
      end

let remove idx v row =
  match Vhash.find_opt idx.buckets v with
  | None -> ()
  | Some b ->
      let i = lower_bound b row in
      if i < b.len && b.ids.(i) = row then begin
        Array.blit b.ids (i + 1) b.ids i (b.len - i - 1);
        b.len <- b.len - 1;
        idx.entries <- idx.entries - 1;
        if b.len = 0 then Vhash.remove idx.buckets v
      end

let size idx v =
  match Vhash.find_opt idx.buckets v with Some b -> b.len | None -> 0

let iter idx v f =
  match Vhash.find_opt idx.buckets v with
  | None -> ()
  | Some b ->
      for i = 0 to b.len - 1 do
        f (Array.unsafe_get b.ids i)
      done

let find_first idx v p =
  match Vhash.find_opt idx.buckets v with
  | None -> -1
  | Some b ->
      let rec go i =
        if i = b.len then -1
        else
          let row = Array.unsafe_get b.ids i in
          if p row then row else go (i + 1)
      in
      go 0

let cardinality idx = Vhash.length idx.buckets

let entry_count idx = idx.entries

(* [Vhash.copy] keeps the bucket layout, hence the iteration order; each
   bucket gets its own array. *)
let copy idx =
  let buckets = Vhash.copy idx.buckets in
  Vhash.filter_map_inplace
    (fun _ b -> Some { ids = Array.sub b.ids 0 b.len; len = b.len })
    buckets;
  { column = idx.column; buckets; entries = idx.entries }
