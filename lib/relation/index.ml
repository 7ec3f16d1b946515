module Int_set = Set.Make (Int)

module Vhash = Hashtbl.Make (struct
  type t = Value.t

  let equal = Value.equal
  let hash = Value.hash
end)

type t = {
  column : int;
  buckets : Int_set.t ref Vhash.t;
  mutable entries : int;
}

let create ~column = { column; buckets = Vhash.create 64; entries = 0 }

let column idx = idx.column

let add idx v row =
  match Vhash.find_opt idx.buckets v with
  | Some set ->
      if not (Int_set.mem row !set) then begin
        set := Int_set.add row !set;
        idx.entries <- idx.entries + 1
      end
  | None ->
      Vhash.add idx.buckets v (ref (Int_set.singleton row));
      idx.entries <- idx.entries + 1

let remove idx v row =
  match Vhash.find_opt idx.buckets v with
  | None -> ()
  | Some set ->
      if Int_set.mem row !set then begin
        set := Int_set.remove row !set;
        idx.entries <- idx.entries - 1;
        if Int_set.is_empty !set then Vhash.remove idx.buckets v
      end

let lookup idx v =
  match Vhash.find_opt idx.buckets v with
  | Some set -> Int_set.elements !set
  | None -> []

let cardinality idx = Vhash.length idx.buckets

let entry_count idx = idx.entries

(* [Vhash.copy] keeps the bucket layout, hence the iteration order; each
   bucket gets its own [ref] and shares the immutable set. *)
let copy idx =
  let buckets = Vhash.copy idx.buckets in
  Vhash.filter_map_inplace (fun _ set -> Some (ref !set)) buckets;
  { column = idx.column; buckets; entries = idx.entries }
