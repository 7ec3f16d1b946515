type t = {
  name : string;
  schema : Schema.t;
  meter : Meter.t;
  cols : Column.t array; (* one per schema column; equal lengths = n_rows *)
  mutable live_bits : Bytes.t; (* set bit = live row; clear = tombstone *)
  mutable n_rows : int; (* including tombstones *)
  mutable live : int;
  indexes : (string, Index.t) Hashtbl.t;
  mutable cert : int array;
      (* the distinct-row certificate, [||] until first asked for *)
  mutable cert_used : int; (* its slots holding an entry or [gone] *)
  mutable cert_repeats : int; (* live rows whose hash an older live row holds *)
}

let create ?meter ~name ~schema () =
  let meter = match meter with Some m -> m | None -> Meter.create () in
  {
    name;
    schema;
    meter;
    cols =
      Array.init (Schema.arity schema) (fun i ->
          Column.create (Schema.column_type schema i));
    live_bits = Bytes.make 8 '\000';
    n_rows = 0;
    live = 0;
    indexes = Hashtbl.create 4;
    cert = [||];
    cert_used = 0;
    cert_repeats = 0;
  }

let name t = t.name
let schema t = t.schema
let meter t = t.meter
let row_count t = t.live

let canonical_column t col = Schema.column_name t.schema (Schema.index_of t.schema col)

let is_live t row = Column.bit t.live_bits row

let materialize t row =
  Array.init (Array.length t.cols) (fun c -> Column.get t.cols.(c) row)

(* --- the distinct-row certificate ----------------------------------------- *)

let hash_row t row =
  let h = ref 17 in
  for c = 0 to Array.length t.cols - 1 do
    h := (!h * 31) + Column.hash_cell (Array.unsafe_get t.cols c) row
  done;
  !h

(* The certificate is a multiset of the live rows' hashes in one flat
   array: an entry per live row in open-addressed slots [0 .. cap - 1]
   (linear probing; two equal hashes take two slots of one cluster),
   [vacant] or [gone] (a deleted entry) in the others, and at [cap] and
   [cap + 1] the number of live rows whose hash is [vacant] or [gone]
   itself.  A row's hash repeats iff its cluster holds an equal entry,
   so [cert_repeats] counts live rows beyond the first of each hash.
   A table is built half full; once three quarters of its slots are
   used, [gone] included, it is rebuilt from its entries, half full
   again.  The slot count is not rounded to a power of two: a hash's
   home slot is its low 30 bits scaled to [cap]. *)
let vacant = min_int
let gone = min_int + 1

(* [2n] slots, at least 16. *)
let cert_table n =
  let cap = max 16 (2 * n) in
  let cert = Array.make (cap + 2) vacant in
  cert.(cap) <- 0;
  cert.(cap + 1) <- 0;
  cert

let cert_home cap h = (((h lxor (h lsr 17)) land 0x3FFF_FFFF) * cap) lsr 30

let[@inline] cert_next cap s = if s + 1 = cap then 0 else s + 1

(* One walk of the cluster from slot [s] to its [vacant] end: the first
   free ([vacant] or [gone]) slot, shifted left one bit, with the low bit
   set iff the cluster holds an entry [h]. *)
let rec cert_scan cert cap h s free seen =
  let v = Array.unsafe_get cert s in
  if v = vacant then ((if free < 0 then s else free) lsl 1) lor seen
  else
    cert_scan cert cap h (cert_next cap s)
      (if free < 0 && v = gone then s else free)
      (if v = h then 1 else seen)

(* Mark the first entry [h] from slot [s] on [gone]; its slot. *)
let rec cert_drop cert cap h s =
  let v = Array.unsafe_get cert s in
  if v = h then begin
    Array.unsafe_set cert s gone;
    s
  end
  else if v = vacant then invalid_arg "Table: certificate lost a live row's hash"
  else cert_drop cert cap h (cert_next cap s)

let cert_rehash t =
  let old = t.cert in
  let old_cap = Array.length old - 2 in
  let entries = ref 0 in
  for s = 0 to old_cap - 1 do
    if old.(s) > gone then incr entries
  done;
  let cert = cert_table (!entries + 1) in
  let cap = Array.length cert - 2 in
  for s = 0 to old_cap - 1 do
    let h = old.(s) in
    if h > gone then cert.(cert_scan cert cap h (cert_home cap h) (-1) 0 lsr 1) <- h
  done;
  cert.(cap) <- old.(old_cap);
  cert.(cap + 1) <- old.(old_cap + 1);
  t.cert <- cert;
  t.cert_used <- !entries

let cert_add t h =
  if h <= gone then begin
    let i = Array.length t.cert - 2 + (h - vacant) in
    if t.cert.(i) > 0 then t.cert_repeats <- t.cert_repeats + 1;
    t.cert.(i) <- t.cert.(i) + 1
  end
  else begin
    if 4 * (t.cert_used + 1) > 3 * (Array.length t.cert - 2) then cert_rehash t;
    let cert = t.cert in
    let cap = Array.length cert - 2 in
    let found = cert_scan cert cap h (cert_home cap h) (-1) 0 in
    let s = found lsr 1 in
    if found land 1 = 1 then t.cert_repeats <- t.cert_repeats + 1;
    if Array.unsafe_get cert s = vacant then t.cert_used <- t.cert_used + 1;
    Array.unsafe_set cert s h
  end

let cert_remove t h =
  if h <= gone then begin
    let i = Array.length t.cert - 2 + (h - vacant) in
    t.cert.(i) <- t.cert.(i) - 1;
    if t.cert.(i) > 0 then t.cert_repeats <- t.cert_repeats - 1
  end
  else begin
    let cert = t.cert in
    let cap = Array.length cert - 2 in
    let s = cert_drop cert cap h (cert_home cap h) in
    if cert_scan cert cap h (cert_next cap s) (-1) 0 land 1 = 1 then
      t.cert_repeats <- t.cert_repeats - 1
  end

let insert t tuple =
  if not (Tuple.conforms t.schema tuple) then
    invalid_arg
      (Printf.sprintf "Table.insert(%s): tuple %s does not conform to %s"
         t.name (Tuple.to_string tuple) (Schema.to_string t.schema));
  let row = t.n_rows in
  Array.iteri (fun c col -> Column.append col (Tuple.get tuple c)) t.cols;
  let need = (row + 8) lsr 3 in
  if need > Bytes.length t.live_bits then begin
    let out = Bytes.make (max need (2 * Bytes.length t.live_bits)) '\000' in
    Bytes.blit t.live_bits 0 out 0 (Bytes.length t.live_bits);
    t.live_bits <- out
  end;
  Column.set_bit t.live_bits row;
  t.n_rows <- row + 1;
  t.live <- t.live + 1;
  Meter.bump_inserted t.meter 1;
  if Array.length t.cert > 0 then cert_add t (Tuple.hash tuple);
  Hashtbl.iter
    (fun _ idx -> Index.add idx (Tuple.get tuple (Index.column idx)) row)
    t.indexes;
  row

let get_row t row =
  if row < 0 || row >= t.n_rows || not (is_live t row) then None
  else Some (materialize t row)

let delete_row t row =
  row >= 0 && row < t.n_rows && is_live t row
  && begin
       Column.clear_bit t.live_bits row;
       t.live <- t.live - 1;
       Meter.bump_deleted t.meter 1;
       if Array.length t.cert > 0 then cert_remove t (hash_row t row);
       Hashtbl.iter
         (fun _ idx -> Index.remove idx (Column.get t.cols.(Index.column idx) row) row)
         t.indexes;
       true
     end

(* Rows are hashed a chunk at a time, column by column, into a buffer
   small enough for the minor heap. *)
let cert_chunk = 256

let distinct_rows t =
  if Array.length t.cert = 0 then begin
    t.cert <- cert_table t.live;
    t.cert_used <- 0;
    t.cert_repeats <- 0;
    let hashes = Array.make cert_chunk 17 in
    let from = ref 0 in
    while !from < t.n_rows do
      let len = min cert_chunk (t.n_rows - !from) in
      Array.fill hashes 0 len 17;
      Array.iter (fun col -> Column.fold_hashes col ~from:!from hashes ~len) t.cols;
      for i = 0 to len - 1 do
        if is_live t (!from + i) then cert_add t (Array.unsafe_get hashes i)
      done;
      from := !from + len
    done
  end;
  t.cert_repeats = 0

let create_index t col =
  let col = canonical_column t col in
  if not (Hashtbl.mem t.indexes col) then begin
    let pos = Schema.index_of t.schema col in
    let idx = Index.create ~column:pos in
    for row = 0 to t.n_rows - 1 do
      if is_live t row then Index.add idx (Column.get t.cols.(pos) row) row
    done;
    Hashtbl.add t.indexes col idx
  end

let has_index t col =
  match Schema.find_index t.schema col with
  | None -> false
  | Some i -> Hashtbl.mem t.indexes (Schema.column_name t.schema i)

let iter_ids t col value f =
  let col = canonical_column t col in
  match Hashtbl.find_opt t.indexes col with
  | None ->
      invalid_arg
        (Printf.sprintf "Table.lookup(%s): no index on column %S" t.name col)
  | Some idx ->
      Meter.bump_index_probes t.meter 1;
      let live = ref 0 in
      Index.iter idx value (fun row ->
          if is_live t row then begin
            incr live;
            f row
          end);
      Meter.bump_index_entries t.meter !live

let lookup t col value =
  let out = ref [] in
  iter_ids t col value (fun row -> out := materialize t row :: !out);
  List.rev !out

(* --- row-id access ------------------------------------------------------- *)

let cell t row c = Column.get t.cols.(c) row

let row_equal t row tuple =
  Array.length tuple = Array.length t.cols
  && Array.for_all2 (fun col v -> Value.equal (Column.get col row) v) t.cols tuple

let equal_rows t a b =
  a = b
  || Array.for_all
       (fun col -> Value.equal (Column.get col a) (Column.get col b))
       t.cols

let blit_row t row dst off =
  Array.iteri (fun c col -> dst.(off + c) <- Column.get col row) t.cols

let scan t f =
  for row = 0 to t.n_rows - 1 do
    if is_live t row then begin
      Meter.bump_seq_scanned t.meter 1;
      f row (materialize t row)
    end
  done

let to_list t =
  let out = ref [] in
  scan t (fun _ tuple -> out := tuple :: !out);
  List.rev !out

let to_list_unmetered t =
  let out = ref [] in
  for row = t.n_rows - 1 downto 0 do
    if is_live t row then out := materialize t row :: !out
  done;
  !out

(* --- batch access -------------------------------------------------------- *)

let batch_cursor ?(metered = true) ?sel t =
  let n_rows = t.n_rows in
  (* Columns only grow, so a cursor taken before concurrent-free appends
     still sees a consistent prefix; we pin the row count at creation. *)
  let base = ref 0 in
  let width = min Batch.capacity n_rows in
  let sel =
    match sel with
    | None -> Array.make width 0
    | Some sel when Array.length sel >= width -> sel
    | Some _ -> invalid_arg "Table.batch_cursor: selection vector too short"
  in
  fun () ->
    if !base >= n_rows then None
    else begin
      let b = !base in
      let len = min Batch.capacity (n_rows - b) in
      base := b + len;
      let n = ref 0 in
      for r = 0 to len - 1 do
        if is_live t (b + r) then begin
          Array.unsafe_set sel !n r;
          incr n
        end
      done;
      if metered then begin
        Meter.bump_seq_scanned t.meter !n;
        Meter.bump_batches t.meter 1
      end;
      Some (Batch.view ~schema:t.schema ~cols:t.cols ~base:b ~len ~sel ~n_sel:!n)
    end

let scan_batches ?metered ?sel t f =
  let next = batch_cursor ?metered ?sel t in
  let rec loop () =
    match next () with
    | None -> ()
    | Some b ->
        f b;
        loop ()
  in
  loop ()

let delete_tuple t tuple =
  (* Use the most selective index (most distinct keys); fall back to a
     scan when the table has none. *)
  let best_index =
    Hashtbl.fold
      (fun _ idx best ->
        match best with
        | Some b when Index.cardinality b >= Index.cardinality idx -> best
        | Some _ | None -> Some idx)
      t.indexes None
  in
  match best_index with
  | Some idx ->
      let v = Tuple.get tuple (Index.column idx) in
      Meter.bump_index_probes t.meter 1;
      Meter.bump_index_entries t.meter (Index.size idx v);
      let row = Index.find_first idx v (fun row -> is_live t row && row_equal t row tuple) in
      row >= 0 && delete_row t row
  | None -> (
      let victim = ref None in
      (try
         for row = 0 to t.n_rows - 1 do
           if is_live t row then begin
             Meter.bump_seq_scanned t.meter 1;
             if row_equal t row tuple then begin
               victim := Some row;
               raise Exit
             end
           end
         done
       with Exit -> ());
      match !victim with Some row -> delete_row t row | None -> false)

let copy ~meter t =
  let indexes = Hashtbl.copy t.indexes in
  Hashtbl.filter_map_inplace (fun _ idx -> Some (Index.copy idx)) indexes;
  {
    t with
    meter;
    cols = Array.map Column.copy t.cols;
    live_bits = Bytes.copy t.live_bits;
    indexes;
    cert = Array.copy t.cert;
  }

(* --- images -------------------------------------------------------------- *)

type image = { live_rows : int; live_mask : Bytes.t; columns : Column.image array }

let capture t =
  {
    live_rows = t.live;
    live_mask = Bytes.sub t.live_bits 0 ((t.n_rows + 7) lsr 3);
    columns = Array.map Column.capture t.cols;
  }

let image_rows img = img.live_rows

let encode_image img w =
  Array.iter (fun c -> Column.encode c ~live:img.live_mask w) img.columns

(* Bits [0 .. n - 1] set, the rest of the bitmap clear. *)
let dense_mask n =
  let bits = Bytes.make (max 8 ((n + 8) lsr 3)) '\000' in
  for row = 0 to n - 1 do
    Column.set_bit bits row
  done;
  bits

let decode_image schema ~rows rd =
  {
    live_rows = rows;
    live_mask = dense_mask rows;
    columns =
      Array.init (Schema.arity schema) (fun i ->
          Column.decode (Schema.column_type schema i) ~rows rd);
  }

let of_image ?meter ~name ~schema img =
  let t = create ?meter ~name ~schema () in
  if Array.length img.columns <> Schema.arity schema then
    invalid_arg "Table.of_image: image of another arity";
  let n = img.live_rows in
  {
    t with
    cols =
      Array.mapi
        (fun i c -> Column.of_image (Schema.column_type schema i) c ~live:img.live_mask)
        img.columns;
    live_bits = dense_mask n;
    n_rows = n;
    live = n;
  }
