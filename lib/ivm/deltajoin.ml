module Table = Relation.Table
module Value = Relation.Value
module Tuple = Relation.Tuple
module Meter = Relation.Meter
module Vhash = Hashtbl.Make (Relation.Value)

type batch = { delta : int; tuples : Tuple.t array; signs : int array }

let batch ~delta deltas =
  {
    delta;
    tuples = Array.of_list (List.map fst deltas);
    signs = Array.of_list (List.map snd deltas);
  }

let delta b = b.delta
let size b = Array.length b.tuples
let tuple b d = b.tuples.(d)
let sign b d = b.signs.(d)

(* [count] partials of [width] slots each, row-major in [ids]; the slots
   past [count * width] are spare capacity holding stale ids. *)
type partials = { mutable width : int; mutable ids : int array; mutable count : int }

let create_partials () = { width = 0; ids = [||]; count = 0 }

let count ps = ps.count
let id ps p j = ps.ids.((p * ps.width) + j)

(* Room for [n] partials, growing geometrically and keeping the first
   [count]. *)
let ensure ps n =
  let need = n * ps.width in
  if need > Array.length ps.ids then begin
    let ids = Array.make (max need (2 * Array.length ps.ids)) (-1) in
    Array.blit ps.ids 0 ids 0 (ps.count * ps.width);
    ps.ids <- ids
  end

(* A maintainer's working memory, reused by every batch: two partial
   buffers, one read and one written by each expansion step and swapped
   after it; a scan edge's join keys and key hashes; the batch's
   canonical delta indices; and the netting table. *)
type scratch = {
  mutable front : partials;
  mutable back : partials;
  mutable keys : Value.t array;  (* per partial, on a scan edge *)
  mutable ihash : Relation.Ihash.t;  (* a scan edge's int keys *)
  vhash : int Vhash.t;  (* a scan edge's other keys *)
  mutable key_peak : int;  (* most keys one scan edge hashed since [trim] *)
  mutable canon : int array;  (* per delta: the first delta with an equal tuple *)
  mutable slots : int array;  (* open-addressing table of item indices *)
  mutable hashes : int array;  (* per item *)
  mutable total : int array;  (* per item *)
}

let scratch () =
  {
    front = create_partials ();
    back = create_partials ();
    keys = [||];
    ihash = Relation.Ihash.create 16;
    vhash = Vhash.create 16;
    key_peak = 0;
    canon = [||];
    slots = [||];
    hashes = [||];
    total = [||];
  }

(* The most words one scratch array keeps between batches: 512 KiB, room
   for a few hundred partials' fan-out.  An array grown past it by a
   large batch (a calibration run's, up to 1,000 modifications) is
   dropped after that batch, as the per-batch buffers were, so a
   maintainer's scratch never holds many megabytes for the rest of its
   life.  A scan edge that hashed more than 16 Ki keys leaves its key
   hashes to be replaced with small ones. *)
let keep_words = 1 lsl 16

let trim s =
  let small a = Array.length a <= keep_words in
  List.iter
    (fun ps ->
      if not (small ps.ids) then begin
        ps.ids <- [||];
        ps.count <- 0
      end)
    [ s.front; s.back ];
  if not (small s.keys) then s.keys <- [||];
  if s.key_peak > keep_words / 4 then begin
    s.ihash <- Relation.Ihash.create 16;
    Vhash.reset s.vhash
  end;
  s.key_peak <- 0;
  if not (small s.canon) then s.canon <- [||];
  if not (small s.slots) then s.slots <- [||];
  if not (small s.hashes) then s.hashes <- [||];
  if not (small s.total) then s.total <- [||]

(* Append partial [p] of [src] with slot [j] bound to [v]. *)
let push_ext dst src p j v =
  ensure dst (dst.count + 1);
  let w = dst.width in
  let o = dst.count * w and from = p * w in
  let ids = dst.ids and src_ids = src.ids in
  for s = 0 to w - 1 do
    Array.unsafe_set ids (o + s) (Array.unsafe_get src_ids (from + s))
  done;
  ids.(o + j) <- v;
  dst.count <- dst.count + 1

let value tables b ps p j c =
  let r = id ps p j in
  if j = b.delta then b.tuples.(r).(c) else Table.cell tables.(j) r c

(* --- edge choice --------------------------------------------------------- *)

(* The next join edge: the first listed edge inside the scope with
   exactly one endpoint bound, normalized so [left] is the bound side. *)
let next_edge view ~scope bound =
  List.find_map
    (fun (e : Viewdef.join_edge) ->
      if not (scope.(e.left) && scope.(e.right)) then None
      else if bound.(e.left) && not bound.(e.right) then Some e
      else if bound.(e.right) && not bound.(e.left) then
        Some
          {
            Viewdef.left = e.right;
            left_col = e.right_col;
            right = e.left;
            right_col = e.left_col;
          }
      else None)
    (Viewdef.join_edges view)

(* --- expansion ----------------------------------------------------------- *)

let step view meter ~path s b ps out (e : Viewdef.join_edge) =
  let tables = Viewdef.tables view in
  let dst = tables.(e.right) in
  let src_pos =
    Relation.Schema.index_of (Table.schema tables.(e.left)) e.left_col
  in
  let key p = value tables b ps p e.left src_pos in
  if path = `Index && Table.has_index dst e.right_col then
    (* Indexed nested loop: one probe per partial. *)
    for p = 0 to ps.count - 1 do
      Table.iter_ids dst e.right_col (key p) (fun row -> push_ext out ps p e.right row)
    done
  else begin
    (* Shared scan: a hash over the partials' join keys, the partner
       scanned once in column batches.  NULL joins NULL here
       ([Value.equal Null Null]), as everywhere in the delta join. *)
    let dst_schema = Table.schema dst in
    let dst_pos = Relation.Schema.index_of dst_schema e.right_col in
    let n = ps.count in
    if Array.length s.keys < n then
      s.keys <- Array.make (max n (2 * Array.length s.keys)) Value.Null;
    let keys = s.keys in
    let int_key =
      ref (Relation.Schema.column_type dst_schema dst_pos = Relation.Datatype.TInt)
    in
    for p = 0 to n - 1 do
      let k = key p in
      keys.(p) <- k;
      match k with Value.Int _ | Value.Null -> () | _ -> int_key := false
    done;
    Meter.bump_hash_build meter n;
    s.key_peak <- max s.key_peak n;
    if !int_key then begin
      let h = s.ihash in
      Relation.Ihash.clear h;
      let nulls = ref [] in
      for p = 0 to n - 1 do
        match keys.(p) with
        | Value.Int k -> Relation.Ihash.add h k p
        | _ -> nulls := p :: !nulls
      done;
      let nulls = List.rev !nulls in
      Table.scan_batches dst (fun bt ->
          Meter.bump_hash_probe meter bt.Relation.Batch.n_sel;
          let col = bt.Relation.Batch.cols.(dst_pos) in
          let data = Relation.Column.int_data col in
          let valid = Relation.Column.validity col in
          let base = bt.Relation.Batch.base and sel = bt.Relation.Batch.sel in
          for i = 0 to bt.Relation.Batch.n_sel - 1 do
            let abs = base + Array.unsafe_get sel i in
            if Relation.Column.bit valid abs then begin
              let cell =
                ref (Relation.Ihash.first h (Bigarray.Array1.unsafe_get data abs))
              in
              while !cell >= 0 do
                push_ext out ps (Relation.Ihash.payload_of h !cell) e.right abs;
                cell := Relation.Ihash.next_cell h !cell
              done
            end
            else List.iter (fun p -> push_ext out ps p e.right abs) nulls
          done)
    end
    else begin
      let by_value = s.vhash in
      Vhash.clear by_value;
      for p = 0 to n - 1 do
        Vhash.add by_value keys.(p) p
      done;
      Table.scan_batches dst (fun bt ->
          Meter.bump_hash_probe meter bt.Relation.Batch.n_sel;
          Relation.Batch.iter_sel
            (fun r ->
              List.iter
                (fun p -> push_ext out ps p e.right (bt.Relation.Batch.base + r))
                (Vhash.find_all by_value (Relation.Batch.value bt dst_pos r)))
            bt)
    end
  end

let expand view meter ~path ~scope s b =
  let n = Viewdef.n_tables view in
  let ps = s.front and k = size b in
  ps.width <- n;
  ps.count <- 0;
  ensure ps k;
  Array.fill ps.ids 0 (k * n) (-1);
  for d = 0 to k - 1 do
    ps.ids.((d * n) + b.delta) <- d
  done;
  ps.count <- k;
  let bound = Array.make n false in
  bound.(b.delta) <- true;
  let rec go () =
    match next_edge view ~scope bound with
    | None -> s.front
    | Some e ->
        let out = s.back in
        out.width <- n;
        out.count <- 0;
        step view meter ~path s b s.front out e;
        s.back <- s.front;
        s.front <- out;
        bound.(e.right) <- true;
        go ()
  in
  go ()

(* --- reading partials back ----------------------------------------------- *)

type cells = (int * int * int) array

let cells view positions =
  let slot =
    Array.concat
      (Array.to_list
         (Array.mapi
            (fun j t ->
              Array.init (Relation.Schema.arity (Table.schema t)) (fun c -> (j, c)))
            (Viewdef.tables view)))
  in
  Array.of_list
    (List.map
       (fun pos ->
         let j, c = slot.(pos) in
         (pos, j, c))
       positions)

let cells_table cells =
  match Array.to_list cells with
  | [] -> -1
  | (_, j, _) :: rest -> if List.for_all (fun (_, j', _) -> j' = j) rest then j else -1

let fill view b ps p cells row =
  let tables = Viewdef.tables view in
  Array.iter (fun (pos, j, c) -> row.(pos) <- value tables b ps p j c) cells

(* --- netting ------------------------------------------------------------- *)

(* [a] if it holds [n] items, else a fresh array of at least [n] that
   doubles [a]. *)
let room a n fill =
  if Array.length a >= n then a else Array.make (max n (2 * Array.length a)) fill

(* An empty open-addressing table of [2 * count] slots or more, rounded
   to a power of two and sized for this call, whatever the capacity an
   earlier, larger batch left in the scratch; returns its mask. *)
let clear_slots s count =
  let cap = ref 16 in
  while !cap < 2 * count do
    cap := 2 * !cap
  done;
  if Array.length s.slots < !cap then s.slots <- Array.make !cap (-1)
  else Array.fill s.slots 0 !cap (-1);
  !cap - 1

(* Open addressing over item indices; [hashes] and [total] are written
   only at the first item of each value, so [total] is zero everywhere
   else. *)
let net s ~count ~keep ~hash ~equal ~sign f =
  let mask = clear_slots s count in
  s.hashes <- room s.hashes count 0;
  if Array.length s.total < count then s.total <- room s.total count 0
  else Array.fill s.total 0 count 0;
  let slots = s.slots and hashes = s.hashes and total = s.total in
  for i = 0 to count - 1 do
    if keep i then begin
      let h = hash i in
      let rec probe j =
        let f = Array.unsafe_get slots j in
        if f < 0 then begin
          slots.(j) <- i;
          hashes.(i) <- h;
          total.(i) <- sign i
        end
        else if hashes.(f) = h && equal f i then total.(f) <- total.(f) + sign i
        else probe ((j + 1) land mask)
      in
      probe ((h lxor (h lsr 17)) land mask)
    end
  done;
  for i = 0 to count - 1 do
    let t = total.(i) in
    if t <> 0 then f i t
  done

(* The batch's canonical delta indices into [s.canon], through the
   netting table (free until {!net} runs): [canon.(d)] is the first
   delta whose tuple equals delta [d]'s.  Whether every delta is its
   own canon, that is the batch repeats no tuple. *)
let canonize s b =
  let k = size b in
  let mask = clear_slots s k in
  s.hashes <- room s.hashes k 0;
  s.canon <- room s.canon k 0;
  let slots = s.slots and hashes = s.hashes and canon = s.canon in
  let identity = ref true in
  for d = 0 to k - 1 do
    let t = b.tuples.(d) in
    let h = Tuple.hash t in
    let rec probe j =
      let f = Array.unsafe_get slots j in
      if f < 0 then begin
        slots.(j) <- d;
        hashes.(d) <- h;
        canon.(d) <- d
      end
      else if hashes.(f) = h && Tuple.equal b.tuples.(f) t then begin
        canon.(d) <- f;
        identity := false
      end
      else probe ((j + 1) land mask)
    in
    probe ((h lxor (h lsr 17)) land mask)
  done;
  !identity

(* Every table but the batch's, by its distinct-row certificate, asked
   in table order and only until one says no. *)
let partners_distinct tables b =
  let rec from j =
    j = Array.length tables
    || ((j = b.delta || Table.distinct_rows tables.(j)) && from (j + 1))
  in
  from 0

(* When the batch repeats no tuple and no partner table holds two equal
   rows, two partials differ in some slot, so in the value of the row
   they stand for (a delta slot by its tuple, a partner slot by its
   row), and netting is the identity: each kept partial is its own net
   row, in expansion order, with its delta's sign.  Otherwise the
   partials net by value. *)
let net_partials view s b ps ~keep f =
  let tables = Viewdef.tables view in
  if canonize s b && partners_distinct tables b then
    for p = 0 to ps.count - 1 do
      if keep p then begin
        let sign = b.signs.(id ps p b.delta) in
        if sign <> 0 then f p sign
      end
    done
  else begin
    let n = ps.width and canon = s.canon in
    let hash p =
      let h = ref 17 in
      for j = 0 to n - 1 do
        let r = id ps p j in
        h :=
          (!h * 31)
          + if j = b.delta then Value.hash_int canon.(r) else Table.hash_row tables.(j) r
      done;
      !h
    in
    let equal p q =
      let rec slots j =
        j = n
        ||
        let a = id ps p j and c = id ps q j in
        (if j = b.delta then canon.(a) = canon.(c) else Table.equal_rows tables.(j) a c)
        && slots (j + 1)
      in
      slots 0
    in
    net s ~count:ps.count ~keep ~hash ~equal ~sign:(fun p -> b.signs.(id ps p b.delta)) f
  end
