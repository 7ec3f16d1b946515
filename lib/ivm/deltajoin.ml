module Table = Relation.Table
module Value = Relation.Value
module Tuple = Relation.Tuple
module Meter = Relation.Meter
module Thash = Hashtbl.Make (Relation.Tuple)
module Vhash = Hashtbl.Make (Relation.Value)

type batch = {
  delta : int;
  tuples : Tuple.t array;
  signs : int array;
  canon : int array Lazy.t;
      (** per delta: the index of the first delta with an equal tuple *)
}

let batch ~delta deltas =
  let tuples = Array.of_list (List.map fst deltas) in
  let canon =
    lazy
      (let first = Thash.create (max 16 (Array.length tuples)) in
       Array.mapi
         (fun d t ->
           match Thash.find_opt first t with
           | Some c -> c
           | None ->
               Thash.add first t d;
               d)
         tuples)
  in
  { delta; tuples; signs = Array.of_list (List.map snd deltas); canon }

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
   after it, and the netting table. *)
type scratch = {
  mutable front : partials;
  mutable back : partials;
  mutable slots : int array;  (* open-addressing table of item indices *)
  mutable hashes : int array;  (* per item *)
  mutable total : int array;  (* per item *)
}

let scratch () =
  {
    front = create_partials ();
    back = create_partials ();
    slots = [||];
    hashes = [||];
    total = [||];
  }

(* The most words one scratch array keeps between batches: 512 KiB, room
   for a few hundred partials' fan-out.  An array grown past it by a
   large batch (a calibration run's, up to 1,000 modifications) is
   dropped after that batch, as the per-batch buffers were, so a
   maintainer's scratch never holds many megabytes for the rest of its
   life. *)
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
  if not (small s.slots) then s.slots <- [||];
  if not (small s.total) then begin
    s.hashes <- [||];
    s.total <- [||]
  end

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

let step view meter ~path b ps out (e : Viewdef.join_edge) =
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
    let keys = Array.init ps.count key in
    Meter.bump_hash_build meter ps.count;
    let int_key =
      Relation.Schema.column_type dst_schema dst_pos = Relation.Datatype.TInt
      && Array.for_all
           (function Value.Int _ | Value.Null -> true | _ -> false)
           keys
    in
    if int_key then begin
      let h = Relation.Ihash.create (max 16 ps.count) in
      let nulls = ref [] in
      Array.iteri
        (fun p -> function
          | Value.Int k -> Relation.Ihash.add h k p
          | _ -> nulls := p :: !nulls)
        keys;
      let nulls = List.rev !nulls in
      Table.scan_batches dst (fun bt ->
          Meter.bump_hash_probe meter bt.Relation.Batch.n_sel;
          let col = bt.Relation.Batch.cols.(dst_pos) in
          let data = Relation.Column.int_data col in
          let valid = Relation.Column.validity col in
          let base = bt.Relation.Batch.base and sel = bt.Relation.Batch.sel in
          for s = 0 to bt.Relation.Batch.n_sel - 1 do
            let abs = base + Array.unsafe_get sel s in
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
      let by_value = Vhash.create (max 16 ps.count) in
      Array.iteri (fun p k -> Vhash.add by_value k p) keys;
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
        step view meter ~path b s.front out e;
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

(* Open addressing over item indices; [hashes] and [total] are written
   only at the first item of each value, so [total] is zero everywhere
   else.  The table is sized for this call ([cap]), whatever the capacity
   an earlier, larger batch left in the scratch. *)
let net s ~count ~keep ~hash ~equal ~sign f =
  let cap = ref 16 in
  while !cap < 2 * count do
    cap := 2 * !cap
  done;
  let mask = !cap - 1 in
  if Array.length s.slots < !cap then s.slots <- Array.make !cap (-1)
  else Array.fill s.slots 0 !cap (-1);
  if Array.length s.total < count then begin
    let n = max count (2 * Array.length s.total) in
    s.hashes <- Array.make n 0;
    s.total <- Array.make n 0
  end
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

let net_partials view s b ps ~keep f =
  let tables = Viewdef.tables view in
  let n = ps.width in
  let canon = Lazy.force b.canon in
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
