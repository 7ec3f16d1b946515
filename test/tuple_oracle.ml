(* The per-tuple delta join, kept as the metering oracle for the row-id
   kernel (Ivm.Deltajoin).  A partial binds each reached table to a
   materialized tuple ([Tuple.t option array], copied on every bind);
   index edges materialize every partner row they return, scan edges
   every partner row that matches; first-order batches net full joined
   tuples after the filter; higher-order batches probe and maintain
   delta views whose maintenance expands the same way.

   An oracle maintainer runs on a twin of the maintained database (same
   tables, own meter) and keeps only what the meter depends on: the base
   tables and, under Higher_order, the delta views — not the view
   content, which the tests check against a recompute instead.  Like the
   maintainer it takes a batch's path from its queue: a routed lane's,
   or the view's scan set's for an unrouted table.  Like gen.ml this
   module is linked into every test binary. *)

open Relation

module Thash = Hashtbl.Make (Tuple)
module Vhash = Hashtbl.Make (Value)

type partial = { bindings : Tuple.t option array; sign : int }

let bind partial j tuple =
  let bindings = Array.copy partial.bindings in
  bindings.(j) <- Some tuple;
  { partial with bindings }

let next_edge view ~scope bound =
  List.find_map
    (fun (e : Ivm.Viewdef.join_edge) ->
      if not (scope.(e.left) && scope.(e.right)) then None
      else if bound.(e.left) && not bound.(e.right) then Some e
      else if bound.(e.right) && not bound.(e.left) then
        Some
          {
            Ivm.Viewdef.left = e.right;
            left_col = e.right_col;
            right = e.left;
            right_col = e.left_col;
          }
      else None)
    (Ivm.Viewdef.join_edges view)

let expand_step view meter ~path partials (e : Ivm.Viewdef.join_edge) =
  let tables = Ivm.Viewdef.tables view in
  let dst = tables.(e.right) in
  let src_pos = Schema.index_of (Table.schema tables.(e.left)) e.left_col in
  let bound_value p = Tuple.get (Option.get p.bindings.(e.left)) src_pos in
  if path = `Index && Table.has_index dst e.right_col then
    List.concat_map
      (fun p ->
        List.map (bind p e.right) (Table.lookup dst e.right_col (bound_value p)))
      partials
  else begin
    (* one boxed hash over the partials' keys, the partner scanned once;
       NULL joins NULL *)
    let dst_pos = Schema.index_of (Table.schema dst) e.right_col in
    let parr = Array.of_list partials in
    Meter.bump_hash_build meter (Array.length parr);
    let by_value = Vhash.create 16 in
    Array.iteri (fun j p -> Vhash.add by_value (bound_value p) j) parr;
    let out = ref [] in
    Table.scan_batches dst (fun b ->
        Meter.bump_hash_probe meter b.Batch.n_sel;
        Batch.iter_sel
          (fun r ->
            match Vhash.find_all by_value (Batch.value b dst_pos r) with
            | [] -> ()
            | js ->
                let rt = Batch.tuple b r in
                List.iter (fun j -> out := bind parr.(j) e.right rt :: !out) js)
          b);
    List.rev !out
  end

let expand_scoped view meter ~path ~scope ~delta deltas =
  let n = Ivm.Viewdef.n_tables view in
  let bound = Array.make n false in
  bound.(delta) <- true;
  let partials =
    List.map
      (fun (tuple, sign) ->
        let bindings = Array.make n None in
        bindings.(delta) <- Some tuple;
        { bindings; sign })
      deltas
  in
  let rec go partials =
    match next_edge view ~scope bound with
    | None -> partials
    | Some e ->
        let partials = expand_step view meter ~path partials e in
        bound.(e.right) <- true;
        go partials
  in
  go partials

let joined_tuple p = Array.concat (Array.to_list (Array.map Option.get p.bindings))

(* The number of distinct filtered joined rows whose signed counts do not
   cancel: what the maintainer applies, one output bump each. *)
let net_count filter rows =
  let net = Thash.create 64 in
  List.iter
    (fun (row, count) ->
      if match filter with Some pred -> pred row | None -> true then
        match Thash.find_opt net row with
        | Some cell -> cell := !cell + count
        | None -> Thash.add net row (ref count))
    rows;
  Thash.fold (fun _ c acc -> if !c <> 0 then acc + 1 else acc) net 0

(* --- delta views ------------------------------------------------------------ *)

type comp = {
  members : int array;
  member : bool array;
  owner_pos : int array;
  sub_pos : int array;
  offsets : int array;
  rows : int Thash.t Thash.t;  (* anchor key -> subtuple -> count *)
}

let components view owner =
  let n = Ivm.Viewdef.n_tables view in
  let id = Array.make n (-1) in
  let rec mark c i =
    if i <> owner && id.(i) < 0 then begin
      id.(i) <- c;
      List.iter
        (fun (e : Ivm.Viewdef.join_edge) ->
          if e.left = i then mark c e.right else if e.right = i then mark c e.left)
        (Ivm.Viewdef.join_edges view)
    end
  in
  let next = ref 0 in
  for i = 0 to n - 1 do
    if i <> owner && id.(i) < 0 then begin
      mark !next i;
      incr next
    end
  done;
  List.init !next (fun c ->
      Array.of_list (List.filter (fun i -> id.(i) = c) (List.init n Fun.id)))

let make_comp view owner members =
  let tables = Ivm.Viewdef.tables view in
  let n = Array.length tables in
  let member = Array.make n false in
  Array.iter (fun i -> member.(i) <- true) members;
  let offsets = Array.make n (-1) in
  let acc = ref 0 in
  Array.iter
    (fun i ->
      offsets.(i) <- !acc;
      acc := !acc + Schema.arity (Table.schema tables.(i)))
    members;
  let anchors =
    List.filter
      (fun (e : Ivm.Viewdef.join_edge) -> member.(e.right))
      (Ivm.Viewdef.edges_of_table view owner)
  in
  let pos i col = Schema.index_of (Table.schema tables.(i)) col in
  {
    members;
    member;
    owner_pos =
      Array.of_list
        (List.map (fun (e : Ivm.Viewdef.join_edge) -> pos owner e.left_col) anchors);
    sub_pos =
      Array.of_list
        (List.map
           (fun (e : Ivm.Viewdef.join_edge) -> offsets.(e.right) + pos e.right e.right_col)
           anchors);
    offsets;
    rows = Thash.create 64;
  }

let merge comp sub count =
  let key = Array.map (fun p -> sub.(p)) comp.sub_pos in
  let inner =
    match Thash.find_opt comp.rows key with
    | Some h -> h
    | None ->
        let h = Thash.create 4 in
        Thash.add comp.rows key h;
        h
  in
  let updated = count + Option.value (Thash.find_opt inner sub) ~default:0 in
  if updated = 0 then begin
    Thash.remove inner sub;
    if Thash.length inner = 0 then Thash.remove comp.rows key
  end
  else Thash.replace inner sub updated

let subtuple comp bindings =
  Array.concat (List.map (fun i -> Option.get bindings.(i)) (Array.to_list comp.members))

(* [contributions owner deltas]: one probe per delta per component, one
   entry per distinct matched subtuple, the cross product of the matches
   as full joined rows. *)
let contributions view meter comps owner deltas =
  let tables = Ivm.Viewdef.tables view in
  let n = Array.length tables in
  let out = ref [] in
  List.iter
    (fun (tuple, sign) ->
      let matches =
        List.map
          (fun comp ->
            Meter.bump_hash_probe meter 1;
            match Thash.find_opt comp.rows (Array.map (fun p -> tuple.(p)) comp.owner_pos) with
            | None -> (comp, [])
            | Some inner ->
                let l = Thash.fold (fun sub c acc -> (sub, c) :: acc) inner [] in
                Meter.bump_index_entries meter (List.length l);
                (comp, l))
          comps
      in
      let rec cross slices count = function
        | [] ->
            let parts = Array.make n [||] in
            parts.(owner) <- tuple;
            List.iter (fun (i, t) -> parts.(i) <- t) slices;
            out := (Array.concat (Array.to_list parts), count) :: !out
        | (comp, l) :: rest ->
            List.iter
              (fun (sub, c) ->
                let slices =
                  Array.fold_left
                    (fun acc i ->
                      let a = Schema.arity (Table.schema tables.(i)) in
                      (i, Array.sub sub comp.offsets.(i) a) :: acc)
                    slices comp.members
                in
                cross slices (count * c) rest)
              l
      in
      cross [] sign matches)
    deltas;
  !out

(* --- the oracle maintainer -------------------------------------------------- *)

type t = {
  view : Ivm.Viewdef.t;
  meter : Meter.t;
  filter : (Tuple.t -> bool) option;
  route : (int -> Ivm.Change.t -> [ `Index | `Scan ]) option;
  pending : Ivm.Change.t Queue.t array;  (* per table, or per lane if routed *)
  dv : comp list array option;  (* per owner; [Some] under Higher_order *)
}

let create ?route ~meter view =
  let n = Ivm.Viewdef.n_tables view in
  let dv =
    match Ivm.Viewdef.order view with
    | Ivm.Viewdef.First_order -> None
    | Ivm.Viewdef.Higher_order ->
        Some
          (Array.init n (fun owner ->
               List.map
                 (fun members ->
                   let comp = make_comp view owner members in
                   Ra.iter_batches (Ivm.Viewdef.scoped_plan view members)
                     (Batch.iter_tuples (fun sub -> merge comp sub 1));
                   comp)
                 (components view owner)))
  in
  {
    view;
    meter;
    filter =
      Option.map
        (Expr.compile_pred (Ivm.Viewdef.joined_schema view))
        (Ivm.Viewdef.filter view);
    route;
    pending =
      Array.init (if route = None then n else 2 * n) (fun _ -> Queue.create ());
    dv;
  }

(* A routed table [i] has lanes [2i] (index) and [2i + 1] (scan). *)
let on_arrive t i change =
  let q =
    match t.route with
    | None -> i
    | Some f -> (2 * i) + if f i change = `Index then 0 else 1
  in
  Queue.push change t.pending.(q)

(* The table a queue feeds and the path its batches run: its lane's on a
   routed oracle, the view's scan set's otherwise. *)
let queue_path t q =
  match t.route with
  | None -> (q, Ivm.Viewdef.path t.view q)
  | Some _ -> (q / 2, if q mod 2 = 0 then `Index else `Scan)

let apply_to_base table = function
  | Ivm.Change.Insert tuple -> ignore (Table.insert table tuple)
  | Ivm.Change.Delete tuple -> assert (Table.delete_tuple table tuple)
  | Ivm.Change.Update { before; after } ->
      assert (Table.delete_tuple table before);
      ignore (Table.insert table after)

(* Process the earliest [k] changes of queue [q]: the meter delta. *)
let process t q k =
  let before = Meter.snapshot t.meter in
  let i, path = queue_path t q in
  if k > 0 then begin
    let batch = List.init k (fun _ -> Queue.pop t.pending.(q)) in
    Meter.bump_batch_setup t.meter 1;
    let deltas = List.concat_map Ivm.Change.signed_tuples batch in
    let n = Ivm.Viewdef.n_tables t.view in
    (match t.dv with
    | None ->
        let full =
          expand_scoped t.view t.meter ~path ~scope:(Array.make n true) ~delta:i deltas
        in
        Meter.bump_output t.meter
          (net_count t.filter (List.map (fun p -> (joined_tuple p, p.sign)) full))
    | Some dv ->
        Meter.bump_output t.meter
          (net_count t.filter (contributions t.view t.meter dv.(i) i deltas));
        let memo = ref [] in
        Array.iteri
          (fun owner comps ->
            if owner <> i then
              List.iter
                (fun comp ->
                  if comp.member.(i) then begin
                    let partials =
                      match List.assoc_opt comp.member !memo with
                      | Some ps -> ps
                      | None ->
                          let ps =
                            expand_scoped t.view t.meter ~path ~scope:comp.member
                              ~delta:i deltas
                          in
                          memo := (comp.member, ps) :: !memo;
                          ps
                    in
                    List.iter
                      (fun p ->
                        Meter.bump_hash_build t.meter 1;
                        merge comp (subtuple comp p.bindings) p.sign)
                      partials
                  end)
                comps)
          dv);
    List.iter (apply_to_base (Ivm.Viewdef.tables t.view).(i)) batch
  end;
  Meter.diff (Meter.snapshot t.meter) before

(* The nested-map model the flat slot store of {!Ivm.Deltaview} is held
   to (test_ho): [i]'s delta-view contributions for a signed batch not
   yet processed, and the distinct subtuples all delta views hold. *)
let delta_contributions t i deltas =
  contributions t.view t.meter (Option.get t.dv).(i) i deltas

let delta_entries t =
  Array.fold_left
    (List.fold_left (fun acc comp ->
         Thash.fold (fun _ inner acc -> acc + Thash.length inner) comp.rows acc))
    0 (Option.get t.dv)
