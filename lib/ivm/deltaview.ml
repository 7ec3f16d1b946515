module Thash = Hashtbl.Make (Relation.Tuple)

(* One maintained sub-join: the component's tables joined among
   themselves, keyed by the values the owner table joins against.  Rows
   are stored as the concatenation of each member table's tuple in
   ascending table order ("subtuples"), with multiplicity. *)
type comp = {
  members : int array;  (* ascending table indices *)
  member : bool array;  (* length n; the expansion scope *)
  anchor_owner_pos : int array;
      (* per anchor edge: join column's position in the owner schema *)
  anchor_sub_pos : int array;
      (* per anchor edge: join column's position in the subtuple *)
  offsets : int array;  (* per table: slice offset in the subtuple, -1 *)
  width : int;  (* subtuple arity *)
  rows : int Thash.t Thash.t;  (* anchor key -> subtuple -> count *)
}

type per_owner = { comps : comp array }

type t = {
  view : Viewdef.t;
  meter : Relation.Meter.t;
  owners : per_owner array;
  global_off : int array;  (* per table: slice offset in the joined row *)
  arities : int array;
  total_arity : int;
}

(* Connected components of the join graph with [owner] removed.  The view
   graph is connected, so every component touches [owner] through at least
   one anchor edge. *)
let components_of view owner =
  let n = Viewdef.n_tables view in
  let adj = Array.make n [] in
  List.iter
    (fun (e : Viewdef.join_edge) ->
      if e.left <> owner && e.right <> owner then begin
        adj.(e.left) <- e.right :: adj.(e.left);
        adj.(e.right) <- e.left :: adj.(e.right)
      end)
    (Viewdef.join_edges view);
  let comp_id = Array.make n (-1) in
  let next = ref 0 in
  for i = 0 to n - 1 do
    if i <> owner && comp_id.(i) < 0 then begin
      let id = !next in
      incr next;
      let rec dfs j =
        if comp_id.(j) < 0 then begin
          comp_id.(j) <- id;
          List.iter dfs adj.(j)
        end
      in
      dfs i
    end
  done;
  let members = Array.make !next [] in
  for i = n - 1 downto 0 do
    if i <> owner then members.(comp_id.(i)) <- i :: members.(comp_id.(i))
  done;
  (comp_id, Array.map Array.of_list members)

let make_comp view ~owner ~comp_id ~members =
  let n = Viewdef.n_tables view in
  let tables = Viewdef.tables view in
  let member = Array.make n false in
  Array.iter (fun i -> member.(i) <- true) members;
  let offsets = Array.make n (-1) in
  let acc = ref 0 in
  Array.iter
    (fun i ->
      offsets.(i) <- !acc;
      acc := !acc + Relation.Schema.arity (Relation.Table.schema tables.(i)))
    members;
  let id = comp_id.(members.(0)) in
  let anchors =
    List.filter
      (fun (e : Viewdef.join_edge) -> comp_id.(e.right) = id)
      (Viewdef.edges_of_table view owner)
  in
  let anchor_owner_pos =
    Array.of_list
      (List.map
         (fun (e : Viewdef.join_edge) ->
           Relation.Schema.index_of (Relation.Table.schema tables.(owner)) e.left_col)
         anchors)
  in
  let anchor_sub_pos =
    Array.of_list
      (List.map
         (fun (e : Viewdef.join_edge) ->
           offsets.(e.right)
           + Relation.Schema.index_of (Relation.Table.schema tables.(e.right)) e.right_col)
         anchors)
  in
  {
    members;
    member;
    anchor_owner_pos;
    anchor_sub_pos;
    offsets;
    width = !acc;
    rows = Thash.create 64;
  }

let key_of_owner comp tuple =
  Array.map (fun p -> Relation.Tuple.get tuple p) comp.anchor_owner_pos

let key_of_sub comp sub =
  Array.map (fun p -> Relation.Tuple.get sub p) comp.anchor_sub_pos

(* The subtuple a row-id partial binds over the component's members: the
   delta slot's tuple from the batch, every other member's row read from
   its table by id. *)
let subtuple t comp b ps p =
  let tables = Viewdef.tables t.view in
  let delta = Deltajoin.delta b in
  let out = Array.make comp.width Relation.Value.Null in
  Array.iter
    (fun i ->
      let r = Deltajoin.id ps p i in
      if i = delta then
        Array.blit (Deltajoin.tuple b r) 0 out comp.offsets.(i) t.arities.(i)
      else Relation.Table.blit_row tables.(i) r out comp.offsets.(i))
    comp.members;
  out

let merge comp key sub count =
  let inner =
    match Thash.find_opt comp.rows key with
    | Some h -> h
    | None ->
        let h = Thash.create 4 in
        Thash.add comp.rows key h;
        h
  in
  let current = match Thash.find_opt inner sub with Some c -> c | None -> 0 in
  let updated = current + count in
  if updated < 0 then
    invalid_arg "Deltaview: sub-join tuple multiplicity would go negative";
  if updated = 0 then begin
    Thash.remove inner sub;
    if Thash.length inner = 0 then Thash.remove comp.rows key
  end
  else Thash.replace inner sub updated

(* Every subtuple of one component over the current base tables: the
   component's sub-join from scratch ({!Viewdef.scoped_plan}), whose rows
   are exactly subtuples. *)
let iter_subtuples t comp f =
  Relation.Ra.iter_batches (Viewdef.scoped_plan t.view comp.members)
    (Relation.Batch.iter_tuples f)

(* Recompute one component's content from the current base tables. *)
let rebuild_comp t comp =
  Thash.reset comp.rows;
  iter_subtuples t comp (fun sub -> merge comp (key_of_sub comp sub) sub 1)

let create ~meter view =
  let n = Viewdef.n_tables view in
  let tables = Viewdef.tables view in
  let arities =
    Array.map (fun tbl -> Relation.Schema.arity (Relation.Table.schema tbl)) tables
  in
  let global_off = Array.make n 0 in
  let acc = ref 0 in
  for i = 0 to n - 1 do
    global_off.(i) <- !acc;
    acc := !acc + arities.(i)
  done;
  let owners =
    Array.init n (fun owner ->
        let comp_id, members = components_of view owner in
        {
          comps =
            Array.map (fun ms -> make_comp view ~owner ~comp_id ~members:ms) members;
        })
  in
  let t =
    { view; meter; owners; global_off; arities; total_arity = !acc }
  in
  Array.iter
    (fun po -> Array.iter (rebuild_comp t) po.comps)
    owners;
  t

(* Signed joined-row contributions of a batch from [owner]: per delta
   tuple, one hash probe per component (each matched entry is an
   index-like retrieval), then the cross product of the per-component
   matches assembled into full joined rows.  The multiplicity of a joined
   row is the delta's sign times the product of the matched sub-join
   multiplicities. *)
let contributions t owner deltas =
  let po = t.owners.(owner) in
  let nc = Array.length po.comps in
  let out = ref [] in
  List.iter
    (fun (tuple, sign) ->
      let matches =
        Array.map
          (fun comp ->
            Relation.Meter.bump_hash_probe t.meter 1;
            match Thash.find_opt comp.rows (key_of_owner comp tuple) with
            | None -> [||]
            | Some inner ->
                let l = Thash.fold (fun sub c acc -> (sub, c) :: acc) inner [] in
                Relation.Meter.bump_index_entries t.meter (List.length l);
                Array.of_list l)
          po.comps
      in
      if Array.for_all (fun a -> Array.length a > 0) matches then begin
        let row = Array.make t.total_arity Relation.Value.Null in
        Array.blit tuple 0 row t.global_off.(owner) t.arities.(owner);
        let rec cross ci count =
          if ci = nc then out := (Array.copy row, count) :: !out
          else
            Array.iter
              (fun (sub, c) ->
                Array.iter
                  (fun m ->
                    Array.blit sub po.comps.(ci).offsets.(m) row t.global_off.(m)
                      t.arities.(m))
                  po.comps.(ci).members;
                cross (ci + 1) (count * c))
              matches.(ci)
        in
        cross 0 sign
      end)
    deltas;
  List.rev !out

(* Second-order maintenance: a processed batch of [delta] updates, for
   every other owner, the one component that contains [delta] — by
   expanding the batch across that component's own edges (the other member
   tables are still at their pre-batch state) and merging the resulting
   subtuples.  Components are scope sets; owners sharing the same
   component reuse one expansion, merged into each of them before the next
   expansion reuses the scratch's buffers. *)
let update t ~scratch ~path b =
  let delta = Deltajoin.delta b in
  let fold comp ps =
    let subs = Array.init (Deltajoin.count ps) (subtuple t comp b ps) in
    Relation.Meter.bump_hash_build t.meter (Array.length subs);
    (* netted first: a shared scan emits a partner row's matches in any
       delta order, and a batch that inserts and later deletes one row
       must not merge the removal first *)
    Deltajoin.net scratch ~count:(Array.length subs)
      ~keep:(fun _ -> true)
      ~hash:(fun p -> Relation.Tuple.hash subs.(p))
      ~equal:(fun p q -> Relation.Tuple.equal subs.(p) subs.(q))
      ~sign:(fun p -> Deltajoin.sign b (Deltajoin.id ps p delta))
      (fun p count -> merge comp (key_of_sub comp subs.(p)) subs.(p) count)
  in
  let affected =
    List.concat
      (List.mapi
         (fun owner po ->
           if owner = delta then []
           else List.filter (fun comp -> comp.member.(delta)) (Array.to_list po.comps))
         (Array.to_list t.owners))
  in
  let rec by_scope = function
    | [] -> ()
    | comp :: _ as pending ->
        let same, rest =
          List.partition
            (fun c -> c.member == comp.member || c.member = comp.member)
            pending
        in
        let ps = Deltajoin.expand t.view t.meter ~path ~scope:comp.member scratch b in
        List.iter (fun c -> fold c ps) same;
        by_scope rest
  in
  by_scope affected

let entries t =
  Array.fold_left
    (fun acc po ->
      Array.fold_left
        (fun acc comp ->
          Thash.fold (fun _ inner acc -> acc + Thash.length inner) comp.rows acc)
        acc po.comps)
    0 t.owners

(* Compare every maintained component against a from-scratch recompute of
   the same sub-join over the current base tables.  The recompute is one
   flat [subtuple -> count] table: a subtuple determines its anchor key,
   so every maintained [(key, sub, c)] having [fresh[sub] = c] under
   [key = key_of_sub sub], with as many maintained entries as fresh ones,
   is the two-way nested comparison.  A maintained key never holds an
   empty inner table ([merge] drops it). *)
let check t =
  let errors = ref [] in
  Array.iteri
    (fun owner po ->
      Array.iteri
        (fun ci comp ->
          let maintained =
            Thash.fold (fun _ inner acc -> acc + Thash.length inner) comp.rows 0
          in
          let fresh = Thash.create (max 16 maintained) in
          iter_subtuples t comp (fun sub ->
              match Thash.find_opt fresh sub with
              | Some c -> Thash.replace fresh sub (c + 1)
              | None -> Thash.add fresh sub 1);
          let mismatch = ref (maintained <> Thash.length fresh) in
          Thash.iter
            (fun key inner ->
              if Thash.length inner = 0 then mismatch := true;
              Thash.iter
                (fun sub c ->
                  if
                    Thash.find_opt fresh sub <> Some c
                    || not (Relation.Tuple.equal key (key_of_sub comp sub))
                  then mismatch := true)
                inner)
            comp.rows;
          if !mismatch then
            errors :=
              Printf.sprintf
                "delta view d(%s)/d(%s): component %d diverged from recompute"
                (Viewdef.name t.view)
                (Relation.Table.name (Viewdef.tables t.view).(owner))
                ci
              :: !errors)
        po.comps)
    t.owners;
  match !errors with [] -> Ok () | e :: _ -> Error e

let copy ~meter ~view t =
  let copy_comp comp =
    let rows = Thash.copy comp.rows in
    Thash.filter_map_inplace (fun _ inner -> Some (Thash.copy inner)) rows;
    { comp with rows }
  in
  {
    t with
    view;
    meter;
    owners =
      Array.map (fun po -> { comps = Array.map copy_comp po.comps }) t.owners;
  }
