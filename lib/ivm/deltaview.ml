module Value = Relation.Value
module Tuple = Relation.Tuple

(* One maintained sub-join: the component's tables joined among
   themselves, keyed by the values the owner table joins against.  Rows
   ("subtuples": each member table's tuple, in ascending table order) sit
   in flat slots with their multiplicity, 0 when dead.  [index] and
   [heads] are open-addressed over slot numbers (-1 empty, at most half
   full). *)
type comp = {
  members : int array;  (* ascending table indices *)
  member : bool array;  (* length n; the expansion scope *)
  anchor_owner_pos : int array;
      (* per anchor edge: join column's position in the owner schema *)
  anchor_sub_pos : int array;
      (* per anchor edge: join column's position in the subtuple *)
  offsets : int array;  (* per table: slice offset in the subtuple, -1 *)
  width : int;  (* subtuple arity *)
  all_pos : int array;  (* 0 .. width - 1 *)
  mutable subs : Tuple.t array;
  mutable counts : int array;
  mutable next : int array;  (* per slot: the next older slot of its key, -1 *)
  mutable used : int;
  mutable live : int;  (* slots with a positive count *)
  mutable keys : int;  (* anchor keys with a chain *)
  mutable index : int array;  (* subtuple -> its slot *)
  mutable heads : int array;  (* anchor key -> its newest slot *)
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
  let comp_id = Array.make n (-1) in
  let rec mark id i =
    if i <> owner && comp_id.(i) < 0 then begin
      comp_id.(i) <- id;
      List.iter
        (fun (e : Viewdef.join_edge) ->
          if e.left = i then mark id e.right else if e.right = i then mark id e.left)
        (Viewdef.join_edges view)
    end
  in
  let count = ref 0 in
  for i = 0 to n - 1 do
    if i <> owner && comp_id.(i) < 0 then begin
      mark !count i;
      incr count
    end
  done;
  let members id = List.filter (fun i -> comp_id.(i) = id) (List.init n Fun.id) in
  (comp_id, Array.init !count (fun id -> Array.of_list (members id)))

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
  let pos i col = Relation.Schema.index_of (Relation.Table.schema tables.(i)) col in
  let anchor f = Array.of_list (List.map f anchors) in
  {
    members;
    member;
    anchor_owner_pos = anchor (fun (e : Viewdef.join_edge) -> pos owner e.left_col);
    anchor_sub_pos =
      anchor (fun (e : Viewdef.join_edge) -> offsets.(e.right) + pos e.right e.right_col);
    offsets;
    width = !acc;
    all_pos = Array.init !acc Fun.id;
    subs = Array.make 16 [||];
    counts = Array.make 16 0;
    next = Array.make 16 (-1);
    used = 0;
    live = 0;
    keys = 0;
    index = Array.make 32 (-1);
    heads = Array.make 32 (-1);
  }

(* [Tuple.hash] of the values [row] holds at [pos]. *)
let key_hash row pos = Array.fold_left (fun h p -> (h * 31) + Value.hash row.(p)) 17 pos

let rec same_key tuple pos sub spos i =
  i < 0
  || (Value.equal tuple.(pos.(i)) sub.(spos.(i)) && same_key tuple pos sub spos (i - 1))

(* The position in [table] of the slot whose subtuple holds at [spos] what
   [tuple] holds at [pos], or of the empty cell where it belongs. *)
let rec probe comp table tuple pos spos i =
  let s = Array.unsafe_get table i in
  if s < 0 || same_key tuple pos comp.subs.(s) spos (Array.length pos - 1) then i
  else probe comp table tuple pos spos ((i + 1) land (Array.length table - 1))

let position comp table tuple pos spos =
  let h = key_hash tuple pos in
  probe comp table tuple pos spos ((h lxor (h lsr 17)) land (Array.length table - 1))

let find comp sub = position comp comp.index sub comp.all_pos comp.all_pos

(* The [heads] position of the anchor key [tuple] holds at [pos]. *)
let chain comp tuple pos = position comp comp.heads tuple pos comp.anchor_sub_pos

(* [table] doubled, its slots placed afresh by the values at [spos]. *)
let regrow comp table spos =
  let grown = Array.make (2 * Array.length table) (-1) in
  Array.iter
    (fun s -> if s >= 0 then grown.(position comp grown comp.subs.(s) spos spos) <- s)
    table;
  grown

let rec walk comp f s = if s >= 0 then (f s; walk comp f comp.next.(s))

(* A new live slot for [sub] (index position [i]), at the head of its
   anchor key's chain. *)
let append comp i sub count =
  let n = Array.length comp.subs in
  if comp.used = n then begin
    comp.subs <- Array.append comp.subs (Array.make n [||]);
    comp.counts <- Array.append comp.counts (Array.make n 0);
    comp.next <- Array.append comp.next (Array.make n (-1))
  end;
  let s = comp.used in
  comp.subs.(s) <- sub;
  comp.counts.(s) <- count;
  comp.used <- s + 1;
  comp.live <- comp.live + 1;
  comp.index.(i) <- s;
  if 2 * comp.used > Array.length comp.index then
    comp.index <- regrow comp comp.index comp.all_pos;
  let k = chain comp sub comp.anchor_sub_pos in
  if comp.heads.(k) < 0 then comp.keys <- comp.keys + 1;
  comp.next.(s) <- comp.heads.(k);
  comp.heads.(k) <- s;
  if 2 * comp.keys > Array.length comp.heads then
    comp.heads <- regrow comp comp.heads comp.anchor_sub_pos

(* Drop the dead slots: the live ones are appended afresh, in order. *)
let compact comp =
  let live = List.filter (fun s -> comp.counts.(s) > 0) (List.init comp.used Fun.id) in
  let slots = List.map (fun s -> (comp.subs.(s), comp.counts.(s))) live in
  Array.fill comp.subs 0 comp.used [||];
  Array.fill comp.index 0 (Array.length comp.index) (-1);
  Array.fill comp.heads 0 (Array.length comp.heads) (-1);
  comp.used <- 0;
  comp.live <- 0;
  comp.keys <- 0;
  List.iter (fun (sub, c) -> append comp (find comp sub) sub c) slots

(* The subtuple a row-id partial binds over the component's members: the
   delta slot's tuple from the batch, every other member's row read from
   its table by id. *)
let subtuple t comp b ps p =
  let tables = Viewdef.tables t.view in
  let delta = Deltajoin.delta b in
  let out = Array.make comp.width Value.Null in
  Array.iter
    (fun i ->
      let r = Deltajoin.id ps p i in
      if i = delta then
        Array.blit (Deltajoin.tuple b r) 0 out comp.offsets.(i) t.arities.(i)
      else Relation.Table.blit_row tables.(i) r out comp.offsets.(i))
    comp.members;
  out

(* Add [count] to [sub]'s multiplicity.  A dead slot is revived in
   place; once dead slots outnumber live ones, the store is compacted. *)
let merge comp sub count =
  let i = find comp sub in
  let s = comp.index.(i) in
  let current = if s < 0 then 0 else comp.counts.(s) in
  if current + count < 0 then
    invalid_arg "Deltaview: sub-join tuple multiplicity would go negative";
  if s < 0 then (if count > 0 then append comp i sub count)
  else begin
    comp.counts.(s) <- current + count;
    if current = 0 && count > 0 then comp.live <- comp.live + 1
    else if current > 0 && current + count = 0 then begin
      comp.live <- comp.live - 1;
      if comp.used > 2 * comp.live then compact comp
    end
  end

(* Every subtuple of one component over the current base tables: the
   component's sub-join from scratch ({!Viewdef.scoped_plan}), whose rows
   are exactly subtuples. *)
let iter_subtuples t comp f =
  Relation.Ra.iter_batches (Viewdef.scoped_plan t.view comp.members)
    (Relation.Batch.iter_tuples f)

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
  let fill comp = iter_subtuples t comp (fun sub -> merge comp sub 1) in
  Array.iter (fun po -> Array.iter fill po.comps) owners;
  t

(* The live slots of [tuple]'s anchor key. *)
let live_matches comp tuple =
  let found = ref [] in
  walk comp
    (fun s -> if comp.counts.(s) > 0 then found := s :: !found)
    comp.heads.(chain comp tuple comp.anchor_owner_pos);
  !found

(* Signed joined-row contributions of a batch from [owner]: per delta
   tuple, one chain walk per component (a hash probe; each matched entry
   is an index-like retrieval), then the cross product of the
   per-component matches assembled into full joined rows.  The
   multiplicity of a joined row is the delta's sign times the product of
   the matched sub-join multiplicities. *)
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
            let slots = live_matches comp tuple in
            Relation.Meter.bump_index_entries t.meter (List.length slots);
            slots)
          po.comps
      in
      if Array.for_all (fun slots -> slots <> []) matches then begin
        let row = Array.make t.total_arity Value.Null in
        Array.blit tuple 0 row t.global_off.(owner) t.arities.(owner);
        let rec cross ci count =
          if ci = nc then out := (Array.copy row, count) :: !out
          else
            let comp = po.comps.(ci) in
            List.iter
              (fun s ->
                Array.iter
                  (fun m ->
                    Array.blit comp.subs.(s) comp.offsets.(m) row t.global_off.(m)
                      t.arities.(m))
                  comp.members;
                cross (ci + 1) (count * comp.counts.(s)))
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
      ~hash:(fun p -> Tuple.hash subs.(p))
      ~equal:(fun p q -> Tuple.equal subs.(p) subs.(q))
      ~sign:(fun p -> Deltajoin.sign b (Deltajoin.id ps p delta))
      (fun p count -> merge comp subs.(p) count)
  in
  let affected =
    List.concat_map
      (fun po -> List.filter (fun comp -> comp.member.(delta)) (Array.to_list po.comps))
      (Array.to_list t.owners)
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
    (fun acc po -> Array.fold_left (fun acc comp -> acc + comp.live) acc po.comps)
    0 t.owners

(* Where [comp] differs from a recompute of its sub-join, at the first
   differing subtuple.  Each rebuilt row probes the store once and counts
   a hit on its slot; a row with no slot is a miss, reported first.  Then
   every slot's hits must equal its count (a dead slot's 0), and every
   live slot must sit once on its anchor key's chain: with the hits reset,
   each chain is walked once, counting the slots holding its key. *)
let divergence t comp =
  let hits = Array.make comp.used 0 and miss = ref None in
  iter_subtuples t comp (fun sub ->
      let s = comp.index.(find comp sub) in
      if s >= 0 then hits.(s) <- hits.(s) + 1
      else
        match !miss with
        | None -> miss := Some (sub, 1)
        | Some (m, n) -> if Tuple.equal m sub then miss := Some (m, n + 1));
  let rec first p s =
    if s = comp.used then None else if p s then Some s else first p (s + 1)
  in
  let report sub m r =
    Printf.sprintf "%s: maintained %d, rebuilt %d" (Tuple.to_string sub) m r
  in
  let pos = comp.anchor_sub_pos in
  let off_chain s =
    (if comp.counts.(s) > 0 && hits.(s) = 0 then
       let sub = comp.subs.(s) and last = Array.length pos - 1 in
       walk comp
         (fun p ->
           if same_key sub pos comp.subs.(p) pos last then hits.(p) <- hits.(p) + 1)
         comp.heads.(chain comp sub pos));
    comp.counts.(s) > 0 && hits.(s) <> 1
  in
  match (!miss, first (fun s -> hits.(s) <> comp.counts.(s)) 0) with
  | Some (sub, n), _ -> Some (report sub 0 n)
  | None, Some s -> Some (report comp.subs.(s) comp.counts.(s) hits.(s))
  | None, None ->
      Array.fill hits 0 comp.used 0;
      Option.map
        (fun s ->
          Printf.sprintf "%s, on its anchor key's chain %d times"
            (report comp.subs.(s) comp.counts.(s) comp.counts.(s))
            hits.(s))
        (first off_chain 0)

let check t =
  let reports = ref [] in
  Array.iteri
    (fun owner po ->
      Array.iteri
        (fun ci comp ->
          Option.iter
            (fun at ->
              reports :=
                Printf.sprintf
                  "delta view d(%s)/d(%s): component %d diverged from recompute at %s"
                  (Viewdef.name t.view)
                  (Relation.Table.name (Viewdef.tables t.view).(owner))
                  ci at
                :: !reports)
            (divergence t comp))
        po.comps)
    t.owners;
  if !reports = [] then Ok () else Error (String.concat "; " (List.rev !reports))

let copy ~meter ~view t =
  let copy_comp comp =
    {
      comp with
      subs = Array.copy comp.subs;
      counts = Array.copy comp.counts;
      next = Array.copy comp.next;
      index = Array.copy comp.index;
      heads = Array.copy comp.heads;
    }
  in
  {
    t with
    view;
    meter;
    owners =
      Array.map (fun po -> { comps = Array.map copy_comp po.comps }) t.owners;
  }
