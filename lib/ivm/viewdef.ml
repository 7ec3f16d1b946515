type join_edge = {
  left : int;
  left_col : string;
  right : int;
  right_col : string;
}

type order = First_order | Higher_order

let order_name = function
  | First_order -> "first-order"
  | Higher_order -> "higher-order"

let order_of_name = function
  | "first-order" -> Some First_order
  | "higher-order" -> Some Higher_order
  | _ -> None

type t = {
  name : string;
  tables : Relation.Table.t array;
  aliases : string array;
  join : join_edge list;
  filter : Relation.Expr.t option;
  group_by : string list;
  aggs : Relation.Agg.spec list;
  projection : string list option;
  scan_tables : int list;
  order : order;
  joined_schema : Relation.Schema.t;
}

(* The join graph must be a spanning tree: connected, and without an edge
   that closes a cycle.  The delta join expands each table through exactly
   one edge, so a cycle's closing equality (a parallel edge is a cycle of
   two) would go unchecked during maintenance while the recompute joins on
   it; it belongs in the filter.  Union-find over the edges in order names
   the first closing edge. *)
let check_tree n aliases join =
  let parent = Array.init n Fun.id in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  let closing =
    List.fold_left
      (fun closing e ->
        let a = find e.left and b = find e.right in
        if a = b then (if closing = None then Some e else closing)
        else begin
          parent.(a) <- b;
          closing
        end)
      None join
  in
  if n > 1 && Array.exists (fun i -> find i <> find 0) (Array.init n Fun.id)
  then invalid_arg "Viewdef.make: join graph is not connected";
  match closing with
  | None -> ()
  | Some e ->
      invalid_arg
        (Printf.sprintf
           "Viewdef.make: join edge %s.%s = %s.%s closes a cycle in the join \
            graph; express the extra equality as a filter conjunct"
           aliases.(e.left) e.left_col aliases.(e.right) e.right_col)

let make ~name ~tables ?aliases ~join ?filter ?group_by ?aggs ?projection
    ?(scan_tables = []) ?(order = First_order) () =
  let n = Array.length tables in
  if n = 0 then invalid_arg "Viewdef.make: no tables";
  let aliases =
    match aliases with
    | Some a ->
        if Array.length a <> n then
          invalid_arg "Viewdef.make: aliases length mismatch";
        a
    | None -> Array.map Relation.Table.name tables
  in
  List.iter
    (fun e ->
      if e.left < 0 || e.left >= n || e.right < 0 || e.right >= n then
        invalid_arg "Viewdef.make: join edge references unknown table";
      if e.left = e.right then
        invalid_arg "Viewdef.make: self-join edges are not supported";
      (* Column existence check (raises if unknown). *)
      ignore
        (Relation.Schema.index_of
           (Relation.Table.schema tables.(e.left))
           e.left_col);
      ignore
        (Relation.Schema.index_of
           (Relation.Table.schema tables.(e.right))
           e.right_col))
    join;
  check_tree n aliases join;
  let group_by = match group_by with Some g -> g | None -> [] in
  let aggs = match aggs with Some a -> a | None -> [] in
  if aggs = [] && group_by <> [] then
    invalid_arg "Viewdef.make: group_by without aggregates";
  if aggs <> [] && projection <> None then
    invalid_arg "Viewdef.make: aggregates and projection are exclusive";
  let joined_schema =
    Array.to_list tables
    |> List.mapi (fun i table ->
           Relation.Schema.qualify aliases.(i) (Relation.Table.schema table))
    |> List.fold_left
         (fun acc s ->
           match acc with
           | None -> Some s
           | Some a -> Some (Relation.Schema.concat a s))
         None
    |> Option.get
  in
  (* Validate column references against the joined schema. *)
  (match filter with
  | Some f ->
      List.iter
        (fun c -> ignore (Relation.Schema.index_of joined_schema c))
        (Relation.Expr.columns f)
  | None -> ());
  List.iter
    (fun c -> ignore (Relation.Schema.index_of joined_schema c))
    group_by;
  (match projection with
  | Some cols ->
      List.iter
        (fun c -> ignore (Relation.Schema.index_of joined_schema c))
        cols
  | None -> ());
  List.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg "Viewdef.make: scan table references unknown table")
    scan_tables;
  {
    name;
    tables;
    aliases;
    join;
    filter;
    group_by;
    aggs;
    projection;
    scan_tables;
    order;
    joined_schema;
  }

let name v = v.name
let tables v = v.tables
let n_tables v = Array.length v.tables
let alias v i = v.aliases.(i)
let join_edges v = v.join
let filter v = v.filter
let group_by v = v.group_by
let aggs v = v.aggs
let projection v = v.projection
let joined_schema v = v.joined_schema

let output_schema v =
  if v.aggs <> [] then begin
    let group_cols =
      List.map
        (fun name ->
          let i = Relation.Schema.index_of v.joined_schema name in
          ( Relation.Schema.column_name v.joined_schema i,
            Relation.Schema.column_type v.joined_schema i ))
        v.group_by
    in
    let agg_cols =
      List.map
        (fun (spec : Relation.Agg.spec) ->
          (spec.as_name, Relation.Agg.output_type v.joined_schema spec.func))
        v.aggs
    in
    Relation.Schema.make (group_cols @ agg_cols)
  end
  else
    match v.projection with
    | Some cols -> fst (Relation.Schema.project v.joined_schema cols)
    | None -> v.joined_schema

(* --- the recompute planner ---------------------------------------------- *)

let rec conjuncts = function
  | Relation.Expr.And (a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]

let conjoin = function
  | [] -> None
  | c :: rest ->
      Some (List.fold_left (fun acc e -> Relation.Expr.And (acc, e)) c rest)

(* [offsets.(i)]: table [i]'s first position in the joined schema;
   [offsets.(n)] is the joined arity. *)
let table_offsets v =
  let offsets = Array.make (Array.length v.tables + 1) 0 in
  Array.iteri
    (fun i t ->
      offsets.(i + 1) <-
        offsets.(i) + Relation.Schema.arity (Relation.Table.schema t))
    v.tables;
  offsets

(* The physical plan behind every from-scratch evaluation: the join of the
   [members] tables (ascending indices, connected in the join graph) under
   the [conds] conjuncts, carrying exactly the joined-schema positions
   [keep] in canonical (ascending) order.

   - A conjunct whose columns all belong to one member is pushed onto that
     member's scan; the rest form one [Select] above the joins.
   - Each scan is projected (zero-copy) to the columns something above it
     reads: join keys, the unpushed conjuncts and [keep].
   - Tables join greedily from the smallest member, taking the smallest
     connected table next; every join is a hash join on all the edges
     between the two sides, built on the side with fewer rows
     ([Table.row_count], the largest member standing for a joined side —
     a foreign-key join is no larger than its largest input). *)
let physical_plan ~caller v ~members ~conds ~keep =
  let module Ra = Relation.Ra in
  let module Schema = Relation.Schema in
  let n = Array.length v.tables in
  let offsets = table_offsets v in
  let owner pos =
    let rec find i = if pos < offsets.(i + 1) then i else find (i + 1) in
    find 0
  in
  let name pos = Schema.column_name v.joined_schema pos in
  let member = Array.make n false in
  List.iter (fun i -> member.(i) <- true) members;
  let owners c =
    List.sort_uniq compare
      (List.map
         (fun col -> owner (Schema.index_of v.joined_schema col))
         (Relation.Expr.columns c))
  in
  let pushed = Array.make n [] in
  let cross = ref [] in
  List.iter
    (fun c ->
      match owners c with
      | [ i ] -> pushed.(i) <- c :: pushed.(i)
      | _ -> cross := c :: !cross)
    conds;
  let cross = List.rev !cross in
  let edges =
    List.filter (fun e -> member.(e.left) && member.(e.right)) v.join
  in
  let needed = Array.make (Schema.arity v.joined_schema) false in
  List.iter (fun p -> needed.(p) <- true) keep;
  List.iter
    (fun c ->
      List.iter
        (fun col -> needed.(Schema.index_of v.joined_schema col) <- true)
        (Relation.Expr.columns c))
    cross;
  let key_name i col = v.aliases.(i) ^ "." ^ col in
  List.iter
    (fun e ->
      needed.(Schema.index_of v.joined_schema (key_name e.left e.left_col)) <- true;
      needed.(Schema.index_of v.joined_schema (key_name e.right e.right_col)) <- true)
    edges;
  let leaf i =
    let scan = Ra.scan ~alias:v.aliases.(i) v.tables.(i) in
    let filtered =
      match conjoin (List.rev pushed.(i)) with
      | Some f -> Ra.select f scan
      | None -> scan
    in
    let cols =
      List.filter (fun p -> needed.(p))
        (List.init (offsets.(i + 1) - offsets.(i)) (fun c -> offsets.(i) + c))
    in
    if List.length cols = offsets.(i + 1) - offsets.(i) then filtered
    else Ra.project (List.map name cols) filtered
  in
  let rows i = Relation.Table.row_count v.tables.(i) in
  let smallest candidates =
    List.fold_left
      (fun best i ->
        match best with
        | Some b when rows b <= rows i -> best
        | _ -> Some i)
      None candidates
  in
  let joined = Array.make n false in
  let start = Option.get (smallest members) in
  joined.(start) <- true;
  let rec grow plan est =
    let frontier =
      List.filter
        (fun i ->
          (not joined.(i))
          && List.exists
               (fun e ->
                 (e.left = i && joined.(e.right)) || (e.right = i && joined.(e.left)))
               edges)
        members
    in
    match smallest frontier with
    | None ->
        if List.exists (fun i -> not joined.(i)) members then
          invalid_arg ("Viewdef." ^ caller ^ ": no connecting edge");
        plan
    | Some i ->
        (* (joined side, new side) column pairs of every edge into [i] *)
        let on =
          List.filter_map
            (fun e ->
              if e.right = i && joined.(e.left) then
                Some (key_name e.left e.left_col, key_name i e.right_col)
              else if e.left = i && joined.(e.right) then
                Some (key_name e.right e.right_col, key_name i e.left_col)
              else None)
            edges
        in
        joined.(i) <- true;
        let plan =
          if rows i <= est then
            Ra.equijoin ~on plan (leaf i)
          else
            Ra.equijoin ~on:(List.map (fun (a, b) -> (b, a)) on) (leaf i) plan
        in
        grow plan (max est (rows i))
  in
  let tree = grow (leaf start) (rows start) in
  let filtered =
    match conjoin cross with Some f -> Ra.select f tree | None -> tree
  in
  Ra.project (List.map name (List.sort_uniq compare keep)) filtered

(* Joined-schema positions the view's content reads. *)
let content_positions v =
  let index = Relation.Schema.index_of v.joined_schema in
  if v.aggs <> [] then
    List.map index v.group_by
    @ List.filter_map
        (fun (spec : Relation.Agg.spec) ->
          match spec.func with
          | Relation.Agg.Count -> None
          | Relation.Agg.Sum c | Relation.Agg.Min c | Relation.Agg.Max c
          | Relation.Agg.Avg c ->
              Some (index c))
        v.aggs
  else
    match v.projection with
    | Some cols -> List.map index cols
    | None -> List.init (Relation.Schema.arity v.joined_schema) Fun.id

let joined_plan v =
  physical_plan ~caller:"joined_plan" v
    ~members:(List.init (Array.length v.tables) Fun.id)
    ~conds:(match v.filter with Some f -> conjuncts f | None -> [])
    ~keep:(content_positions v)

let scoped_plan v members =
  let offsets = table_offsets v in
  let members = Array.to_list members in
  physical_plan ~caller:"scoped_plan" v ~members ~conds:[]
    ~keep:
      (List.concat_map
         (fun i -> List.init (offsets.(i + 1) - offsets.(i)) (( + ) offsets.(i)))
         members)

let reference_plan v =
  let filtered = joined_plan v in
  if v.aggs <> [] then
    Relation.Ra.aggregate ~group_by:v.group_by v.aggs filtered
  else
    match v.projection with
    | Some cols -> Relation.Ra.project cols filtered
    | None -> filtered

let path v i = if List.mem i v.scan_tables then `Scan else `Index
let order v = v.order
let with_order v order = { v with order }

let with_tables v tables =
  if
    Array.length tables <> Array.length v.tables
    || not
         (Array.for_all2
            (fun a b ->
              Relation.Schema.equal (Relation.Table.schema a)
                (Relation.Table.schema b))
            tables v.tables)
  then invalid_arg "Viewdef.with_tables: schemas differ";
  { v with tables }

let edges_of_table v i =
  List.filter_map
    (fun e ->
      if e.left = i then Some e
      else if e.right = i then
        Some
          { left = i; left_col = e.right_col; right = e.left; right_col = e.left_col }
      else None)
    v.join
