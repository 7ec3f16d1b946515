exception Unsupported of string

let fail fmt = Printf.ksprintf (fun msg -> raise (Unsupported msg)) fmt

type env = {
  tables : Relation.Table.t array;
  aliases : string array;
  by_alias : (string, int) Hashtbl.t;
}

let build_env ~catalog (from : Ast.table_ref list) =
  if from = [] then fail "FROM list is empty";
  let tables =
    Array.of_list
      (List.map
         (fun (r : Ast.table_ref) ->
           match catalog r.table with
           | Some t -> t
           | None -> fail "unknown table %S" r.table)
         from)
  in
  let aliases =
    Array.of_list
      (List.map
         (fun (r : Ast.table_ref) ->
           match r.alias with Some a -> a | None -> r.table)
         from)
  in
  let by_alias = Hashtbl.create 8 in
  Array.iteri
    (fun i alias ->
      if Hashtbl.mem by_alias alias then fail "duplicate table alias %S" alias;
      Hashtbl.add by_alias alias i)
    aliases;
  { tables; aliases; by_alias }

(* Resolve a column reference to (table index, unqualified column name). *)
let resolve env (c : Ast.colref) =
  match c.qualifier with
  | Some q -> (
      match Hashtbl.find_opt env.by_alias q with
      | None -> fail "unknown table alias %S in %s" q (Ast.colref_to_string c)
      | Some i ->
          if not (Relation.Schema.mem (Relation.Table.schema env.tables.(i)) c.column)
          then fail "table %S has no column %S" q c.column;
          (i, c.column))
  | None -> (
      let owners = ref [] in
      Array.iteri
        (fun i table ->
          if Relation.Schema.mem (Relation.Table.schema table) c.column then
            owners := i :: !owners)
        env.tables;
      match !owners with
      | [ i ] -> (i, c.column)
      | [] -> fail "unknown column %S" c.column
      | _ :: _ :: _ -> fail "ambiguous column %S (qualify it)" c.column)

let qualified env c =
  let i, col = resolve env c in
  env.aliases.(i) ^ "." ^ col

(* --- scalar translation ------------------------------------------------- *)

let rec to_expr env (s : Ast.scalar) : Relation.Expr.t =
  match s with
  | Ast.Lit_int n -> Relation.Expr.int n
  | Ast.Lit_float x -> Relation.Expr.float x
  | Ast.Lit_string str -> Relation.Expr.str str
  | Ast.Lit_bool b -> Relation.Expr.bool b
  | Ast.Col c -> Relation.Expr.col (qualified env c)
  | Ast.Unop_not inner -> Relation.Expr.Not (to_expr env inner)
  | Ast.Binop (op, a, b) -> (
      let ea = to_expr env a and eb = to_expr env b in
      match op with
      | Ast.Op_add -> Relation.Expr.Add (ea, eb)
      | Ast.Op_sub -> Relation.Expr.Sub (ea, eb)
      | Ast.Op_mul -> Relation.Expr.Mul (ea, eb)
      | Ast.Op_div -> Relation.Expr.Div (ea, eb)
      | Ast.Op_eq -> Relation.Expr.Eq (ea, eb)
      | Ast.Op_neq -> Relation.Expr.Ne (ea, eb)
      | Ast.Op_lt -> Relation.Expr.Lt (ea, eb)
      | Ast.Op_le -> Relation.Expr.Le (ea, eb)
      | Ast.Op_gt -> Relation.Expr.Gt (ea, eb)
      | Ast.Op_ge -> Relation.Expr.Ge (ea, eb)
      | Ast.Op_and -> Relation.Expr.And (ea, eb)
      | Ast.Op_or -> Relation.Expr.Or (ea, eb))

(* --- WHERE decomposition -------------------------------------------------- *)

let rec conjuncts (s : Ast.scalar) =
  match s with
  | Ast.Binop (Ast.Op_and, a, b) -> conjuncts a @ conjuncts b
  | _ -> [ s ]

let classify_conjunct env (s : Ast.scalar) =
  match s with
  | Ast.Binop (Ast.Op_eq, Ast.Col a, Ast.Col b) -> (
      let ia, ca = resolve env a and ib, cb = resolve env b in
      if ia <> ib then
        `Join { Ivm.Viewdef.left = ia; left_col = ca; right = ib; right_col = cb }
      else `Filter s)
  | _ -> `Filter s

(* --- SELECT decomposition -------------------------------------------------- *)

let agg_spec env kind (arg : Ast.colref option) alias =
  let arg_name () =
    match arg with
    | Some c -> qualified env c
    | None -> fail "aggregate requires a column argument"
  in
  let default_name prefix =
    match arg with
    | Some c -> prefix ^ "_" ^ c.Ast.column
    | None -> prefix
  in
  match kind with
  | Ast.Agg_count_star ->
      Relation.Agg.count (Option.value alias ~default:"count")
  | Ast.Agg_min ->
      Relation.Agg.min_of (arg_name ())
        ~as_name:(Option.value alias ~default:(default_name "min"))
  | Ast.Agg_max ->
      Relation.Agg.max_of (arg_name ())
        ~as_name:(Option.value alias ~default:(default_name "max"))
  | Ast.Agg_sum ->
      Relation.Agg.sum (arg_name ())
        ~as_name:(Option.value alias ~default:(default_name "sum"))
  | Ast.Agg_avg ->
      Relation.Agg.avg (arg_name ())
        ~as_name:(Option.value alias ~default:(default_name "avg"))

let view_of_query ~name ~catalog (q : Ast.query) =
  try
    let env = build_env ~catalog q.Ast.from in
    let join, filters =
      match q.Ast.where with
      | None -> ([], [])
      | Some w ->
          (* The join edges form a spanning forest: an equality between
             tables already connected by earlier edges (a second equality
             between one pair, or the last side of a triangle) becomes a
             filter conjunct, since Viewdef rejects cycle-closing edges. *)
          let parent = Array.init (Array.length env.tables) Fun.id in
          let rec find i = if parent.(i) = i then i else find parent.(i) in
          List.fold_left
            (fun (joins, filters) conjunct ->
              match classify_conjunct env conjunct with
              | `Join edge ->
                  let a = find edge.Ivm.Viewdef.left
                  and b = find edge.Ivm.Viewdef.right in
                  if a = b then (joins, filters @ [ conjunct ])
                  else begin
                    parent.(a) <- b;
                    (joins @ [ edge ], filters)
                  end
              | `Filter f -> (joins, filters @ [ f ]))
            ([], []) (conjuncts w)
    in
    let filter =
      match filters with
      | [] -> None
      | first :: rest ->
          Some
            (List.fold_left
               (fun acc f -> Relation.Expr.And (acc, to_expr env f))
               (to_expr env first) rest)
    in
    let group_by = List.map (qualified env) q.Ast.group_by in
    let has_agg =
      List.exists
        (function Ast.Sel_agg _ -> true | Ast.Sel_col _ | Ast.Sel_star -> false)
        q.Ast.select
    in
    let aggs, projection =
      if has_agg then begin
        let aggs =
          List.filter_map
            (function
              | Ast.Sel_agg (kind, arg, alias) ->
                  Some (agg_spec env kind arg alias)
              | Ast.Sel_col (c, _) ->
                  let qc = qualified env c in
                  if not (List.mem qc group_by) then
                    fail
                      "non-aggregate select item %s must appear in GROUP BY"
                      (Ast.colref_to_string c);
                  None
              | Ast.Sel_star -> fail "SELECT * cannot be mixed with aggregates")
            q.Ast.select
        in
        (Some aggs, None)
      end
      else if q.Ast.group_by <> [] then fail "GROUP BY without aggregates"
      else
        match q.Ast.select with
        | [ Ast.Sel_star ] -> (None, None)
        | items ->
            let cols =
              List.map
                (function
                  | Ast.Sel_col (c, None) -> qualified env c
                  | Ast.Sel_col (_, Some _) ->
                      fail "column aliases in projections are not supported"
                  | Ast.Sel_star -> fail "SELECT * cannot be mixed with columns"
                  | Ast.Sel_agg _ -> assert false)
                items
            in
            (None, Some cols)
    in
    let group_by = if group_by = [] then None else Some group_by in
    Ok
      (Ivm.Viewdef.make ~name ~tables:env.tables ~aliases:env.aliases ~join
         ?filter ?group_by ?aggs ?projection ())
  with
  | Unsupported msg -> Error msg
  | Invalid_argument msg -> Error msg

let view_of_sql ~name ~catalog text =
  match Parser.parse text with
  | Error msg -> Error msg
  | Ok q -> view_of_query ~name ~catalog q
