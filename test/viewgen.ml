(* Seeded random views shared by the test executables: 2–4 tables over
   one five-column schema (int and string join keys, NULLs in every
   column, small value domains so rows repeat), a random spanning tree of
   join edges, zero to two filter conjuncts over one or two aliases, and
   a plain, projected or aggregated content, first- or higher-order,
   with a random set of scan tables.

   Like gen.ml this module is not listed in the (tests (names ...))
   stanza, so dune links it into every test binary.  [?meter] is shared
   by every generated table; without it each table meters privately. *)

open Relation

let pool = [| "ant"; "bee"; "cat"; "dog" |]

let base_schema =
  Schema.make
    [
      ("ik", Datatype.TInt);
      ("sk", Datatype.TString);
      ("x", Datatype.TInt);
      ("y", Datatype.TFloat);
      ("z", Datatype.TString);
    ]

let rand_row st =
  let int n = Random.State.int st n in
  let maybe v = if int 7 = 0 then Value.Null else v in
  [|
    maybe (Value.Int (int 5));
    maybe (Value.Str pool.(int 4));
    maybe (Value.Int (int 21 - 10));
    maybe
      (if Random.State.bool st then Value.Float (float_of_int (int 40) /. 4.0)
       else Value.Int (int 10));
    maybe (Value.Str pool.(int 4));
  |]

let pick st l = List.nth l (Random.State.int st (List.length l))

let rand_table ?meter st i =
  let t = Table.create ?meter ~name:(Printf.sprintf "t%d" i) ~schema:base_schema () in
  let n = if Random.State.int st 8 = 0 then 0 else Random.State.int st 40 in
  for _ = 1 to n do
    ignore (Table.insert t (rand_row st))
  done;
  if Random.State.bool st then Table.create_index t "ik";
  if Random.State.bool st then Table.create_index t "sk";
  t

(* A conjunct over one alias, or over two distinct aliases. *)
let rand_conjunct st aliases =
  let col a c = Expr.col (a ^ "." ^ c) in
  let a = pick st aliases in
  let one () =
    match Random.State.int st 6 with
    | 0 -> Expr.Gt (col a "x", Expr.int (Random.State.int st 9 - 4))
    | 1 -> Expr.Eq (col a "z", Expr.str pool.(Random.State.int st 4))
    | 2 -> Expr.Le (col a "y", Expr.float 5.0)
    | 3 -> Expr.Ne (col a "ik", Expr.int (Random.State.int st 5))
    | 4 -> Expr.Or (Expr.Lt (col a "x", Expr.int 0), Expr.Eq (col a "sk", Expr.str "ant"))
    | _ -> Expr.Not (Expr.Ge (col a "y", Expr.float 7.5))
  in
  match List.filter (fun b -> b <> a) aliases with
  | others when others <> [] && Random.State.int st 3 = 0 -> (
      let b = pick st others in
      match Random.State.int st 3 with
      | 0 -> Expr.Lt (col a "x", col b "x")
      | 1 -> Expr.Eq (col a "z", col b "z")
      | _ -> Expr.Ge (Expr.Add (col a "x", col b "ik"), Expr.int 2))
  | _ -> one ()

let rand_specs st aliases =
  let col c = pick st aliases ^ "." ^ c in
  let extra i =
    let as_name = Printf.sprintf "a%d" i in
    match Random.State.int st 7 with
    | 0 -> Agg.sum (col "x") ~as_name
    | 1 -> Agg.sum (col "y") ~as_name
    | 2 -> Agg.min_of (col (pick st [ "x"; "y"; "z" ])) ~as_name
    | 3 -> Agg.max_of (col (pick st [ "x"; "y"; "z" ])) ~as_name
    | 4 -> Agg.avg (col (pick st [ "x"; "y" ])) ~as_name
    | _ -> Agg.count as_name
  in
  let n = Random.State.int st 3 in
  let specs = List.init n (fun i -> extra (i + 1)) in
  if n = 0 || Random.State.bool st then Agg.count "a0" :: specs else specs

let shuffle st l =
  List.map snd
    (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))

let rand_view ?meter st =
  let n = 2 + Random.State.int st 3 in
  let tables = Array.init n (rand_table ?meter st) in
  let aliases = List.init n (Printf.sprintf "t%d") in
  let join =
    shuffle st
      (List.init (n - 1) (fun k ->
           let child = k + 1 and parent = Random.State.int st (k + 1) in
           let key = if Random.State.bool st then "ik" else "sk" in
           let left, right =
             if Random.State.bool st then (parent, child) else (child, parent)
           in
           { Ivm.Viewdef.left; left_col = key; right; right_col = key }))
  in
  let filter =
    match List.init (Random.State.int st 3) (fun _ -> rand_conjunct st aliases) with
    | [] -> None
    | c :: rest -> Some (List.fold_left (fun acc e -> Expr.And (acc, e)) c rest)
  in
  let all_cols =
    List.concat_map
      (fun a -> List.map (fun c -> a ^ "." ^ c) [ "ik"; "sk"; "x"; "y"; "z" ])
      aliases
  in
  let group_by, aggs, projection =
    match Random.State.int st 6 with
    | 0 | 1 -> ([], None, None)
    | 2 ->
        let keep = List.filter (fun _ -> Random.State.int st 3 = 0) all_cols in
        ([], None, Some (shuffle st (if keep = [] then [ List.hd all_cols ] else keep)))
    | 3 -> ([], Some (rand_specs st aliases), None)
    | _ ->
        let g = pick st aliases ^ "." ^ pick st [ "ik"; "sk"; "x"; "z" ] in
        ([ g ], Some (rand_specs st aliases), None)
  in
  let order =
    if Random.State.bool st then Ivm.Viewdef.First_order
    else Ivm.Viewdef.Higher_order
  in
  let scan_tables = List.filter (fun _ -> Random.State.bool st) (List.init n Fun.id) in
  Ivm.Viewdef.make ~name:"random" ~tables ~join ?filter ~group_by ?aggs
    ?projection ~scan_tables ~order ()

(* The same view over the same tables with another scan set. *)
let with_scan_tables v scan_tables =
  Ivm.Viewdef.make ~name:(Ivm.Viewdef.name v) ~tables:(Ivm.Viewdef.tables v)
    ~aliases:(Array.init (Ivm.Viewdef.n_tables v) (Ivm.Viewdef.alias v))
    ~join:(Ivm.Viewdef.join_edges v) ?filter:(Ivm.Viewdef.filter v)
    ~group_by:(Ivm.Viewdef.group_by v) ~aggs:(Ivm.Viewdef.aggs v)
    ?projection:(Ivm.Viewdef.projection v) ~scan_tables
    ~order:(Ivm.Viewdef.order v) ()
