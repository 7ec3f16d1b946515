(* The from-scratch recompute path: Maintainer.create and the delta-view
   rebuilds fold the batches of Viewdef's planned joins (filter conjuncts
   pushed onto scans, scans pruned to the columns read above them, hash
   joins built on the smaller side).  Their content must be bit-identical
   to folding the row-at-a-time evaluation of the plain plan — a
   left-deep tree in breadth-first order with Auto joins, the canonical
   joined schema and the whole filter on top — through the same content
   code; the plans must have the documented shape; and the consistency
   checks must notice a base table changed behind the maintainer's
   back. *)

open Relation

let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* --- the reference --------------------------------------------------------- *)

let unplanned_join v =
  let tables = Ivm.Viewdef.tables v in
  let alias = Ivm.Viewdef.alias v in
  let added = Array.make (Array.length tables) false in
  added.(0) <- true;
  let rec grow plan remaining =
    if remaining = 0 then plan
    else begin
      let e =
        List.find
          (fun (e : Ivm.Viewdef.join_edge) -> added.(e.left) <> added.(e.right))
          (Ivm.Viewdef.join_edges v)
      in
      let fresh, fresh_col, old, old_col =
        if added.(e.left) then (e.right, e.right_col, e.left, e.left_col)
        else (e.left, e.left_col, e.right, e.right_col)
      in
      added.(fresh) <- true;
      grow
        (Ra.equijoin
           ~on:[ (alias old ^ "." ^ old_col, alias fresh ^ "." ^ fresh_col) ]
           plan
           (Ra.scan ~alias:(alias fresh) tables.(fresh)))
        (remaining - 1)
    end
  in
  let tree =
    grow (Ra.scan ~alias:(alias 0) tables.(0)) (Array.length tables - 1)
  in
  let canonical =
    Array.to_list
      (Array.map
         (fun (c : Schema.column) -> c.name)
         (Schema.columns (Ivm.Viewdef.joined_schema v)))
  in
  let joined = Ra.project canonical tree in
  match Ivm.Viewdef.filter v with
  | Some f -> Ra.select f joined
  | None -> joined

(* [Ra.eval_boxed] of the plain plan, folded through [Groups] or counted
   into the sorted projected bag, as the maintainer's content does. *)
let reference_rows v =
  let rows = Ra.eval_boxed (unplanned_join v) in
  let schema = Ivm.Viewdef.joined_schema v in
  if Ivm.Viewdef.aggs v <> [] then begin
    let g =
      Ivm.Groups.create ~schema ~group_by:(Ivm.Viewdef.group_by v)
        ~specs:(Ivm.Viewdef.aggs v)
    in
    List.iter (fun r -> Ivm.Groups.apply g r 1) rows;
    Ivm.Groups.rows g
  end
  else
    let positions =
      match Ivm.Viewdef.projection v with
      | Some cols -> snd (Schema.project schema cols)
      | None -> Array.init (Schema.arity schema) Fun.id
    in
    List.sort Tuple.compare (List.map (fun r -> Tuple.project r positions) rows)

let same_rows a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> Tuple.compare x y = 0) a b

(* --- random views ------------------------------------------------------------ *)

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

let rand_table st i =
  let t = Table.create ~name:(Printf.sprintf "t%d" i) ~schema:base_schema () in
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

let rand_view st =
  let n = 2 + Random.State.int st 3 in
  let tables = Array.init n (rand_table st) in
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
  let join_order =
    if Random.State.bool st then Ivm.Viewdef.Fixed else Ivm.Viewdef.Adaptive
  in
  Ivm.Viewdef.make ~name:"random" ~tables ~join ?filter ~group_by ?aggs
    ?projection ~join_order ~order ()

(* Random signed batches against random tables, processed at once. *)
let churn st m =
  let v = Ivm.Maintainer.view m in
  let tables = Ivm.Viewdef.tables v in
  for _ = 1 to 6 do
    let i = Random.State.int st (Array.length tables) in
    let live = shuffle st (Table.to_list_unmetered tables.(i)) in
    let deletes = List.filteri (fun k _ -> k < Random.State.int st 3) live in
    let changes =
      List.map (fun t -> Ivm.Change.Delete t) deletes
      @ List.init (Random.State.int st 4) (fun _ -> Ivm.Change.Insert (rand_row st))
    in
    List.iter (Ivm.Maintainer.on_arrive m i) (shuffle st changes);
    ignore (Ivm.Maintainer.process m i (List.length changes))
  done

let describe v =
  Printf.sprintf "%s view over %d tables\n%s"
    (Ivm.Viewdef.order_name (Ivm.Viewdef.order v))
    (Ivm.Viewdef.n_tables v)
    (Ra.explain (Ivm.Viewdef.reference_plan v))

let test_random_views () =
  let st = Random.State.make [| 0x5EED; 18 |] in
  for case = 1 to 160 do
    let v = rand_view st in
    let desc = describe v in
    let label what = Printf.sprintf "case %d %s: %s" case what desc in
    let m = Ivm.Maintainer.create v in
    checkb (label "create = boxed plain plan") true
      (same_rows (Ivm.Maintainer.rows m) (reference_rows v));
    (match Ivm.Maintainer.delta_view m with
    | Some dv -> checkb (label "delta views rebuilt") true (Ivm.Deltaview.check dv = Ok ())
    | None -> ());
    checkb (label "consistent") true (Ivm.Maintainer.check_consistent m = Ok ());
    churn st m;
    checkb (label "maintained = boxed plain plan") true
      (same_rows (Ivm.Maintainer.rows m) (reference_rows v));
    checkb (label "consistent after churn") true
      (Ivm.Maintainer.check_consistent m = Ok ())
  done

(* --- plan shape ---------------------------------------------------------------- *)

let chain () =
  let mk name rows =
    let t =
      Table.create ~name
        ~schema:(Schema.make [ ("id", Datatype.TInt); ("k", Datatype.TInt); ("x", Datatype.TInt) ])
        ()
    in
    List.iter (fun r -> ignore (Table.insert t (Array.map (fun i -> Value.Int i) r))) rows;
    t
  in
  let a = mk "a" (List.init 40 (fun i -> [| i; i mod 5; i |])) in
  let b = mk "b" (List.init 5 (fun i -> [| i; i; 10 - i |])) in
  let c = mk "c" (List.init 3 (fun i -> [| i; i; i |])) in
  let join =
    [
      { Ivm.Viewdef.left = 0; left_col = "k"; right = 1; right_col = "id" };
      { Ivm.Viewdef.left = 1; left_col = "k"; right = 2; right_col = "id" };
    ]
  in
  ([| a; b; c |], join)

let contains s sub =
  let n = String.length sub in
  let rec at i = i + n <= String.length s && (String.sub s i n = sub || at (i + 1)) in
  at 0

let indent line = String.length line - String.length (String.trim line)

let lines_with prefix text =
  List.filter
    (fun l -> String.starts_with ~prefix (String.trim l))
    (String.split_on_char '\n' text)

let test_plan_shape () =
  let tables, join = chain () in
  let v =
    Ivm.Viewdef.make ~name:"shape" ~tables ~join
      ~filter:
        Expr.(And (Gt (col "a.x", int 3), Lt (col "a.x", col "c.x")))
      ~aggs:[ Agg.sum "b.x" ~as_name:"s" ]
      ()
  in
  let plan = Ivm.Viewdef.joined_plan v in
  let text = Ra.explain plan in
  let joins = lines_with "Join" text in
  checkb "two joins" true (List.length joins = 2);
  checkb "every join is a hash join" true
    (List.for_all (fun l -> String.starts_with ~prefix:"Join[hash]" (String.trim l)) joins);
  (match lines_with "Select" text with
  | [ cross; pushed ] ->
      checkb "the two-alias conjunct is the top one" true
        (contains cross "c.x" && not (contains pushed "c.x"));
      checkb "the two-alias conjunct stays above every join" true
        (List.for_all (fun j -> indent cross < indent j) joins);
      checkb "the one-alias conjunct is pushed below a join" true
        (List.exists (fun j -> indent pushed > indent j) joins)
  | l -> Alcotest.failf "expected two selects, got %d:\n%s" (List.length l) text);
  (* pruned: only the aggregated column leaves the plan *)
  checks "output columns" "(b.x:int)" (Schema.to_string (Ra.schema_of plan));
  checkb "reference agrees with the plain plan" true
    (same_rows (Ra.eval (Ivm.Viewdef.reference_plan v)) (reference_rows v))

let test_scoped_plan_needs_connected_members () =
  let tables, join = chain () in
  let v = Ivm.Viewdef.make ~name:"scoped" ~tables ~join ~aggs:[ Agg.count "n" ] () in
  checks "scoped columns" "(a.id:int, a.k:int, a.x:int, b.id:int, b.k:int, b.x:int)"
    (Schema.to_string (Ra.schema_of (Ivm.Viewdef.scoped_plan v [| 0; 1 |])));
  match Ivm.Viewdef.scoped_plan v [| 0; 2 |] with
  | _ -> Alcotest.fail "disconnected members accepted"
  | exception Invalid_argument msg ->
      checks "error names the planner" "Viewdef.scoped_plan: no connecting edge" msg

(* --- the checks catch a table changed behind the maintainer's back ----------- *)

let check_fails label m =
  match Ivm.Maintainer.check_consistent m with
  | Error _ -> ()
  | Ok () -> Alcotest.failf "%s: check passed after a hidden delete" label

let test_hidden_delete_detected () =
  let fresh () = chain () in
  let view ?filter ?aggs ?(order = Ivm.Viewdef.First_order) (tables, join) =
    let aggs = Option.value aggs ~default:[ Agg.count "n" ] in
    Ivm.Viewdef.make ~name:"m" ~tables ~join ?filter ~aggs ~order ()
  in
  let row i = [| Value.Int i; Value.Int (i mod 5); Value.Int i |] in
  List.iter
    (fun (label, v, table, victim) ->
      let m = Ivm.Maintainer.create v in
      checkb (label ^ ": consistent before") true
        (Ivm.Maintainer.check_consistent m = Ok ());
      checkb (label ^ ": victim present") true
        (Table.delete_tuple (Ivm.Viewdef.tables v).(table) victim);
      check_fails label m)
    [
      ("first-order", view (fresh ()), 0, row 7);
      ("higher-order", view ~order:Ivm.Viewdef.Higher_order (fresh ()), 0, row 7);
      ( "pushed filter",
        view ~filter:Expr.(Gt (col "a.x", int 20)) (fresh ()),
        0,
        row 31 );
      ("pruned columns", view ~aggs:[ Agg.max_of "a.x" ~as_name:"hi" ] (fresh ()), 0, row 37);
      (* a [b] row that joins no [c] row: the view does not change, but
         the materialized d(V)/d(c) component over {a, b} does *)
      ( "higher-order delta view only",
        view ~order:Ivm.Viewdef.Higher_order (fresh ()),
        1,
        [| Value.Int 4; Value.Int 4; Value.Int 6 |] );
    ]

let () =
  Alcotest.run "recompute"
    [
      ( "bit-identity",
        [ Alcotest.test_case "160 random views: create = boxed plain plan" `Quick test_random_views ] );
      ( "plans",
        [
          Alcotest.test_case "pushed, pruned, hash-joined" `Quick test_plan_shape;
          Alcotest.test_case "scoped plan needs connected members" `Quick
            test_scoped_plan_needs_connected_members;
        ] );
      ( "checks",
        [ Alcotest.test_case "hidden base delete is an Error" `Quick test_hidden_delete_detected ] );
    ]
