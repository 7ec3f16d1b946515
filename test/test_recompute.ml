(* The from-scratch recompute path: Maintainer.create and the delta-view
   rebuilds fold the batches of Viewdef's planned joins (filter conjuncts
   pushed onto scans, scans pruned to the columns read above them, hash
   joins built on the smaller side).  Their content must be bit-identical
   to folding the row-at-a-time evaluation of the plain plan — a
   left-deep tree in breadth-first order of hash joins, the canonical
   joined schema and the whole filter on top — through the same content
   code; the plans must have the documented shape; and the consistency
   checks must notice a base table changed behind the maintainer's
   back. *)

open Relation
open Viewgen

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
