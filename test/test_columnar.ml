(* Row-vs-columnar equivalence: the chunked cursor evaluator (Ra.eval /
   Ra.cursor) must produce the same bag of tuples as the retained
   row-at-a-time reference evaluator (Ra.eval_boxed) on randomized plans
   over randomized tables — including NULLs threaded through validity
   bitmaps, deleted rows punched out of the live bitmap, multi-batch
   tables, dictionary-encoded strings, hash joins on int keys (the Ihash
   path) and on other keys (the Tuple-keyed path), and empty-input
   aggregates — and both must bump the same row-equivalent meter totals. *)

open Relation

let ti = Datatype.TInt
let tf = Datatype.TFloat
let ts = Datatype.TString
let vi i = Value.Int i
let vf f = Value.Float f
let vs s = Value.Str s

(* Every table here shares this meter, so [check_equiv] can compare what
   the two evaluators charge. *)
let meter = Meter.create ()

(* --- random tables -------------------------------------------------------- *)

let string_pool = [| "ant"; "bee"; "cat"; "dog"; "elk"; "fox" |]

let rand_value st ty =
  if Random.State.int st 10 = 0 then Value.Null (* ~10% NULLs *)
  else
    match ty with
    | Datatype.TInt -> vi (Random.State.int st 20 - 5)
    | Datatype.TFloat ->
        if Random.State.bool st then vf (float_of_int (Random.State.int st 12))
        else vi (Random.State.int st 12) (* ints widen into float columns *)
    | Datatype.TString ->
        vs string_pool.(Random.State.int st (Array.length string_pool))
    | Datatype.TBool -> Value.Bool (Random.State.bool st)

let rand_type st =
  match Random.State.int st 4 with
  | 0 | 1 -> ti
  | 2 -> tf
  | _ -> ts

(* A table with [width] random-typed columns c0..c(width-1) ([c0] of type
   [key] when given), [n] random rows, then a random ~20% of rows deleted
   so the cursor must skip dead slots. *)
let rand_table ?key st ~name ~n =
  let width = 2 + Random.State.int st 3 in
  let cols =
    List.init width (fun i ->
        let ty =
          match key with Some ty when i = 0 -> ty | Some _ | None -> rand_type st
        in
        (Printf.sprintf "c%d" i, ty))
  in
  let schema = Schema.make cols in
  let t = Table.create ~meter ~name ~schema () in
  let inserted = ref [] in
  for _ = 1 to n do
    let tup =
      Tuple.make
        (List.map (fun (_, ty) -> rand_value st ty) cols)
    in
    ignore (Table.insert t tup);
    inserted := tup :: !inserted
  done;
  List.iter
    (fun tup ->
      if Random.State.int st 5 = 0 then ignore (Table.delete_tuple t tup))
    !inserted;
  if Random.State.bool st then Table.create_index t "c0";
  t

(* --- random plans --------------------------------------------------------- *)

let numeric_cols schema =
  Array.to_list (Schema.columns schema)
  |> List.filter_map (fun (c : Schema.column) ->
         match c.ty with
         | Datatype.TInt | Datatype.TFloat -> Some c.name
         | _ -> None)

let all_cols schema =
  Array.to_list (Schema.columns schema)
  |> List.map (fun (c : Schema.column) -> c.name)

let pick st l = List.nth l (Random.State.int st (List.length l))

let rand_pred st schema =
  let cols = all_cols schema in
  let c = pick st cols in
  let ty = Schema.column_type schema (Schema.index_of schema c) in
  let const =
    match ty with
    | Datatype.TInt ->
        if Random.State.int st 4 = 0 then Expr.float (float_of_int (Random.State.int st 10))
        else Expr.int (Random.State.int st 20 - 5)
    | Datatype.TFloat -> Expr.float (float_of_int (Random.State.int st 12))
    | Datatype.TString -> Expr.str string_pool.(Random.State.int st 6)
    | Datatype.TBool -> Expr.bool (Random.State.bool st)
  in
  let cmp a b =
    match Random.State.int st 6 with
    | 0 -> Expr.Eq (a, b)
    | 1 -> Expr.Ne (a, b)
    | 2 -> Expr.Lt (a, b)
    | 3 -> Expr.Le (a, b)
    | 4 -> Expr.Gt (a, b)
    | _ -> Expr.Ge (a, b)
  in
  let p = cmp (Expr.col c) const in
  match Random.State.int st 3 with
  | 0 ->
      let c2 = pick st cols in
      let ty2 = Schema.column_type schema (Schema.index_of schema c2) in
      let const2 =
        match ty2 with
        | Datatype.TInt -> Expr.int (Random.State.int st 20 - 5)
        | Datatype.TFloat -> Expr.float (float_of_int (Random.State.int st 12))
        | Datatype.TString -> Expr.str string_pool.(Random.State.int st 6)
        | Datatype.TBool -> Expr.bool (Random.State.bool st)
      in
      Expr.And (p, cmp (Expr.col c2) const2)
  | 1 -> (
      (* shapes the kernel can't take, to exercise the row fallback *)
      match Random.State.int st 2 with
      | 0 -> Expr.Or (p, cmp (Expr.col c) const)
      | _ -> Expr.Not p)
  | _ -> p

let rand_agg st plan =
  let schema = Ra.schema_of plan in
  let nums = numeric_cols schema in
  let group_by =
    if Random.State.int st 3 = 0 then []
    else [ pick st (all_cols schema) ]
  in
  let specs =
    Agg.count "n"
    ::
    (match nums with
    | [] -> []
    | _ ->
        let c = pick st nums in
        [
          (match Random.State.int st 4 with
          | 0 -> Agg.sum c ~as_name:"s"
          | 1 -> Agg.min_of c ~as_name:"s"
          | 2 -> Agg.max_of c ~as_name:"s"
          | _ -> Agg.avg c ~as_name:"s");
        ])
  in
  Ra.aggregate ~group_by specs plan

(* A random plan over fresh random tables; returns the plan.  Join inputs
   stay small; single-table plans occasionally span several 1024-row
   batches. *)
let rand_plan st i =
  let unary plan =
    let plan =
      if Random.State.int st 2 = 0 then
        Ra.select (rand_pred st (Ra.schema_of plan)) plan
      else plan
    in
    let plan =
      if Random.State.int st 3 = 0 then
        let cols = all_cols (Ra.schema_of plan) in
        let keep = List.filter (fun _ -> Random.State.bool st) cols in
        Ra.project (if keep = [] then [ List.hd cols ] else keep) plan
      else plan
    in
    if Random.State.int st 4 = 0 then rand_agg st plan else plan
  in
  let join ?key () =
    let l = rand_table ?key st ~name:(Printf.sprintf "l%d" i) ~n:(Random.State.int st 40) in
    let r = rand_table ?key st ~name:(Printf.sprintf "r%d" i) ~n:(Random.State.int st 40) in
    let lc, rc =
      match key with
      | Some _ -> ("c0", "c0")
      | None -> (pick st (all_cols (Table.schema l)), pick st (all_cols (Table.schema r)))
    in
    unary
      (Ra.equijoin
         ~on:[ (Table.name l ^ "." ^ lc, Table.name r ^ "." ^ rc) ]
         (Ra.scan l) (Ra.scan r))
  in
  match Random.State.int st 10 with
  | 0 | 1 | 2 -> join () (* random key columns, often of different types *)
  | 3 -> join ~key:ti ()
  | 4 -> join ~key:ts ()
  | _ ->
      let n =
        if Random.State.int st 12 = 0 then 1024 + Random.State.int st 1600
        else Random.State.int st 80
      in
      unary (Ra.scan (rand_table st ~name:(Printf.sprintf "t%d" i) ~n))

(* --- the equivalence property --------------------------------------------- *)

let sorted l = List.sort Tuple.compare l

(* What [f] charges [meter], less the batch counter only the cursor ticks. *)
let charged f =
  let before = Meter.snapshot meter in
  let rows = f () in
  ({ (Meter.diff (Meter.snapshot meter) before) with Meter.batches = 0 }, rows)

let check_equiv ?(ordered = true) name plan =
  let vec_cost, vec = charged (fun () -> Ra.eval plan) in
  let boxed_cost, boxed = charged (fun () -> Ra.eval_boxed plan) in
  Alcotest.(check bool) (name ^ " (meter)") true (vec_cost = boxed_cost);
  (* the cursor path preserves the boxed evaluator's emit order... *)
  if ordered then
    Alcotest.(check bool) (name ^ " (ordered)") true (List.equal Tuple.equal boxed vec);
  (* ...and in any case the bags must match *)
  Alcotest.(check bool) name true
    (List.equal Tuple.equal (sorted boxed) (sorted vec))

let test_random_plans () =
  let st = Random.State.make [| 0xC01; 0x0AB; 2026 |] in
  for i = 1 to 220 do
    let plan = rand_plan st i in
    check_equiv (Printf.sprintf "plan %d: %s" i (Ra.explain plan)) plan
  done

(* --- directed edge cases --------------------------------------------------- *)

let test_empty_global_aggregate () =
  let t =
    Table.create ~meter ~name:"e" ~schema:(Schema.make [ ("k", ti); ("x", tf) ]) ()
  in
  (* group_by = [] over empty input: SQL-style single row from both paths *)
  let plan =
    Ra.aggregate ~group_by:[]
      [ Agg.count "n"; Agg.sum "e.x" ~as_name:"s"; Agg.avg "e.x" ~as_name:"a" ]
      (Ra.scan t)
  in
  check_equiv "empty global aggregate" plan;
  Alcotest.(check int) "single row" 1 (List.length (Ra.eval plan));
  (match Ra.eval plan with
  | [ row ] ->
      Alcotest.(check bool) "count 0" true (Value.equal (vi 0) (Tuple.get row 0));
      Alcotest.(check bool) "sum null" true (Value.equal Value.Null (Tuple.get row 1))
  | _ -> Alcotest.fail "expected one row");
  (* grouped aggregate over empty input: no rows from both paths *)
  let grouped =
    Ra.aggregate ~group_by:[ "e.k" ] [ Agg.count "n" ] (Ra.scan t)
  in
  check_equiv "empty grouped aggregate" grouped;
  Alcotest.(check int) "no groups" 0 (List.length (Ra.eval grouped))

let test_null_join_keys () =
  (* NULL keys join NULL keys (Value.equal Null Null) on both hash-join
     paths — the int-keyed Ihash one with its null chain, and the
     Tuple-keyed one — matching the boxed hash join. *)
  let mk ty key name rows =
    let t =
      Table.create ~meter ~name ~schema:(Schema.make [ ("k", ty); ("v", ti) ]) ()
    in
    List.iter
      (fun (k, v) ->
        let k = match k with Some k -> key k | None -> Value.Null in
        ignore (Table.insert t (Tuple.make [ k; vi v ])))
      rows;
    t
  in
  List.iter
    (fun (ty, key) ->
      let l = mk ty key "nl" [ (Some 1, 10); (None, 11); (Some 2, 12) ] in
      let r = mk ty key "nr" [ (None, 20); (Some 1, 21); (None, 22) ] in
      let plan = Ra.equijoin ~on:[ ("nl.k", "nr.k") ] (Ra.scan l) (Ra.scan r) in
      check_equiv "null join keys" plan;
      (* 1 matches 1 once; Null matches two Nulls *)
      Alcotest.(check int) "null-match cardinality" 3
        (List.length (Ra.eval plan)))
    [ (ti, vi); (ts, fun k -> vs (string_of_int k)) ]

let test_validity_through_predicates () =
  (* NULL is false under every comparison in both paths, including the
     vectorized int/float kernels. *)
  let t =
    Table.create ~meter ~name:"v" ~schema:(Schema.make [ ("a", ti); ("b", tf) ]) ()
  in
  for i = 0 to 2999 do
    let a = if i mod 7 = 0 then Value.Null else vi (i mod 50) in
    let b = if i mod 11 = 0 then Value.Null else vf (float_of_int (i mod 30)) in
    ignore (Table.insert t (Tuple.make [ a; b ]))
  done;
  List.iter
    (fun pred -> check_equiv "validity under filter" (Ra.select pred (Ra.scan t)))
    [
      Expr.(Lt (col "a", int 25));
      Expr.(Ge (col "b", float 10.0));
      Expr.(And (Gt (col "a", int 3), Le (col "b", float 20.0)));
      Expr.(Eq (col "a", col "a"));
      (* row-fallback shape *)
      Expr.(Or (Lt (col "a", int 5), Gt (col "b", float 25.0)));
    ]

let test_multi_batch_scan () =
  (* > 2 batches with deletions punched through the live bitmap *)
  let t = Table.create ~meter ~name:"m" ~schema:(Schema.make [ ("k", ti) ]) () in
  for i = 0 to 2599 do
    ignore (Table.insert t (Tuple.make [ vi i ]))
  done;
  for i = 0 to 2599 do
    if i mod 3 = 0 then ignore (Table.delete_tuple t (Tuple.make [ vi i ]))
  done;
  check_equiv "multi-batch scan with holes" (Ra.scan t);
  Alcotest.(check int) "live rows" (Table.row_count t)
    (List.length (Ra.eval (Ra.scan t)))

let () =
  Alcotest.run "columnar"
    [
      ( "equivalence",
        [
          Alcotest.test_case "220 random plans, eval = eval_boxed" `Quick
            test_random_plans;
          Alcotest.test_case "empty-input aggregates" `Quick
            test_empty_global_aggregate;
          Alcotest.test_case "NULL join keys" `Quick test_null_join_keys;
          Alcotest.test_case "validity under predicates" `Quick
            test_validity_through_predicates;
          Alcotest.test_case "multi-batch scan with deletions" `Quick
            test_multi_batch_scan;
        ] );
    ]
