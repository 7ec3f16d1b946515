(* Unit and scenario tests for the incremental view maintenance layer:
   delta queues, grouped aggregate state, view definitions, and the batch
   maintainer (including the deferred-maintenance / state-bug semantics and
   the MIN-under-deletion case). *)

open Relation

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let vi x = Value.Int x
let vf x = Value.Float x

let ti = Datatype.TInt
let tf = Datatype.TFloat

let consistent m =
  match Ivm.Maintainer.check_consistent m with
  | Ok () -> true
  | Error msg ->
      Printf.eprintf "inconsistent: %s\n" msg;
      false

(* --- Pending ------------------------------------------------------------- *)

let ins k = Ivm.Change.Insert (Tuple.make [ vi k ])

let test_pending_fifo () =
  let q = Ivm.Pending.create () in
  List.iter (Ivm.Pending.push q) [ ins 1; ins 2; ins 3 ];
  checki "size" 3 (Ivm.Pending.size q);
  (match Ivm.Pending.take q 2 with
  | [ Ivm.Change.Insert a; Ivm.Change.Insert b ] ->
      checkb "fifo order" true (Value.equal (vi 1) (Tuple.get a 0));
      checkb "fifo order 2" true (Value.equal (vi 2) (Tuple.get b 0))
  | _ -> Alcotest.fail "unexpected take result");
  checki "remaining" 1 (Ivm.Pending.size q)

let test_pending_take_too_many () =
  let q = Ivm.Pending.create () in
  Ivm.Pending.push q (ins 1);
  Alcotest.check_raises "overdraw"
    (Invalid_argument "Pending.take: not enough pending changes") (fun () ->
      ignore (Ivm.Pending.take q 2))

let test_pending_take_zero () =
  let q = Ivm.Pending.create () in
  checkb "empty take" true (Ivm.Pending.take q 0 = [])

let test_pending_take_at_most () =
  let q = Ivm.Pending.create () in
  List.iter (Ivm.Pending.push q) [ ins 1; ins 2; ins 3 ];
  (* Clamps to what is there instead of raising — the rescue/recovery
     drain primitive. *)
  checki "clamped take" 3 (List.length (Ivm.Pending.take_at_most q 10));
  checki "drained" 0 (Ivm.Pending.size q);
  checkb "empty queue yields nothing" true (Ivm.Pending.take_at_most q 5 = []);
  List.iter (Ivm.Pending.push q) [ ins 4; ins 5 ];
  (match Ivm.Pending.take_at_most q 1 with
  | [ Ivm.Change.Insert t ] ->
      checkb "FIFO order kept" true (Value.equal (vi 4) (Tuple.get t 0))
  | _ -> Alcotest.fail "unexpected batch");
  checki "remainder intact" 1 (Ivm.Pending.size q);
  Alcotest.check_raises "negative k rejected"
    (Invalid_argument "Pending.take_at_most: negative count") (fun () ->
      ignore (Ivm.Pending.take_at_most q (-1)))

let test_pending_peek_preserves () =
  let q = Ivm.Pending.create () in
  List.iter (Ivm.Pending.push q) [ ins 1; ins 2 ];
  checki "peek count" 2 (List.length (Ivm.Pending.peek_all q));
  checki "size unchanged" 2 (Ivm.Pending.size q)

let test_pending_compaction () =
  (* Exercise the head-offset compaction path with many takes. *)
  let q = Ivm.Pending.create () in
  for i = 1 to 5000 do
    Ivm.Pending.push q (ins i)
  done;
  for _ = 1 to 4000 do
    ignore (Ivm.Pending.take q 1)
  done;
  checki "size after drain" 1000 (Ivm.Pending.size q);
  match Ivm.Pending.take q 1 with
  | [ Ivm.Change.Insert t ] ->
      checkb "order preserved across compaction" true
        (Value.equal (vi 4001) (Tuple.get t 0))
  | _ -> Alcotest.fail "unexpected"

let test_pending_clear () =
  let q = Ivm.Pending.create () in
  Ivm.Pending.push q (ins 1);
  Ivm.Pending.clear q;
  checki "cleared" 0 (Ivm.Pending.size q)

(* --- Change -------------------------------------------------------------- *)

let test_change_signed_tuples () =
  let t1 = Tuple.make [ vi 1 ] and t2 = Tuple.make [ vi 2 ] in
  checkb "insert" true (Ivm.Change.signed_tuples (Ivm.Change.Insert t1) = [ (t1, 1) ]);
  checkb "delete" true (Ivm.Change.signed_tuples (Ivm.Change.Delete t1) = [ (t1, -1) ]);
  checkb "update" true
    (Ivm.Change.signed_tuples (Ivm.Change.Update { before = t1; after = t2 })
    = [ (t1, -1); (t2, 1) ])

(* --- Groups -------------------------------------------------------------- *)

let g_schema = Schema.make [ ("g", ti); ("x", ti); ("y", tf) ]

let g_row g x y = Tuple.make [ vi g; vi x; vf y ]

let mk_groups ?(group_by = [ "g" ]) specs =
  Ivm.Groups.create ~schema:g_schema ~group_by ~specs

let test_groups_count_sum () =
  let g = mk_groups [ Agg.count "n"; Agg.sum "x" ~as_name:"sx" ] in
  Ivm.Groups.apply g (g_row 0 5 1.0) 1;
  Ivm.Groups.apply g (g_row 0 7 2.0) 1;
  Ivm.Groups.apply g (g_row 1 2 3.0) 1;
  checki "two groups" 2 (Ivm.Groups.group_count g);
  match Ivm.Groups.rows g with
  | [ a; b ] ->
      checkb "g0 count" true (Value.equal (vi 2) (Tuple.get a 1));
      checkb "g0 sum" true (Value.equal (vi 12) (Tuple.get a 2));
      checkb "g1 count" true (Value.equal (vi 1) (Tuple.get b 1))
  | _ -> Alcotest.fail "expected two rows"

let test_groups_min_delete_exposes_next () =
  (* The "MIN not incrementally maintainable" case: deleting the current
     minimum must expose the runner-up, which needs the multiset state. *)
  let g = mk_groups ~group_by:[] [ Agg.min_of "y" ~as_name:"m" ] in
  Ivm.Groups.apply g (g_row 0 0 5.0) 1;
  Ivm.Groups.apply g (g_row 0 0 3.0) 1;
  Ivm.Groups.apply g (g_row 0 0 9.0) 1;
  (match Ivm.Groups.rows g with
  | [ r ] -> checkb "min 3" true (Value.equal (vf 3.0) (Tuple.get r 0))
  | _ -> Alcotest.fail "one row expected");
  Ivm.Groups.apply g (g_row 0 0 3.0) (-1);
  match Ivm.Groups.rows g with
  | [ r ] -> checkb "min exposes 5" true (Value.equal (vf 5.0) (Tuple.get r 0))
  | _ -> Alcotest.fail "one row expected"

let test_groups_group_disappears () =
  let g = mk_groups [ Agg.count "n" ] in
  Ivm.Groups.apply g (g_row 3 0 0.0) 1;
  checki "one group" 1 (Ivm.Groups.group_count g);
  Ivm.Groups.apply g (g_row 3 0 0.0) (-1);
  checki "group removed" 0 (Ivm.Groups.group_count g)

let test_groups_negative_overflow () =
  let g = mk_groups [ Agg.count "n" ] in
  Alcotest.check_raises "negative membership"
    (Invalid_argument "Groups.apply: group member count would go negative")
    (fun () -> Ivm.Groups.apply g (g_row 0 0 0.0) (-1))

(* A refused apply changes nothing: the member count and every column's
   removal are checked before the first update.  Checked as it goes,
   apply would take the member and [x] out before refusing [y], and a
   removal from a missing group would leave an empty group behind. *)
let test_groups_refused_apply_atomic () =
  List.iter
    (fun group_by ->
      let g =
        mk_groups ~group_by
          [ Agg.count "n"; Agg.sum "x" ~as_name:"sx"; Agg.min_of "y" ~as_name:"m" ]
      in
      Ivm.Groups.apply g (g_row 0 5 1.0) 1;
      let rows = Ivm.Groups.rows g and groups = Ivm.Groups.group_count g in
      let refused row count =
        Alcotest.check_raises "refused"
          (Invalid_argument "Groups.apply: removing a value the group does not hold")
          (fun () -> Ivm.Groups.apply g row count);
        checkb "rows unchanged" true (Ivm.Groups.rows g = rows);
        checki "group count unchanged" groups (Ivm.Groups.group_count g)
      in
      refused (g_row 0 5 2.0) (-1);
      refused (g_row 0 6 1.0) (-1);
      (* a missing group with GROUP BY, too few members without *)
      Alcotest.check_raises "too few members"
        (Invalid_argument "Groups.apply: group member count would go negative")
        (fun () -> Ivm.Groups.apply g (g_row 9 5 1.0) (-2));
      checkb "rows unchanged" true (Ivm.Groups.rows g = rows);
      checki "group count unchanged" groups (Ivm.Groups.group_count g))
    [ [ "g" ]; [] ]

let test_groups_global_empty_row () =
  let g = mk_groups ~group_by:[] [ Agg.count "n"; Agg.min_of "y" ~as_name:"m" ] in
  match Ivm.Groups.rows g with
  | [ r ] ->
      checkb "count 0" true (Value.equal (vi 0) (Tuple.get r 0));
      checkb "min null" true (Value.equal Value.Null (Tuple.get r 1))
  | _ -> Alcotest.fail "single row expected"

let test_groups_multi_count_application () =
  let g = mk_groups [ Agg.count "n" ] in
  Ivm.Groups.apply g (g_row 0 0 0.0) 3;
  match Ivm.Groups.rows g with
  | [ r ] -> checkb "count 3" true (Value.equal (vi 3) (Tuple.get r 1))
  | _ -> Alcotest.fail "single row expected"

let test_groups_avg_and_max () =
  let g = mk_groups ~group_by:[] [ Agg.avg "y" ~as_name:"a"; Agg.max_of "y" ~as_name:"mx" ] in
  Ivm.Groups.apply g (g_row 0 0 2.0) 1;
  Ivm.Groups.apply g (g_row 0 0 6.0) 1;
  match Ivm.Groups.rows g with
  | [ r ] ->
      checkb "avg 4" true (Value.equal (vf 4.0) (Tuple.get r 0));
      checkb "max 6" true (Value.equal (vf 6.0) (Tuple.get r 1))
  | _ -> Alcotest.fail "single row expected"

(* --- Viewdef ------------------------------------------------------------- *)

let small_db () =
  let meter = Meter.create () in
  let r =
    Table.create ~meter ~name:"r" ~schema:(Schema.make [ ("rk", ti); ("jk", ti) ]) ()
  in
  let s =
    Table.create ~meter ~name:"s"
      ~schema:(Schema.make [ ("sk", ti); ("jk", ti); ("w", tf) ])
      ()
  in
  Table.create_index r "jk";
  Table.create_index s "jk";
  for i = 0 to 9 do
    ignore (Table.insert r (Tuple.make [ vi i; vi (i mod 3) ]))
  done;
  for i = 0 to 14 do
    ignore (Table.insert s (Tuple.make [ vi i; vi (i mod 5); vf (float_of_int i) ]))
  done;
  (meter, r, s)

let edge l lc rt rc = { Ivm.Viewdef.left = l; left_col = lc; right = rt; right_col = rc }

let rs_view ?filter ?aggs ?projection (r, s) =
  Ivm.Viewdef.make ~name:"v" ~tables:[| r; s |]
    ~join:[ edge 0 "jk" 1 "jk" ]
    ?filter ?aggs ?projection ()

let test_viewdef_rejects_disconnected () =
  let _, r, s = small_db () in
  Alcotest.check_raises "disconnected"
    (Invalid_argument "Viewdef.make: join graph is not connected") (fun () ->
      ignore (Ivm.Viewdef.make ~name:"bad" ~tables:[| r; s |] ~join:[] ()))

let test_viewdef_rejects_parallel_edges () =
  let _, r, s = small_db () in
  checkb "raises on parallel edges" true
    (try
       ignore
         (Ivm.Viewdef.make ~name:"bad" ~tables:[| r; s |]
            ~join:[ edge 0 "jk" 1 "jk"; edge 1 "sk" 0 "rk" ]
            ());
       false
     with Invalid_argument _ -> true)

let test_viewdef_rejects_self_join () =
  let _, r, _ = small_db () in
  Alcotest.check_raises "self join"
    (Invalid_argument "Viewdef.make: self-join edges are not supported")
    (fun () ->
      ignore
        (Ivm.Viewdef.make ~name:"bad" ~tables:[| r |] ~join:[ edge 0 "jk" 0 "jk" ] ()))

let test_viewdef_rejects_agg_with_projection () =
  let _, r, s = small_db () in
  Alcotest.check_raises "agg+projection"
    (Invalid_argument "Viewdef.make: aggregates and projection are exclusive")
    (fun () ->
      ignore
        (rs_view ~aggs:[ Agg.count "n" ] ~projection:[ "r.rk" ] (r, s)))

let test_viewdef_rejects_bad_filter_column () =
  let _, r, s = small_db () in
  Alcotest.check_raises "unknown filter column"
    (Invalid_argument "Schema: unknown column \"nope\"") (fun () ->
      ignore (rs_view ~filter:(Expr.Eq (Expr.col "nope", Expr.int 1)) (r, s)))

let test_viewdef_joined_schema () =
  let _, r, s = small_db () in
  let v = rs_view (r, s) in
  let schema = Ivm.Viewdef.joined_schema v in
  checki "arity" 5 (Schema.arity schema);
  Alcotest.check Alcotest.string "first qualified" "r.rk" (Schema.column_name schema 0);
  Alcotest.check Alcotest.string "last qualified" "s.w" (Schema.column_name schema 4)

let test_viewdef_reference_plan_cardinality () =
  let _, r, s = small_db () in
  let v = rs_view (r, s) in
  (* r.jk: 4 rows of 0, 3 of 1, 3 of 2; s.jk: 3 rows each of 0..4:
     4*3 + 3*3 + 3*3 = 30 join rows. *)
  checki "joined rows" 30 (List.length (Ra.eval (Ivm.Viewdef.reference_plan v)))

let test_viewdef_edges_of_table () =
  let _, r, s = small_db () in
  let v = rs_view (r, s) in
  (match Ivm.Viewdef.edges_of_table v 1 with
  | [ e ] ->
      checki "normalized left" 1 e.Ivm.Viewdef.left;
      Alcotest.check Alcotest.string "left col" "jk" e.Ivm.Viewdef.left_col
  | _ -> Alcotest.fail "one edge expected");
  checki "edges of 0" 1 (List.length (Ivm.Viewdef.edges_of_table v 0))

(* --- Maintainer: SPJ views ------------------------------------------------ *)

let test_maintainer_initial_content () =
  let meter, r, s = small_db () in
  let v = rs_view (r, s) in
  let m = Ivm.Maintainer.create ~meter v in
  checkb "initial consistent" true (consistent m);
  checki "row count" 30 (List.length (Ivm.Maintainer.rows m))

let test_maintainer_insert_then_process () =
  let meter, r, s = small_db () in
  let m = Ivm.Maintainer.create ~meter (rs_view (r, s)) in
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert (Tuple.make [ vi 100; vi 0 ]));
  (* Not processed yet: view must still reflect the processed prefix. *)
  checkb "pre-process consistent" true (consistent m);
  checki "still 30 rows" 30 (List.length (Ivm.Maintainer.rows m));
  ignore (Ivm.Maintainer.process m 0 1);
  checkb "post-process consistent" true (consistent m);
  checki "three new join rows" 33 (List.length (Ivm.Maintainer.rows m))

let test_maintainer_delete () =
  let meter, r, s = small_db () in
  let m = Ivm.Maintainer.create ~meter (rs_view (r, s)) in
  Ivm.Maintainer.on_arrive m 1 (Ivm.Change.Delete (Tuple.make [ vi 0; vi 0; vf 0.0 ]));
  ignore (Ivm.Maintainer.process m 1 1);
  checkb "consistent" true (consistent m);
  checki "four fewer rows" 26 (List.length (Ivm.Maintainer.rows m))

let test_maintainer_update_moves_join_partner () =
  let meter, r, s = small_db () in
  let m = Ivm.Maintainer.create ~meter (rs_view (r, s)) in
  (* Move s row 0 from jk 0 to jk 99 (no partner): removes its 4 join rows. *)
  Ivm.Maintainer.on_arrive m 1
    (Ivm.Change.Update
       {
         before = Tuple.make [ vi 0; vi 0; vf 0.0 ];
         after = Tuple.make [ vi 0; vi 99; vf 0.0 ];
       });
  ignore (Ivm.Maintainer.process m 1 1);
  checkb "consistent" true (consistent m);
  checki "rows drop" 26 (List.length (Ivm.Maintainer.rows m))

let test_maintainer_deferred_asymmetric_prefixes () =
  (* The state-bug scenario: modifications pending on both tables, only one
     side processed.  The view must equal the reference evaluated over the
     processed prefix (r advanced, s not). *)
  let meter, r, s = small_db () in
  let m = Ivm.Maintainer.create ~meter (rs_view (r, s)) in
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert (Tuple.make [ vi 100; vi 0 ]));
  Ivm.Maintainer.on_arrive m 1 (Ivm.Change.Insert (Tuple.make [ vi 100; vi 0; vf 1.0 ]));
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert (Tuple.make [ vi 101; vi 1 ]));
  ignore (Ivm.Maintainer.process m 0 2);
  (* r fully processed, s still pending: reference over base tables is
     exactly the processed-prefix semantics. *)
  checkb "asymmetric prefix consistent" true (consistent m);
  checki "pending s" 1 (Ivm.Maintainer.pending_size m 1);
  checki "pending r" 0 (Ivm.Maintainer.pending_size m 0);
  ignore (Ivm.Maintainer.refresh m);
  checkb "after refresh" true (consistent m);
  checki "no pending" 0 (Array.fold_left ( + ) 0 (Ivm.Maintainer.pending_sizes m))

let test_maintainer_partial_batch () =
  let meter, r, s = small_db () in
  let m = Ivm.Maintainer.create ~meter (rs_view (r, s)) in
  for i = 0 to 4 do
    Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert (Tuple.make [ vi (200 + i); vi 0 ]))
  done;
  ignore (Ivm.Maintainer.process m 0 2);
  checkb "fifo prefix consistent" true (consistent m);
  checki "three left" 3 (Ivm.Maintainer.pending_size m 0)

(* [apply] checks every count before running any batch: table 0's valid
   count is not processed when table 1's is short. *)
let test_maintainer_apply_refuses_whole () =
  let meter, r, s = small_db () in
  let m = Ivm.Maintainer.create ~meter (rs_view (r, s)) in
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert (Tuple.make [ vi 100; vi 0 ]));
  Ivm.Maintainer.on_arrive m 1 (Ivm.Change.Insert (Tuple.make [ vi 100; vi 0; vf 1.0 ]));
  let before = Relation.Meter.snapshot meter in
  Alcotest.check_raises "short table"
    (Invalid_argument
       "Maintainer.apply: table 1 has 1 pending changes, the action takes 2")
    (fun () -> ignore (Ivm.Maintainer.apply m [| 1; 2 |]));
  checki "table 0 unprocessed" 1 (Ivm.Maintainer.pending_size m 0);
  checkb "meter untouched" true (Relation.Meter.snapshot meter = before);
  checkb "consistent" true (consistent m)

let test_maintainer_same_row_twice_in_batch () =
  (* Two updates of the same row inside one batch: exercises contribution
     netting (a removal must not be applied before its insertion). *)
  let meter, r, s = small_db () in
  let m = Ivm.Maintainer.create ~meter (rs_view (r, s)) in
  Ivm.Maintainer.on_arrive m 1
    (Ivm.Change.Update
       {
         before = Tuple.make [ vi 0; vi 0; vf 0.0 ];
         after = Tuple.make [ vi 0; vi 1; vf 5.0 ];
       });
  Ivm.Maintainer.on_arrive m 1
    (Ivm.Change.Update
       {
         before = Tuple.make [ vi 0; vi 1; vf 5.0 ];
         after = Tuple.make [ vi 0; vi 2; vf 7.0 ];
       });
  ignore (Ivm.Maintainer.process m 1 2);
  checkb "netted batch consistent" true (consistent m)

let test_maintainer_insert_then_delete_same_batch () =
  let meter, r, s = small_db () in
  let m = Ivm.Maintainer.create ~meter (rs_view (r, s)) in
  let t = Tuple.make [ vi 300; vi 0 ] in
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert t);
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Delete t);
  ignore (Ivm.Maintainer.process m 0 2);
  checkb "cancelling batch" true (consistent m);
  checki "unchanged rows" 30 (List.length (Ivm.Maintainer.rows m))

let test_maintainer_delete_missing_tuple_rejected () =
  let meter, r, s = small_db () in
  let m = Ivm.Maintainer.create ~meter (rs_view (r, s)) in
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Delete (Tuple.make [ vi 999; vi 0 ]));
  checkb "raises" true
    (try
       ignore (Ivm.Maintainer.process m 0 1);
       false
     with Invalid_argument _ -> true)

let test_maintainer_process_zero_free () =
  let meter, r, s = small_db () in
  let m = Ivm.Maintainer.create ~meter (rs_view (r, s)) in
  let d = Ivm.Maintainer.process m 0 0 in
  Alcotest.check (Alcotest.float 0.0) "free no-op" 0.0 (Meter.cost_units d)

(* The maintenance step kernel: [ingest] draws in table order and hands
   every arrival to its journal; [apply] prices each positive batch as
   [process] would and sums from 0.0. *)
let test_maintainer_step_kernel () =
  let feed () =
    let key = ref 400 in
    fun table ->
      incr key;
      Ivm.Change.Insert
        (if table = 0 then Tuple.make [ vi !key; vi (!key mod 3) ]
         else Tuple.make [ vi !key; vi (!key mod 5); vf 1.0 ])
  in
  let meter, r, s = small_db () in
  let m = Ivm.Maintainer.create ~meter (rs_view (r, s)) in
  let journal = ref [] in
  Ivm.Maintainer.ingest m ~next:(feed ()) [| 2; 3 |]
    ~on_arrival:(fun ~table _ -> journal := table :: !journal);
  checkb "table order" true (List.rev !journal = [ 0; 0; 1; 1; 1 ]);
  let tmeter, tr, ts = small_db () in
  let twin = Ivm.Maintainer.create ~meter:tmeter (rs_view (tr, ts)) in
  let next = feed () in
  for table = 0 to 1 do
    for _ = 1 to [| 2; 3 |].(table) do
      Ivm.Maintainer.on_arrive twin table (next table)
    done
  done;
  let c0 = Meter.cost_units (Ivm.Maintainer.process twin 0 2) in
  let c1 = Meter.cost_units (Ivm.Maintainer.process twin 1 3) in
  let batches = ref [] in
  let total =
    Ivm.Maintainer.apply m [| 2; 3 |] ~on_applied:(fun ~table ~count ~cost ->
        batches := (table, count, cost) :: !batches)
  in
  checkb "one callback per batch, in table order" true
    (List.rev !batches = [ (0, 2, c0); (1, 3, c1) ]);
  checkb "sum from 0.0" true
    (Int64.bits_of_float total = Int64.bits_of_float (0.0 +. c0 +. c1));
  checkb "consistent" true (consistent m)

let test_maintainer_batch_setup_charged_once () =
  let meter, r, s = small_db () in
  let m = Ivm.Maintainer.create ~meter (rs_view (r, s)) in
  for i = 0 to 9 do
    Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert (Tuple.make [ vi (400 + i); vi 0 ]))
  done;
  let d = Ivm.Maintainer.process m 0 10 in
  checki "one setup for the whole batch" 1 d.Meter.batch_setup

let test_maintainer_filtered_view () =
  let meter, r, s = small_db () in
  let v = rs_view ~filter:(Expr.Gt (Expr.col "s.w", Expr.float 6.5)) (r, s) in
  let m = Ivm.Maintainer.create ~meter v in
  checkb "initial" true (consistent m);
  Ivm.Maintainer.on_arrive m 1 (Ivm.Change.Insert (Tuple.make [ vi 50; vi 0; vf 100.0 ]));
  Ivm.Maintainer.on_arrive m 1 (Ivm.Change.Insert (Tuple.make [ vi 51; vi 0; vf 1.0 ]));
  ignore (Ivm.Maintainer.process m 1 2);
  checkb "filter respected" true (consistent m)

let test_maintainer_projected_view () =
  let meter, r, s = small_db () in
  let v = rs_view ~projection:[ "r.rk"; "s.w" ] (r, s) in
  let m = Ivm.Maintainer.create ~meter v in
  checkb "initial" true (consistent m);
  checki "projected arity" 2 (Tuple.arity (List.hd (Ivm.Maintainer.rows m)));
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert (Tuple.make [ vi 500; vi 2 ]));
  ignore (Ivm.Maintainer.refresh m);
  checkb "after refresh" true (consistent m)

(* --- Maintainer: aggregate views ------------------------------------------ *)

let test_maintainer_min_view_via_join () =
  let meter, r, s = small_db () in
  let v = rs_view ~aggs:[ Agg.min_of "s.w" ~as_name:"mn" ] (r, s) in
  let m = Ivm.Maintainer.create ~meter v in
  checkb "initial" true (consistent m);
  (* Delete the s row carrying the minimum (w = 0.0, jk = 0, joined). *)
  Ivm.Maintainer.on_arrive m 1 (Ivm.Change.Delete (Tuple.make [ vi 0; vi 0; vf 0.0 ]));
  ignore (Ivm.Maintainer.process m 1 1);
  checkb "min recomputed after delete" true (consistent m);
  match Ivm.Maintainer.rows m with
  | [ row ] -> checkb "new min is 1.0" true (Value.equal (vf 1.0) (Tuple.get row 0))
  | _ -> Alcotest.fail "single row expected"

let test_maintainer_group_by_view () =
  let meter, r, s = small_db () in
  let v =
    Ivm.Viewdef.make ~name:"g" ~tables:[| r; s |]
      ~join:[ edge 0 "jk" 1 "jk" ]
      ~group_by:[ "r.jk" ]
      ~aggs:[ Agg.count "n"; Agg.sum "s.w" ~as_name:"total" ]
      ()
  in
  let m = Ivm.Maintainer.create ~meter v in
  checkb "initial" true (consistent m);
  checki "three groups" 3 (List.length (Ivm.Maintainer.rows m));
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert (Tuple.make [ vi 600; vi 1 ]));
  Ivm.Maintainer.on_arrive m 1 (Ivm.Change.Delete (Tuple.make [ vi 1; vi 1; vf 1.0 ]));
  ignore (Ivm.Maintainer.refresh m);
  checkb "after mixed refresh" true (consistent m)

let test_maintainer_four_table_chain () =
  (* A deeper chain with a filter at the far end, exercising multi-hop
     expansion in both directions. *)
  let meter = Meter.create () in
  let a = Table.create ~meter ~name:"a" ~schema:(Schema.make [ ("ak", ti); ("b_ref", ti) ]) () in
  let b = Table.create ~meter ~name:"b" ~schema:(Schema.make [ ("bk", ti); ("c_ref", ti) ]) () in
  let c = Table.create ~meter ~name:"c" ~schema:(Schema.make [ ("ck", ti); ("tag", ti) ]) () in
  Table.create_index b "bk";
  Table.create_index c "ck";
  for i = 0 to 3 do
    ignore (Table.insert c (Tuple.make [ vi i; vi (i mod 2) ]))
  done;
  for i = 0 to 7 do
    ignore (Table.insert b (Tuple.make [ vi i; vi (i mod 4) ]))
  done;
  for i = 0 to 15 do
    ignore (Table.insert a (Tuple.make [ vi i; vi (i mod 8) ]))
  done;
  let v =
    Ivm.Viewdef.make ~name:"chain" ~tables:[| a; b; c |]
      ~join:[ edge 0 "b_ref" 1 "bk"; edge 1 "c_ref" 2 "ck" ]
      ~filter:(Expr.Eq (Expr.col "c.tag", Expr.int 1))
      ~aggs:[ Agg.count "n" ]
      ()
  in
  let m = Ivm.Maintainer.create ~meter v in
  checkb "initial" true (consistent m);
  Ivm.Maintainer.on_arrive m 2
    (Ivm.Change.Update
       { before = Tuple.make [ vi 1; vi 1 ]; after = Tuple.make [ vi 1; vi 0 ] });
  ignore (Ivm.Maintainer.process m 2 1);
  checkb "far-end update" true (consistent m);
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert (Tuple.make [ vi 99; vi 3 ]));
  ignore (Ivm.Maintainer.refresh m);
  checkb "near-end insert" true (consistent m)

let test_maintainer_scan_table_equivalence () =
  (* A scan table's batches compute exactly the same view as the indexed
     path, and pay a scan of the partner instead of a probe per delta —
     only the cost profile differs. *)
  let build scan_tables =
    let meter, r, s = small_db () in
    let v =
      Ivm.Viewdef.make ~name:"v" ~tables:[| r; s |]
        ~join:[ edge 0 "jk" 1 "jk" ]
        ~aggs:[ Agg.count "n"; Agg.sum "s.w" ~as_name:"t" ]
        ~scan_tables ()
    in
    let m = Ivm.Maintainer.create ~meter v in
    for i = 0 to 9 do
      Ivm.Maintainer.on_arrive m 0
        (Ivm.Change.Insert (Tuple.make [ vi (700 + i); vi (i mod 5) ]))
    done;
    let d = Ivm.Maintainer.process m 0 10 in
    checkb "consistent" true (consistent m);
    (Ivm.Maintainer.rows m, d)
  in
  let indexed, di = build [] and scanned, ds = build [ 0 ] in
  checkb "same content" true (List.equal Tuple.equal indexed scanned);
  checkb "index path probes, scans nothing" true
    (di.Meter.index_probes = 10 && di.Meter.seq_scanned = 0);
  checkb "scan path scans, probes nothing" true
    (ds.Meter.index_probes = 0 && ds.Meter.seq_scanned > 0)

let test_maintainer_refresh_meter_delta () =
  let meter, r, s = small_db () in
  let m = Ivm.Maintainer.create ~meter (rs_view (r, s)) in
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert (Tuple.make [ vi 800; vi 0 ]));
  let d = Ivm.Maintainer.refresh m in
  checkb "refresh costs something" true (Meter.cost_units d > 0.0);
  let d2 = Ivm.Maintainer.refresh m in
  Alcotest.check (Alcotest.float 0.0) "second refresh free" 0.0 (Meter.cost_units d2)

(* The delta-join kernel reuses its maintainer's scratch, so a Supplier
   batch on the TPC-R MIN view (each Supplier delta fans out into about 80
   PartSupp partials) allocates no partial buffer or netting table on the
   major heap.  Building them per batch cost 3,415 major words per
   modification in the dev build (3,410 in release); the kernel with
   scratch allocates about 250, most of it the PartSupp distinct-row
   certificate the first batch builds.  The bound is a third of the
   former.
   [Gc.quick_stat] is read on the one domain this test runs on. *)
let test_supplier_batches_major_words () =
  let db = Tpcr.Gen.generate ~seed:1 ~scale:0.05 () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter (Tpcr.Gen.min_supplycost_view db)
  in
  let feeds = Tpcr.Updates.paper_feeds ~seed:8 db in
  let batch = [| 0; 6; 0; 0 |] and batches = 200 in
  let before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to batches do
    Ivm.Maintainer.ingest m ~next:feeds.Tpcr.Updates.next batch;
    ignore (Ivm.Maintainer.apply m batch)
  done;
  let per_mod =
    ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int (6 * batches)
  in
  if per_mod > 3415.0 /. 3.0 then
    Alcotest.failf "%.0f major words per Supplier modification (bound %.0f)" per_mod
      (3415.0 /. 3.0)

(* PartSupp batches on the TPC-R MIN view run the shared scan over the
   three dimension tables.  With a boxed key array, an [Ihash] or [Vhash]
   per scan edge and a [Hashtbl] of canonical deltas built per batch,
   200 six-modification batches allocated about 460 minor words per
   modification in the dev build; with those held in the maintainer's
   scratch, about 317.  The bound is 400.  [Gc.minor_words] counts this
   domain only. *)
let test_partsupp_batches_minor_words () =
  let db = Tpcr.Gen.generate ~seed:1 ~scale:0.05 () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter (Tpcr.Gen.min_supplycost_view db)
  in
  let feeds = Tpcr.Updates.paper_feeds ~seed:8 db in
  let batch = [| 6; 0; 0; 0 |] and batches = 200 in
  let before = Gc.minor_words () in
  for _ = 1 to batches do
    Ivm.Maintainer.ingest m ~next:feeds.Tpcr.Updates.next batch;
    ignore (Ivm.Maintainer.apply m batch)
  done;
  let per_mod = (Gc.minor_words () -. before) /. float_of_int (6 * batches) in
  if per_mod > 400.0 then
    Alcotest.failf "%.0f minor words per PartSupp modification (bound 400)" per_mod

(* The Supplier calibration curve (perfbench paper-durable's sizes, a
   fresh scale-0.05 engine) on the TPC-R MIN view, which has no GROUP BY:
   each Supplier modification fans out into about 80 content changes to
   the view's one group.  With a persistent multiset per aggregated
   column every change rebuilt about log2 N map nodes, 3,103 minor words
   per modification in the dev build (3,003 in release); the counted bag
   updates a count in place and the curve allocates about 1,130.  The
   bound is half of the former.  [Gc.minor_words] counts this domain
   only. *)
let test_supplier_curve_minor_words () =
  let db = Tpcr.Gen.generate ~seed:1 ~scale:0.05 () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter (Tpcr.Gen.min_supplycost_view db)
  in
  let feeds = Tpcr.Updates.paper_feeds ~seed:8 db in
  let sizes = [ 1; 2; 5; 10; 20; 50; 100; 200; 400; 600; 800; 1000 ] in
  let before = Gc.minor_words () in
  ignore (Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes);
  let per_mod =
    (Gc.minor_words () -. before) /. float_of_int (List.fold_left ( + ) 0 sizes)
  in
  if per_mod > 3103.0 /. 2.0 then
    Alcotest.failf "%.0f minor words per Supplier modification (bound %.0f)" per_mod
      (3103.0 /. 2.0)

(* The same PartSupp batches on the major heap: each shared scan of the
   500-row Supplier table took a fresh 500-word selection vector there,
   about 73 major words per modification in the dev build; with the
   vector in the maintainer's scratch, about 9.  The bound is 36. *)
let test_partsupp_batches_major_words () =
  let db = Tpcr.Gen.generate ~seed:1 ~scale:0.05 () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter (Tpcr.Gen.min_supplycost_view db)
  in
  let feeds = Tpcr.Updates.paper_feeds ~seed:8 db in
  let batch = [| 6; 0; 0; 0 |] and batches = 200 in
  let before = (Gc.quick_stat ()).Gc.major_words in
  for _ = 1 to batches do
    Ivm.Maintainer.ingest m ~next:feeds.Tpcr.Updates.next batch;
    ignore (Ivm.Maintainer.apply m batch)
  done;
  let per_mod =
    ((Gc.quick_stat ()).Gc.major_words -. before) /. float_of_int (6 * batches)
  in
  if per_mod > 36.0 then
    Alcotest.failf "%.0f major words per PartSupp modification (bound 36)" per_mod

(* A first-order serve tenant builds its tables' distinct-row
   certificates before it copies the engine for calibration, so the copy
   answers without hashing its 10,000 rows again: a build allocates a
   slot per row, an answer from the carried certificate nothing. *)
let test_copy_carries_certificates () =
  let db = Tpcr.Synth.generate ~seed:1 ~r_rows:10_000 ~s_rows:10_000 () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter (Tpcr.Synth.join_view db)
  in
  let words_to_ask m =
    Array.map
      (fun t ->
        let w0 = Gc.allocated_bytes () in
        let distinct = Relation.Table.distinct_rows t in
        let words = (Gc.allocated_bytes () -. w0) /. 8. in
        checkb "distinct" true distinct;
        words)
      (Ivm.Viewdef.tables (Ivm.Maintainer.view m))
  in
  let before = Relation.Meter.snapshot db.Tpcr.Synth.meter in
  Array.iter
    (fun w -> if w < 10_000. then Alcotest.failf "a build took %.0f words" w)
    (words_to_ask m);
  Array.iter
    (fun w -> if w > 16. then Alcotest.failf "the copy re-hashed: %.0f words" w)
    (words_to_ask (Ivm.Maintainer.copy m));
  checkb "unmetered" true (Relation.Meter.snapshot db.Tpcr.Synth.meter = before)

let () =
  Alcotest.run "ivm"
    [
      ( "pending",
        [
          Alcotest.test_case "fifo" `Quick test_pending_fifo;
          Alcotest.test_case "take too many" `Quick test_pending_take_too_many;
          Alcotest.test_case "take zero" `Quick test_pending_take_zero;
          Alcotest.test_case "take_at_most clamps" `Quick
            test_pending_take_at_most;
          Alcotest.test_case "peek preserves" `Quick test_pending_peek_preserves;
          Alcotest.test_case "compaction" `Quick test_pending_compaction;
          Alcotest.test_case "clear" `Quick test_pending_clear;
        ] );
      ( "change",
        [ Alcotest.test_case "signed tuples" `Quick test_change_signed_tuples ] );
      ( "groups",
        [
          Alcotest.test_case "count/sum" `Quick test_groups_count_sum;
          Alcotest.test_case "min delete exposes next" `Quick
            test_groups_min_delete_exposes_next;
          Alcotest.test_case "group disappears" `Quick test_groups_group_disappears;
          Alcotest.test_case "negative overflow" `Quick test_groups_negative_overflow;
          Alcotest.test_case "refused apply is atomic" `Quick
            test_groups_refused_apply_atomic;
          Alcotest.test_case "global empty row" `Quick test_groups_global_empty_row;
          Alcotest.test_case "multi-count application" `Quick
            test_groups_multi_count_application;
          Alcotest.test_case "avg and max" `Quick test_groups_avg_and_max;
        ] );
      ( "viewdef",
        [
          Alcotest.test_case "rejects disconnected" `Quick
            test_viewdef_rejects_disconnected;
          Alcotest.test_case "rejects self-join" `Quick test_viewdef_rejects_self_join;
          Alcotest.test_case "rejects parallel edges" `Quick
            test_viewdef_rejects_parallel_edges;
          Alcotest.test_case "rejects agg+projection" `Quick
            test_viewdef_rejects_agg_with_projection;
          Alcotest.test_case "rejects bad filter column" `Quick
            test_viewdef_rejects_bad_filter_column;
          Alcotest.test_case "joined schema" `Quick test_viewdef_joined_schema;
          Alcotest.test_case "reference plan cardinality" `Quick
            test_viewdef_reference_plan_cardinality;
          Alcotest.test_case "edges of table" `Quick test_viewdef_edges_of_table;
        ] );
      ( "maintainer-spj",
        [
          Alcotest.test_case "initial content" `Quick test_maintainer_initial_content;
          Alcotest.test_case "insert then process" `Quick
            test_maintainer_insert_then_process;
          Alcotest.test_case "delete" `Quick test_maintainer_delete;
          Alcotest.test_case "update moves partner" `Quick
            test_maintainer_update_moves_join_partner;
          Alcotest.test_case "deferred asymmetric prefixes" `Quick
            test_maintainer_deferred_asymmetric_prefixes;
          Alcotest.test_case "partial batch" `Quick test_maintainer_partial_batch;
          Alcotest.test_case "apply refuses the whole action" `Quick
            test_maintainer_apply_refuses_whole;
          Alcotest.test_case "same row twice in batch" `Quick
            test_maintainer_same_row_twice_in_batch;
          Alcotest.test_case "insert+delete same batch" `Quick
            test_maintainer_insert_then_delete_same_batch;
          Alcotest.test_case "delete missing rejected" `Quick
            test_maintainer_delete_missing_tuple_rejected;
          Alcotest.test_case "process zero is free" `Quick
            test_maintainer_process_zero_free;
          Alcotest.test_case "step kernel: ingest, apply" `Quick
            test_maintainer_step_kernel;
          Alcotest.test_case "batch setup charged once" `Quick
            test_maintainer_batch_setup_charged_once;
          Alcotest.test_case "filtered view" `Quick test_maintainer_filtered_view;
          Alcotest.test_case "projected view" `Quick test_maintainer_projected_view;
        ] );
      ( "maintainer-agg",
        [
          Alcotest.test_case "min view via join" `Quick test_maintainer_min_view_via_join;
          Alcotest.test_case "group-by view" `Quick test_maintainer_group_by_view;
          Alcotest.test_case "three table chain" `Quick test_maintainer_four_table_chain;
          Alcotest.test_case "scan table equivalence" `Quick
            test_maintainer_scan_table_equivalence;
          Alcotest.test_case "refresh meter delta" `Quick
            test_maintainer_refresh_meter_delta;
          Alcotest.test_case "Supplier batches: major words per modification"
            `Quick test_supplier_batches_major_words;
          Alcotest.test_case "PartSupp batches: minor words per modification"
            `Quick test_partsupp_batches_minor_words;
          Alcotest.test_case "Supplier curve: minor words per modification"
            `Quick test_supplier_curve_minor_words;
          Alcotest.test_case "copy carries the certificates" `Quick
            test_copy_carries_certificates;
          Alcotest.test_case "PartSupp batches: major words per modification"
            `Quick test_partsupp_batches_major_words;
        ] );
    ]
