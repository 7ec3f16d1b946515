(* The row-id delta-join kernel (Ivm.Deltajoin) against the per-tuple
   expansion it replaced (Tuple_oracle): random first- and higher-order
   views, every batch processed by the maintainer and by the oracle on a
   twin database, unrouted (each table on the path its view's scan set
   declares) or routed (each change on a lane by its row's hash).  After
   every batch the meter deltas must be equal field by field and the view
   must pass check_consistent.  The two ways of saying "scan" agree: a
   view's scan table meters what a route sending that table to the scan
   lane meters.  Plus the cyclic-join policy: Viewdef refuses a cycle,
   the SQL translator turns the closing equality into a filter. *)

open Relation

let checkb = Alcotest.check Alcotest.bool

let snapshot_string s = Format.asprintf "%a" Meter.pp s

(* A random batch for table [i] given its live rows: deletes and updates
   of distinct live rows, inserts of fresh rows and of copies of live rows
   (duplicate values), and now and then an insert deleted again later in
   the same batch. *)
let rand_changes st live =
  let live = Array.of_list (Viewgen.shuffle st live) in
  let n = Array.length live in
  let taken = ref 0 in
  let take () =
    if !taken < n then begin
      incr taken;
      Some live.(!taken - 1)
    end
    else None
  in
  let change () =
    match Random.State.int st 6 with
    | 0 | 1 -> Option.map (fun t -> Ivm.Change.Delete t) (take ())
    | 2 ->
        Option.map
          (fun before -> Ivm.Change.Update { before; after = Viewgen.rand_row st })
          (take ())
    | 3 when n > 0 -> Some (Ivm.Change.Insert (Array.copy live.(Random.State.int st n)))
    | _ -> Some (Ivm.Change.Insert (Viewgen.rand_row st))
  in
  let changes = List.filter_map (fun _ -> change ()) (List.init (1 + Random.State.int st 6) Fun.id) in
  if Random.State.int st 4 = 0 then begin
    let row = Viewgen.rand_row st in
    (Ivm.Change.Insert row :: changes) @ [ Ivm.Change.Delete row ]
  end
  else changes

(* A route by the hash of the row a change touches first, so changes of
   one row share a lane. *)
let route_by_row salt _ = function
  | Ivm.Change.Insert t | Ivm.Change.Delete t | Ivm.Change.Update { before = t; _ } ->
      if (Tuple.hash t lxor salt) land 1 = 0 then `Index else `Scan

let test_random_views () =
  let st = Random.State.make [| 0xD1; 19 |] in
  let ho = ref 0 and routed = ref 0 in
  for case = 1 to 150 do
    let twin = Random.State.copy st in
    let v = Viewgen.rand_view ~meter:(Meter.create ()) st in
    let w = Viewgen.rand_view ~meter:(Meter.create ()) twin in
    if Ivm.Viewdef.order v = Ivm.Viewdef.Higher_order then incr ho;
    let route =
      if Random.State.bool st then Some (route_by_row (Random.State.bits st)) else None
    in
    if route <> None then incr routed;
    let m = Ivm.Maintainer.create v in
    Option.iter (Ivm.Maintainer.route m) route;
    let o = Tuple_oracle.create ?route ~meter:(Table.meter (Ivm.Viewdef.tables w).(0)) w in
    let tables = Ivm.Viewdef.tables v in
    for round = 1 to 8 do
      let i = Random.State.int st (Array.length tables) in
      let changes = rand_changes st (Table.to_list_unmetered tables.(i)) in
      List.iter (Ivm.Maintainer.on_arrive m i) changes;
      List.iter (Tuple_oracle.on_arrive o i) changes;
      let queues = if route = None then [ i ] else [ 2 * i; (2 * i) + 1 ] in
      List.iter
        (fun q ->
          let k = Ivm.Maintainer.pending_size m q in
          let got = Ivm.Maintainer.process m q k in
          let want = Tuple_oracle.process o q k in
          let label what =
            Printf.sprintf "case %d round %d, %s batch of %d into t%d, %s: %s" case
              round
              (Ivm.Viewdef.order_name (Ivm.Viewdef.order v))
              k i
              (if route = None then "unrouted" else Printf.sprintf "lane %d" q)
              what
          in
          if got <> want then
            Alcotest.failf "%s\nkernel %s\noracle %s" (label "meter")
              (snapshot_string got) (snapshot_string want);
          match Ivm.Maintainer.check_consistent m with
          | Ok () -> ()
          | Error e -> Alcotest.failf "%s: %s" (label "consistency") e)
        queues
    done
  done;
  checkb "both orders drawn" true (!ho > 20 && !ho < 130);
  checkb "routed and unrouted drawn" true (!routed > 20 && !routed < 130)

(* The two ways of saying "scan" agree: on twin databases, a view listing
   table [s] as its one scan table and a maintainer routed to send every
   change of [s] to the scan lane and every other change to the index
   lane meter the same bits and hold the same rows after every batch. *)
let test_scan_table_is_scan_lane () =
  let st = Random.State.make [| 0x5CA; 42 |] in
  for case = 1 to 100 do
    let twin = Random.State.copy st in
    let v = Viewgen.rand_view ~meter:(Meter.create ()) st in
    let w = Viewgen.rand_view ~meter:(Meter.create ()) twin in
    let tables = Ivm.Viewdef.tables v in
    let s = Random.State.int st (Array.length tables) in
    let listed = Ivm.Maintainer.create (Viewgen.with_scan_tables v [ s ]) in
    let routed = Ivm.Maintainer.create (Viewgen.with_scan_tables w []) in
    let path i = if i = s then `Scan else `Index in
    Ivm.Maintainer.route routed (fun i _ -> path i);
    for round = 1 to 8 do
      let i = Random.State.int st (Array.length tables) in
      let changes = rand_changes st (Table.to_list_unmetered tables.(i)) in
      List.iter (Ivm.Maintainer.on_arrive listed i) changes;
      List.iter (Ivm.Maintainer.on_arrive routed i) changes;
      let k = List.length changes in
      let got = Ivm.Maintainer.process listed i k in
      let want = Ivm.Maintainer.process routed (Ivm.Maintainer.lane ~table:i (path i)) k in
      if got <> want then
        Alcotest.failf "case %d round %d, batch of %d into t%d, scan table t%d\n\
                        listed %s\nrouted %s"
          case round k i s (snapshot_string got) (snapshot_string want);
      if not (List.equal Tuple.equal (Ivm.Maintainer.rows listed) (Ivm.Maintainer.rows routed))
      then Alcotest.failf "case %d round %d: rows differ" case round
    done
  done

(* A duplicate-heavy case spelled out: two equal partner rows joined by
   one delta net into one content row of count 2 (one output bump), and a
   delete and re-insert of one delta row cancel (no output at all). *)
let test_equal_rows_net () =
  let schema = Schema.make [ ("k", Datatype.TInt); ("v", Datatype.TInt) ] in
  let meter = Meter.create () in
  let a = Table.create ~meter ~name:"a" ~schema () in
  let b = Table.create ~meter ~name:"b" ~schema () in
  let row k v = [| Value.Int k; Value.Int v |] in
  ignore (Table.insert a (row 1 10));
  ignore (Table.insert b (row 1 7));
  ignore (Table.insert b (row 1 7));
  let v =
    Ivm.Viewdef.make ~name:"dups" ~tables:[| a; b |]
      ~join:[ { Ivm.Viewdef.left = 0; left_col = "k"; right = 1; right_col = "k" } ]
      ~scan_tables:[ 0 ] ()
  in
  let m = Ivm.Maintainer.create v in
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert (row 1 11));
  let d = Ivm.Maintainer.process m 0 1 in
  Alcotest.(check int) "two equal joined rows, one net row" 1 d.Meter.output;
  Alcotest.(check int) "four view rows" 4 (List.length (Ivm.Maintainer.rows m));
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Delete (row 1 10));
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert (row 1 10));
  let d = Ivm.Maintainer.process m 0 2 in
  Alcotest.(check int) "delete + re-insert cancel" 0 d.Meter.output;
  checkb "consistent" true (Ivm.Maintainer.check_consistent m = Ok ())

(* --- cyclic join graphs -------------------------------------------------------- *)

let triangle_tables () =
  let schema = Schema.make [ ("a", Datatype.TInt); ("b", Datatype.TInt) ] in
  let meter = Meter.create () in
  Array.map
    (fun name ->
      let t = Table.create ~meter ~name ~schema () in
      for i = 0 to 11 do
        ignore (Table.insert t [| Value.Int (i mod 3); Value.Int (i mod 4) |])
      done;
      t)
    [| "r"; "s"; "u" |]

let test_triangle_refused () =
  let tables = triangle_tables () in
  let e l lc r rc = { Ivm.Viewdef.left = l; left_col = lc; right = r; right_col = rc } in
  Alcotest.check_raises "closing edge named"
    (Invalid_argument
       "Viewdef.make: join edge u.a = r.b closes a cycle in the join graph; \
        express the extra equality as a filter conjunct")
    (fun () ->
      ignore
        (Ivm.Viewdef.make ~name:"tri" ~tables
           ~join:[ e 0 "a" 1 "a"; e 1 "b" 2 "b"; e 2 "a" 0 "b" ]
           ()))

let test_sql_triangle_maintains () =
  let st = Random.State.make [| 0x7A1; 19 |] in
  List.iter
    (fun order ->
      let tables = triangle_tables () in
      let catalog name = Array.find_opt (fun t -> Table.name t = name) tables in
      match
        Sqlview.Translate.view_of_sql ~name:"tri" ~catalog
          "SELECT r.a, COUNT(*) AS n, SUM(u.b) AS s FROM r, s, u \
           WHERE r.a = s.a AND s.b = u.b AND u.a = r.b GROUP BY r.a"
      with
      | Error e -> Alcotest.fail e
      | Ok v ->
          let v = Ivm.Viewdef.with_order v order in
          Alcotest.(check int) "two edges" 2 (List.length (Ivm.Viewdef.join_edges v));
          checkb "closing equality filtered" true (Ivm.Viewdef.filter v <> None);
          let m = Ivm.Maintainer.create v in
          Ivm.Maintainer.route m (route_by_row (Random.State.bits st));
          for _ = 1 to 30 do
            let i = Random.State.int st 3 in
            let live = Table.to_list_unmetered tables.(i) in
            let changes =
              List.filter_map
                (fun t -> if Random.State.int st 6 = 0 then Some (Ivm.Change.Delete t) else None)
                live
              @ List.init (Random.State.int st 4) (fun _ ->
                    Ivm.Change.Insert
                      [| Value.Int (Random.State.int st 3); Value.Int (Random.State.int st 4) |])
            in
            List.iter (Ivm.Maintainer.on_arrive m i) changes;
            List.iter
              (fun q -> ignore (Ivm.Maintainer.process m q (Ivm.Maintainer.pending_size m q)))
              [ 2 * i; (2 * i) + 1 ];
            match Ivm.Maintainer.check_consistent m with
            | Ok () -> ()
            | Error e -> Alcotest.fail e
          done)
    [ Ivm.Viewdef.First_order; Ivm.Viewdef.Higher_order ]

let () =
  Alcotest.run "deltajoin"
    [
      ( "differential",
        [
          Alcotest.test_case "150 random views: kernel meter = per-tuple oracle" `Quick
            test_random_views;
          Alcotest.test_case "equal-valued rows net" `Quick test_equal_rows_net;
          Alcotest.test_case "scan table = route to the scan lane" `Quick
            test_scan_table_is_scan_lane;
        ] );
      ( "cycles",
        [
          Alcotest.test_case "hand-built triangle refused" `Quick test_triangle_refused;
          Alcotest.test_case "SQL triangle maintains" `Quick test_sql_triangle_maintains;
        ] );
    ]
