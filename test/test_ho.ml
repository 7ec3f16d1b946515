(* Higher-order maintenance equivalence suite.

   The contract under test: a [Higher_order] maintainer — view deltas
   probed out of materialized per-table delta views instead of
   delta-joined against the base tables — produces *bit-identical* view
   content to the [First_order] maintainer and to a from-scratch
   recompute, at every prefix of every update stream.

   Structure:
   - a 340+-seeded-instance property: FO/HO twin engines over identical
     seeded databases and streams (uniform and Zipfian-skewed), driven
     through a seeded arrival/batch schedule with rows compared after
     every processed batch, plus [check_consistent] on both twins (under
     HO that also re-derives every delta view from scratch);
   - directed suites for the classic trouble spots: NULL join keys,
     empty batches, duplicate rows in one batch, delete-to-empty, and
     updates that move a tuple across join groups;
   - a four-table directed run on the paper's MIN(supplycost) view;
   - the metered cost-curve claims: HO at least 2x cheaper than FO on the
     dR path at small batches, and a flatter dS slope.

   Aggregates in the property views are COUNT and SUM over integer-valued
   columns, so maintained floats are exact and order-independent —
   bit-equality is the right assertion, not approximate equality. *)

open Relation

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let vi x = Value.Int x
let vf x = Value.Float x
let ti = Datatype.TInt
let tf = Datatype.TFloat

let consistent label m =
  match Ivm.Maintainer.check_consistent m with
  | Ok () -> true
  | Error msg ->
      Printf.eprintf "%s inconsistent: %s\n" label msg;
      false

let rows_equal fo ho =
  List.equal Tuple.equal (Ivm.Maintainer.rows fo) (Ivm.Maintainer.rows ho)

let fail_instance what descr =
  Alcotest.failf "%s (instance %s)" what descr

(* Drive both twins through an identical seeded schedule, checking
   bit-equality after every processed batch and full consistency (which
   under HO re-derives every delta view) at the end. *)
let run_twins ~descr ~g (fo : Gen.engine) (ho : Gen.engine) =
  let n = Ivm.Viewdef.n_tables (Ivm.Maintainer.view fo.Gen.maintainer) in
  let steps = 3 + Util.Prng.int g 4 in
  for _ = 1 to steps do
    for i = 0 to n - 1 do
      Gen.arrive_all [ fo; ho ] i (Util.Prng.int g 5)
    done;
    for i = 0 to n - 1 do
      let pending = Ivm.Maintainer.pending_size fo.Gen.maintainer i in
      if pending > 0 && Util.Prng.int g 4 > 0 then begin
        let k = 1 + Util.Prng.int g pending in
        ignore (Ivm.Maintainer.process fo.Gen.maintainer i k);
        ignore (Ivm.Maintainer.process ho.Gen.maintainer i k);
        if not (rows_equal fo.Gen.maintainer ho.Gen.maintainer) then
          fail_instance "HO rows diverge from FO after batch" descr
      end
    done
  done;
  ignore (Ivm.Maintainer.refresh fo.Gen.maintainer);
  ignore (Ivm.Maintainer.refresh ho.Gen.maintainer);
  if not (rows_equal fo.Gen.maintainer ho.Gen.maintainer) then
    fail_instance "HO rows diverge from FO after refresh" descr;
  if not (consistent "FO" fo.Gen.maintainer) then
    fail_instance "FO diverges from recompute" descr;
  if not (consistent "HO" ho.Gen.maintainer) then
    fail_instance "HO diverges from recompute" descr

let test_equivalence_uniform () =
  for seed = 0 to 139 do
    let fo, ho = Gen.twin_engines ~seed () in
    let descr = Gen.describe_engine (Gen.engine_params ~seed) in
    run_twins ~descr ~g:(Util.Prng.create ~seed:(seed + 7000)) fo ho
  done

let test_equivalence_zipf () =
  for seed = 200 to 339 do
    let fo, ho = Gen.twin_engines ~zipf:true ~seed () in
    let descr = "zipf " ^ Gen.describe_engine (Gen.engine_params ~seed) in
    run_twins ~descr ~g:(Util.Prng.create ~seed:(seed + 9000)) fo ho
  done

(* Group-by twins: COUNT plus SUM over the (integer-valued) r.rk column,
   so the maintained aggregate state is float-exact and bit-comparable. *)
let grouped_twins ~seed =
  let p = Gen.engine_params ~seed in
  let mk order =
    let e = Gen.engine_of_params ~order p in
    let db = e.Gen.db in
    let view =
      Ivm.Viewdef.make ~name:"g"
        ~tables:[| db.Tpcr.Synth.r; db.Tpcr.Synth.s |]
        ~join:
          [ { Ivm.Viewdef.left = 0; left_col = "jk"; right = 1; right_col = "jk" } ]
        ~group_by:[ "r.jk" ]
        ~aggs:[ Agg.count "n"; Agg.sum "r.rk" ~as_name:"sk" ]
        ()
    in
    { e with Gen.maintainer = Ivm.Maintainer.create ~order view }
  in
  (mk Ivm.Viewdef.First_order, mk Ivm.Viewdef.Higher_order)

let test_equivalence_grouped () =
  for seed = 400 to 459 do
    let fo, ho = grouped_twins ~seed in
    let descr = "grouped " ^ Gen.describe_engine (Gen.engine_params ~seed) in
    run_twins ~descr ~g:(Util.Prng.create ~seed:(seed + 11_000)) fo ho
  done

(* --- Directed suites ---------------------------------------------------- *)

let r_schema = Schema.make [ ("rk", ti); ("jk", ti) ]
let s_schema = Schema.make [ ("sk", ti); ("jk", ti); ("w", tf) ]

(* A tiny hand-built R ⋈ S pair (R indexed on jk, S not) with FO/HO twin
   maintainers over *independent* copies, plus a driver that applies the
   same change sequence to both and checks bit-equality throughout. *)
let directed_twins ?group_by ?aggs () =
  let mk order =
    let meter = Meter.create () in
    let r = Table.create ~meter ~name:"r" ~schema:r_schema () in
    let s = Table.create ~meter ~name:"s" ~schema:s_schema () in
    Table.create_index r "jk";
    for i = 0 to 5 do
      ignore (Table.insert r (Tuple.make [ vi i; vi (i mod 3) ]))
    done;
    for i = 0 to 7 do
      ignore (Table.insert s (Tuple.make [ vi i; vi (i mod 4); vf (float_of_int i) ]))
    done;
    let view =
      Ivm.Viewdef.make ~name:"d" ~tables:[| r; s |]
        ~join:
          [ { Ivm.Viewdef.left = 0; left_col = "jk"; right = 1; right_col = "jk" } ]
        ?group_by
        ~aggs:(Option.value aggs ~default:[ Agg.count "n" ])
        ()
    in
    Ivm.Maintainer.create ~order view
  in
  (mk Ivm.Viewdef.First_order, mk Ivm.Viewdef.Higher_order)

let apply_batches fo ho batches =
  List.iter
    (fun (i, changes) ->
      List.iter
        (fun c ->
          Ivm.Maintainer.on_arrive fo i c;
          Ivm.Maintainer.on_arrive ho i c)
        changes;
      ignore (Ivm.Maintainer.process fo i (List.length changes));
      ignore (Ivm.Maintainer.process ho i (List.length changes));
      checkb "rows bit-equal after batch" true (rows_equal fo ho);
      checkb "FO consistent" true (consistent "FO" fo);
      checkb "HO consistent" true (consistent "HO" ho))
    batches

let test_directed_null_keys () =
  let fo, ho = directed_twins () in
  (* NULL join keys arriving on both sides, mixed with matchable rows:
     whatever the engine's NULL-join semantics, HO must reproduce FO and
     the recompute exactly. *)
  apply_batches fo ho
    [
      (0, [ Ivm.Change.Insert (Tuple.make [ vi 100; Value.Null ]) ]);
      ( 1,
        [
          Ivm.Change.Insert (Tuple.make [ vi 100; Value.Null; vf 1.0 ]);
          Ivm.Change.Insert (Tuple.make [ vi 101; vi 0; vf 2.0 ]);
        ] );
      (0, [ Ivm.Change.Delete (Tuple.make [ vi 100; Value.Null ]) ]);
    ]

let test_directed_empty_delta () =
  let fo, ho = directed_twins () in
  let before = Ivm.Maintainer.rows ho in
  let snap = Ivm.Maintainer.process ho 0 0 in
  checkb "empty HO batch is free" true (Meter.cost_units snap = 0.0);
  checkb "rows untouched" true (List.equal Tuple.equal before (Ivm.Maintainer.rows ho));
  ignore (Ivm.Maintainer.process fo 0 0);
  checkb "rows bit-equal" true (rows_equal fo ho)

let test_directed_duplicate_keys () =
  let fo, ho = directed_twins ~group_by:[ "r.jk" ] () in
  let dup = Tuple.make [ vi 200; vi 1 ] in
  (* The same physical row twice in one batch (multiplicity 2), then one
     copy removed: exercises counted-bag semantics inside the delta
     views' multiset merge. *)
  apply_batches fo ho
    [
      (0, [ Ivm.Change.Insert dup; Ivm.Change.Insert dup ]);
      (0, [ Ivm.Change.Delete dup ]);
    ]

let test_directed_delete_to_empty () =
  let fo, ho = directed_twins () in
  (* Drain S entirely: the join result and every anchored delta-view
     entry must collapse to empty without leaving multiplicity
     residue. *)
  let deletes =
    List.init 8 (fun i ->
        Ivm.Change.Delete (Tuple.make [ vi i; vi (i mod 4); vf (float_of_int i) ]))
  in
  apply_batches fo ho [ (1, deletes) ];
  (match Ivm.Maintainer.rows ho with
  | [ row ] -> checkb "count collapsed to zero" true (Value.equal (vi 0) (Tuple.get row 0))
  | [] -> ()
  | _ -> Alcotest.fail "unexpected multi-row count view");
  (* And refill — the delta views must rebuild from the empty state. *)
  apply_batches fo ho
    [ (1, [ Ivm.Change.Insert (Tuple.make [ vi 50; vi 2; vf 9.0 ]) ]) ]

let test_directed_update_moves_join_key () =
  let fo, ho = directed_twins ~group_by:[ "r.jk" ] () in
  (* An Update that moves an R row across join groups is a signed
     (-before, +after) pair hitting two different delta-view anchors in
     one batch. *)
  apply_batches fo ho
    [
      ( 0,
        [
          Ivm.Change.Update
            {
              before = Tuple.make [ vi 3; vi 0 ];
              after = Tuple.make [ vi 3; vi 2 ];
            };
        ] );
      ( 1,
        [
          Ivm.Change.Update
            {
              before = Tuple.make [ vi 2; vi 2; vf 2.0 ];
              after = Tuple.make [ vi 2; vi 0; vf 2.0 ];
            };
        ] );
    ]

(* [Deltaview.check]'s failure paths, on an HO engine whose base tables
   are changed behind its back.  A new row of R is a rebuilt subtuple the
   store has no slot for; deleting one copy of a row R holds twice leaves
   its slot's count above the rebuilt rows'.  Each report names the
   owner, the component, the first differing subtuple and both counts,
   and a check reports every diverged component. *)
let delta_view_check_after label tamper want =
  let _, ho = directed_twins () in
  let dup = Tuple.make [ vi 0; vi 0 ] in
  Ivm.Maintainer.on_arrive ho 0 (Ivm.Change.Insert dup);
  ignore (Ivm.Maintainer.process ho 0 1);
  let dv = Option.get (Ivm.Maintainer.delta_view ho) in
  checkb (label ^ ": consistent before") true (Ivm.Deltaview.check dv = Ok ());
  let tables = Ivm.Viewdef.tables (Ivm.Maintainer.view ho) in
  tamper tables.(0) tables.(1) dup;
  Alcotest.check
    Alcotest.(result unit string)
    (label ^ ": refused") (Error want) (Ivm.Deltaview.check dv)

(* R is only in S's delta view, as its one component. *)
let test_check_sees_inserted_row () =
  delta_view_check_after "inserted"
    (fun r _ _ -> ignore (Table.insert r (Tuple.make [ vi 99; vi 1 ])))
    "delta view d(d)/d(s): component 0 diverged from recompute at (99, 1): \
     maintained 0, rebuilt 1"

let test_check_sees_deleted_row () =
  delta_view_check_after "deleted"
    (fun r _ dup -> checkb "one copy deleted" true (Table.delete_tuple r dup))
    "delta view d(d)/d(s): component 0 diverged from recompute at (0, 0): \
     maintained 2, rebuilt 1"

let test_check_reports_every_component () =
  delta_view_check_after "both tables"
    (fun r s dup ->
      checkb "one copy deleted" true (Table.delete_tuple r dup);
      ignore (Table.insert s (Tuple.make [ vi 70; vi 3; vf 7.0 ])))
    "delta view d(d)/d(r): component 0 diverged from recompute at (70, 3, 7): \
     maintained 0, rebuilt 1; delta view d(d)/d(s): component 0 diverged from \
     recompute at (0, 0): maintained 2, rebuilt 1"

let test_directed_min_supplycost_view () =
  (* The paper's four-table MIN view at tiny scale: delta views here span
     multi-table components (e.g. Supplier's owner view joins PartSupp
     with Nation ⋈ Region), and MIN is comparison-based so bit-equality
     holds for float supplycosts too. *)
  let mk order =
    let db = Tpcr.Gen.generate ~seed:5 ~scale:0.002 () in
    let m = Ivm.Maintainer.create ~order (Tpcr.Gen.min_supplycost_view db) in
    let feeds = Tpcr.Updates.paper_feeds ~seed:21 db in
    (m, feeds)
  in
  let fo, fo_feeds = mk Ivm.Viewdef.First_order in
  let ho, ho_feeds = mk Ivm.Viewdef.Higher_order in
  checkb "initial rows bit-equal" true (rows_equal fo ho);
  for round = 1 to 4 do
    for i = 0 to 1 do
      for _ = 1 to 3 do
        Ivm.Maintainer.on_arrive fo i (fo_feeds.Tpcr.Updates.next i);
        Ivm.Maintainer.on_arrive ho i (ho_feeds.Tpcr.Updates.next i)
      done;
      ignore (Ivm.Maintainer.process fo i 3);
      ignore (Ivm.Maintainer.process ho i 3);
      checkb
        (Printf.sprintf "rows bit-equal round %d table %d" round i)
        true (rows_equal fo ho)
    done
  done;
  checkb "FO consistent" true (consistent "FO" fo);
  checkb "HO consistent" true (consistent "HO" ho)

let test_ho_metering_flat_probe () =
  (* The point of the whole exercise: under HO a batch against the
     delta view costs hash probes + retrieved entries, not a scan of the
     partner table — so doubling the partner's size must not change the
     HO batch cost for a fixed delta. *)
  let cost_at ~s_rows =
    let db = Tpcr.Synth.generate ~seed:3 ~r_rows:50 ~s_rows () in
    let m =
      Ivm.Maintainer.create ~order:Ivm.Viewdef.Higher_order
        (Tpcr.Synth.join_view db)
    in
    let feeds = Tpcr.Synth.insert_feeds ~seed:13 db in
    for _ = 1 to 4 do
      Ivm.Maintainer.on_arrive m 0 (feeds.Tpcr.Updates.next 0)
    done;
    Meter.cost_units (Ivm.Maintainer.process m 0 4)
  in
  let small = cost_at ~s_rows:100 and big = cost_at ~s_rows:400 in
  checkb
    (Printf.sprintf "HO ΔR cost flat in |S| (%.1f vs %.1f)" small big)
    true
    (big <= small *. 1.5)

(* The cost-curve claims on a 160x160 synth join (R indexed on the join
   key, S not), both orders metered on fresh twin engines: on the dR path
   a FO batch scans S once while HO probes d(V)/d(R) per tuple, so HO must
   be at least 2x cheaper at small batches; on the indexed dS path the
   win is a flatter fitted slope. *)
let test_ho_cost_curves () =
  let make order =
    let db = Tpcr.Synth.generate ~seed:7 ~r_rows:160 ~s_rows:160 () in
    ( Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter ~order
        (Tpcr.Synth.join_view db),
      Tpcr.Synth.insert_feeds ~seed:11 db )
  in
  let curves table =
    List.map
      (fun order ->
        let m, feeds = make order in
        (order, Bridge.Calibrate.measure_curve m feeds ~table ~sizes:[ 1; 8; 32 ]))
      [ Ivm.Viewdef.First_order; Ivm.Viewdef.Higher_order ]
  in
  let fo = Ivm.Viewdef.First_order and ho = Ivm.Viewdef.Higher_order in
  let dr = curves 0 and ds = curves 1 in
  List.iter
    (fun k ->
      let cost order = List.assoc k (List.assoc order dr) in
      let speedup = cost fo /. cost ho in
      checkb
        (Printf.sprintf "HO >= 2x FO on dR at k=%d (%.1fx)" k speedup)
        true (speedup >= 2.0))
    [ 1; 8 ];
  checkb
    (Printf.sprintf "HO dS slope %.2f flatter than FO's %.2f"
       (Cost.Fit.slope (List.assoc ho ds))
       (Cost.Fit.slope (List.assoc fo ds)))
    true
    (Cost.Fit.flatter (List.assoc ho ds) ~than:(List.assoc fo ds))

let test_order_accessors () =
  let db = Tpcr.Synth.generate ~seed:1 ~r_rows:10 ~s_rows:10 () in
  let v = Tpcr.Synth.join_view db in
  checkb "view default FO" true (Ivm.Viewdef.order v = Ivm.Viewdef.First_order);
  let v' = Ivm.Viewdef.with_order v Ivm.Viewdef.Higher_order in
  checkb "with_order" true (Ivm.Viewdef.order v' = Ivm.Viewdef.Higher_order);
  let m = Ivm.Maintainer.create v' in
  checkb "maintainer inherits view order" true
    (Ivm.Maintainer.order m = Ivm.Viewdef.Higher_order);
  checkb "delta views materialized" true (Ivm.Maintainer.delta_view m <> None);
  let fo = Ivm.Maintainer.create ~order:Ivm.Viewdef.First_order v' in
  checkb "explicit order wins" true (Ivm.Maintainer.order fo = Ivm.Viewdef.First_order);
  checkb "FO has no delta views" true (Ivm.Maintainer.delta_view fo = None);
  checki "order names distinct" 2
    (List.length
       (List.sort_uniq compare
          [
            Ivm.Viewdef.order_name Ivm.Viewdef.First_order;
            Ivm.Viewdef.order_name Ivm.Viewdef.Higher_order;
          ]))

(* --- Maintainer.copy ------------------------------------------------------ *)

(* Fidelity and independence of [Maintainer.copy].  [make ()] builds a
   maintainer and its update feed from scratch, deterministically, so two
   calls give content-identical twins.  Both get the same arrivals, then
   one is copied: the copy (fed by the original's feed) and the twin (fed
   by its own) run the same seeded batches, and every batch must meter
   the same counters and leave the same rows.  The original must come out
   untouched: rows, meter, delta-view entries, pending queues, base
   tables and every index lookup.  Only the first [fed] tables (default:
   all) have an update feed. *)
let check_copy ~label ~seed ?fed make =
  let g = Util.Prng.create ~seed in
  let original, next = make () and twin, twin_next = make () in
  let n = Ivm.Viewdef.n_tables (Ivm.Maintainer.view original) in
  let fed = Option.value fed ~default:n in
  let arrive i k =
    Ivm.Maintainer.ingest original ~next
      (Array.init n (fun j -> if j = i then k else 0));
    Ivm.Maintainer.ingest twin ~next:twin_next
      (Array.init n (fun j -> if j = i then k else 0))
  in
  for i = 0 to fed - 1 do
    arrive i (1 + Util.Prng.int g 4)
  done;
  let tables m = Array.to_list (Ivm.Viewdef.tables (Ivm.Maintainer.view m)) in
  let lookups () =
    List.concat_map
      (fun table ->
        let schema = Table.schema table in
        List.concat
          (List.init (Schema.arity schema) (fun c ->
               let col = Schema.column_name schema c in
               if not (Table.has_index table col) then []
               else
                 List.sort_uniq Value.compare
                   (List.map (fun t -> t.(c)) (Table.to_list_unmetered table))
                 |> List.map (fun v ->
                        let ids = ref [] in
                        Table.iter_ids table col v (fun id -> ids := id :: !ids);
                        List.sort compare !ids))))
      (tables original)
  in
  let entries m =
    Option.fold ~none:0 ~some:Ivm.Deltaview.entries (Ivm.Maintainer.delta_view m)
  in
  let state m =
    ( Ivm.Maintainer.rows m,
      Ivm.Maintainer.pending_sizes m,
      entries m,
      List.map (fun t -> (Table.row_count t, Table.to_list_unmetered t)) (tables m) )
  in
  let before_lookups = lookups () in
  let before_meter = Meter.snapshot (Ivm.Maintainer.meter original) in
  let before = state original in
  let copy = Ivm.Maintainer.copy original in
  checkb (label ^ ": copy starts equal to the original") true (state copy = before);
  checkb (label ^ ": copy is on a fresh meter") true
    (Ivm.Maintainer.meter copy != Ivm.Maintainer.meter original);
  for round = 1 to 5 do
    for i = 0 to fed - 1 do
      let k = Util.Prng.int g 6 in
      let batch = Array.init n (fun j -> if j = i then k else 0) in
      Ivm.Maintainer.ingest copy ~next batch;
      Ivm.Maintainer.ingest twin ~next:twin_next batch
    done;
    for i = 0 to fed - 1 do
      let k = Util.Prng.int g (Ivm.Maintainer.pending_size twin i + 1) in
      let got = Ivm.Maintainer.process copy i k
      and want = Ivm.Maintainer.process twin i k in
      checkb
        (Printf.sprintf "%s: round %d table %d k=%d meters the same" label round
           i k)
        true (got = want);
      checkb
        (Printf.sprintf "%s: round %d table %d rows equal" label round i)
        true
        (List.equal Tuple.equal (Ivm.Maintainer.rows copy) (Ivm.Maintainer.rows twin))
    done
  done;
  checkb (label ^ ": copy consistent") true (consistent (label ^ " copy") copy);
  checkb (label ^ ": original's meter untouched") true
    (Meter.snapshot (Ivm.Maintainer.meter original) = before_meter);
  checkb (label ^ ": original's state untouched") true (state original = before);
  checkb (label ^ ": original's index lookups untouched") true
    (lookups () = before_lookups);
  ignore (Ivm.Maintainer.refresh original);
  checkb (label ^ ": original still maintains") true
    (consistent (label ^ " original") original)

let synth_copy_make order () =
  let db = Tpcr.Synth.generate ~seed:9 ~r_rows:60 ~s_rows:60 () in
  let m = Ivm.Maintainer.create ~order (Tpcr.Synth.join_view db) in
  (m, (Tpcr.Synth.insert_feeds ~seed:19 db).Tpcr.Updates.next)

let test_copy_synth () =
  check_copy ~label:"FO synth" ~seed:1 (synth_copy_make Ivm.Viewdef.First_order);
  check_copy ~label:"HO synth" ~seed:2 (synth_copy_make Ivm.Viewdef.Higher_order)

let test_copy_min_view () =
  let make order () =
    let db = Tpcr.Gen.generate ~seed:5 ~scale:0.002 () in
    let m = Ivm.Maintainer.create ~order (Tpcr.Gen.min_supplycost_view db) in
    (m, (Tpcr.Updates.paper_feeds ~seed:21 db).Tpcr.Updates.next)
  in
  (* PartSupp and Supplier updates; Nation and Region are static *)
  check_copy ~label:"FO min" ~seed:3 ~fed:2 (make Ivm.Viewdef.First_order);
  check_copy ~label:"HO min" ~seed:4 ~fed:2 (make Ivm.Viewdef.Higher_order)

(* A bag view projecting a string column under a filter.  The feed
   inserts fresh rows (some with new strings, growing the dictionary),
   updates the string of a live row and deletes live rows; it tracks
   its own live rows, so it only deletes what FIFO processing will have
   inserted by then. *)
let string_view_make order () =
  let tag_schema =
    Schema.make [ ("rk", ti); ("jk", ti); ("tag", Datatype.TString) ]
  in
  let w_schema = Schema.make [ ("sk", ti); ("jk", ti); ("w", tf) ] in
  let meter = Meter.create () in
  let r = Table.create ~meter ~name:"r" ~schema:tag_schema () in
  let s = Table.create ~meter ~name:"s" ~schema:w_schema () in
  let g = Util.Prng.create ~seed:31 in
  let tags = [| "red"; "green"; "blue" |] in
  let live = [| Util.Vec.create (); Util.Vec.create () |] in
  let fresh = ref 0 in
  let row i =
    incr fresh;
    if i = 0 then
      [|
        vi !fresh;
        vi (Util.Prng.int g 6);
        Value.Str
          (if Util.Prng.int g 3 = 0 then Printf.sprintf "tag%d" !fresh
           else tags.(Util.Prng.int g 3));
      |]
    else [| vi !fresh; vi (Util.Prng.int g 6); vf (Util.Prng.float g 40.0) |]
  in
  for i = 0 to 1 do
    for _ = 1 to 30 do
      let t = row i in
      ignore (Table.insert (if i = 0 then r else s) t);
      Util.Vec.push live.(i) t
    done
  done;
  Table.create_index r "jk";
  Table.create_index s "sk";
  let view =
    Ivm.Viewdef.make ~name:"tags" ~tables:[| r; s |]
      ~join:[ { Ivm.Viewdef.left = 0; left_col = "jk"; right = 1; right_col = "jk" } ]
      ~filter:Expr.(Gt (col "s.w", float 10.0))
      ~projection:[ "r.tag"; "s.w" ] ()
  in
  let m = Ivm.Maintainer.create ~order view in
  let take i =
    let v = live.(i) in
    let j = Util.Prng.int g (Util.Vec.length v) in
    let victim = Util.Vec.get v j in
    Util.Vec.set v j (Util.Vec.get v (Util.Vec.length v - 1));
    ignore (Util.Vec.pop v);
    victim
  in
  let next i =
    match Util.Prng.int g 4 with
    | 0 -> Ivm.Change.Delete (take i)
    | 1 when i = 0 ->
        let before = take i in
        let after = Array.copy before in
        after.(2) <- Value.Str (Printf.sprintf "moved%d" (Util.Prng.int g 4));
        Util.Vec.push live.(i) after;
        Ivm.Change.Update { before; after }
    | _ ->
        let t = row i in
        Util.Vec.push live.(i) t;
        Ivm.Change.Insert t
  in
  (m, next)

let test_copy_string_bag () =
  check_copy ~label:"FO strings" ~seed:5 (string_view_make Ivm.Viewdef.First_order);
  check_copy ~label:"HO strings" ~seed:6 (string_view_make Ivm.Viewdef.Higher_order)

(* --- the flat slot store against the nested-map model -------------------- *)

(* A seeded change stream over every table of a view: inserts (a copy of
   a live row with a fresh key in column 0, or an exact duplicate),
   deletes of live rows and re-inserts of deleted ones.  Live rows are
   picked by a Zipfian rank, so a few heavy rows, and their join keys,
   take most of the changes. *)
type stream = {
  g : Util.Prng.t;
  zipf : Util.Prng.t -> int;
  live : Tuple.t Util.Vec.t array;
  dead : Tuple.t Util.Vec.t array;
  mutable fresh : int;
}

let stream ~seed tables =
  let vec table = Util.Vec.of_list (Table.to_list_unmetered table) in
  {
    g = Util.Prng.create ~seed;
    zipf = Util.Prng.zipf_sampler ~exponent:1.2 ~n:64;
    live = Array.map vec tables;
    dead = Array.map (fun _ -> Util.Vec.create ()) tables;
    fresh = 1_000_000;
  }

(* Remove element [i] of [v] (the last one takes its place). *)
let take v i =
  let x = Util.Vec.get v i in
  let last = Option.get (Util.Vec.pop v) in
  if i < Util.Vec.length v then Util.Vec.set v i last;
  x

let pick st v = st.zipf st.g mod Util.Vec.length v

let next_change st i ~delete ~reinsert =
  let live = st.live.(i) and dead = st.dead.(i) in
  let r = Util.Prng.float st.g 1.0 in
  if r < delete && Util.Vec.length live > 0 then begin
    let row = take live (pick st live) in
    Util.Vec.push dead row;
    Some (Ivm.Change.Delete row)
  end
  else if r < delete +. reinsert && Util.Vec.length dead > 0 then begin
    let row = take dead (Util.Prng.int st.g (Util.Vec.length dead)) in
    Util.Vec.push live row;
    Some (Ivm.Change.Insert row)
  end
  else if Util.Vec.length live > 0 then begin
    let row = Array.copy (Util.Vec.get live (pick st live)) in
    if Util.Prng.int st.g 3 > 0 then begin
      st.fresh <- st.fresh + 1;
      row.(0) <- vi st.fresh
    end;
    Util.Vec.push live row;
    Some (Ivm.Change.Insert row)
  end
  else None

let multiset rows =
  List.sort
    (fun (a, x) (b, y) -> match Tuple.compare a b with 0 -> compare x y | c -> c)
    rows

(* An HO maintainer and the nested-map model ({!Tuple_oracle}, on a twin
   database from [make]) take the same stream: a third of its batches
   churn, a third drain each table (deletes only) and a third refill it.
   The drain leaves more dead slots than live ones in the components that
   hold a drained table, so the store compacts (at least one table must
   fall under a third of its rows).  After every batch:
   the batch's contributions, probed before it was processed, equal the
   model's as multisets; the entry counts agree; [check] passes; and a
   copy that takes a further batch of deletes and a fresh insert leaves
   the original's entries and check as they were. *)
let slot_store_against_model ~label ~seed make =
  let view = make () in
  let m = Ivm.Maintainer.create ~order:Ivm.Viewdef.Higher_order view in
  let model =
    Tuple_oracle.create ~meter:(Meter.create ())
      (Ivm.Viewdef.with_order (make ()) Ivm.Viewdef.Higher_order)
  in
  let dv = Option.get (Ivm.Maintainer.delta_view m) in
  let tables = Ivm.Viewdef.tables view in
  let n = Array.length tables in
  let st = stream ~seed tables in
  let start = Array.map Util.Vec.length st.live in
  let low = Array.copy start in
  Alcotest.check Alcotest.(result unit string) (label ^ ": fresh check") (Ok ())
    (Ivm.Deltaview.check dv);
  let batches = 48 in
  for b = 0 to batches - 1 do
    let i = b mod n in
    let delete, reinsert =
      match 3 * b / batches with 0 -> (0.4, 0.3) | 1 -> (1.0, 0.0) | _ -> (0.1, 0.45)
    in
    let changes =
      List.filter_map Fun.id
        (List.init (1 + Util.Prng.int st.g 8) (fun _ ->
             next_change st i ~delete ~reinsert))
    in
    let at what = Printf.sprintf "%s seed %d batch %d: %s" label seed b what in
    let deltas = List.concat_map Ivm.Change.signed_tuples changes in
    checkb (at "contributions = the model's") true
      (List.equal
         (fun (a, x) (b, y) -> Tuple.equal a b && x = y)
         (multiset (Ivm.Deltaview.contributions dv i deltas))
         (multiset (Tuple_oracle.delta_contributions model i deltas)));
    List.iter
      (fun c ->
        Ivm.Maintainer.on_arrive m i c;
        Tuple_oracle.on_arrive model i c)
      changes;
    ignore (Ivm.Maintainer.process m i (List.length changes));
    ignore (Tuple_oracle.process model i (List.length changes));
    low.(i) <- min low.(i) (Util.Vec.length st.live.(i));
    let entries = Tuple_oracle.delta_entries model in
    checki (at "entries = the model's") entries (Ivm.Deltaview.entries dv);
    Alcotest.check Alcotest.(result unit string) (at "check") (Ok ())
      (Ivm.Deltaview.check dv);
    let j = Util.Prng.int st.g n in
    let live = st.live.(j) in
    if Util.Vec.length live > 0 then begin
      let copy = Ivm.Deltaview.copy ~meter:(Meter.create ()) ~view dv in
      let k = min 3 (Util.Vec.length live) in
      let gone =
        Array.to_list
          (Array.map
             (fun v -> (Util.Vec.get live v, -1))
             (Util.Prng.sample_without_replacement st.g k (Util.Vec.length live)))
      in
      let extra = Array.copy (Util.Vec.get live 0) in
      extra.(0) <- vi (-b - 1);
      Ivm.Deltaview.update copy ~scratch:(Ivm.Deltajoin.scratch ())
        ~path:(Ivm.Viewdef.path view j)
        (Ivm.Deltajoin.batch ~delta:j ((extra, 1) :: gone));
      checki (at "original's entries after the copy's batch") entries
        (Ivm.Deltaview.entries dv);
      checkb (at "original consistent after the copy's batch") true
        (Ivm.Deltaview.check dv = Ok ())
    end
  done;
  checkb (label ^ ": some table drained under a third") true
    (Array.exists2 (fun lo rows -> 3 * lo < rows) low start)

let test_slot_store_synth () =
  for seed = 1 to 6 do
    slot_store_against_model ~label:"synth" ~seed (fun () ->
        Tpcr.Synth.join_view (Tpcr.Synth.generate ~seed ~r_rows:30 ~s_rows:30 ()))
  done

let test_slot_store_min_view () =
  for seed = 1 to 3 do
    slot_store_against_model ~label:"min view" ~seed (fun () ->
        Tpcr.Gen.min_supplycost_view (Tpcr.Gen.generate ~seed ~scale:0.001 ()))
  done

(* [Deltaview.check] of a fresh 2,000 x 2,000-row synth engine (4,000
   delta-view entries): probing the store once per rebuilt row allocates
   about 26 minor words per entry in either build profile, most of it the
   rebuilt rows themselves; recomputing each component into a [subtuple
   -> count] table took about 55.  The bound is 40.  [Gc.minor_words]
   counts this domain only. *)
let test_check_minor_words () =
  let db = Tpcr.Synth.generate ~seed:7 ~r_rows:2000 ~s_rows:2000 () in
  let m =
    Ivm.Maintainer.create ~order:Ivm.Viewdef.Higher_order (Tpcr.Synth.join_view db)
  in
  let dv = Option.get (Ivm.Maintainer.delta_view m) in
  let before = Gc.minor_words () in
  let verdict = Ivm.Deltaview.check dv in
  let per_entry =
    (Gc.minor_words () -. before) /. float_of_int (Ivm.Deltaview.entries dv)
  in
  checkb "consistent" true (verdict = Ok ());
  if per_entry > 40.0 then
    Alcotest.failf "%.1f minor words per delta-view entry (bound 40)" per_entry

let () =
  Alcotest.run "ho"
    [
      ( "equivalence",
        [
          Alcotest.test_case "uniform streams, 140 seeds" `Quick
            test_equivalence_uniform;
          Alcotest.test_case "zipfian streams, 140 seeds" `Quick
            test_equivalence_zipf;
          Alcotest.test_case "grouped views, 60 seeds" `Quick
            test_equivalence_grouped;
        ] );
      ( "directed",
        [
          Alcotest.test_case "null join keys" `Quick test_directed_null_keys;
          Alcotest.test_case "empty delta is free" `Quick test_directed_empty_delta;
          Alcotest.test_case "duplicate rows in batch" `Quick
            test_directed_duplicate_keys;
          Alcotest.test_case "delete to empty and refill" `Quick
            test_directed_delete_to_empty;
          Alcotest.test_case "update moves join key" `Quick
            test_directed_update_moves_join_key;
          Alcotest.test_case "four-table min view" `Quick
            test_directed_min_supplycost_view;
          Alcotest.test_case "HO probe cost flat in partner size" `Quick
            test_ho_metering_flat_probe;
          Alcotest.test_case "HO >= 2x on dR, flatter dS slope" `Quick
            test_ho_cost_curves;
          Alcotest.test_case "order plumbing" `Quick test_order_accessors;
          Alcotest.test_case "delta-view check sees an inserted row" `Quick
            test_check_sees_inserted_row;
          Alcotest.test_case "delta-view check sees a deleted row" `Quick
            test_check_sees_deleted_row;
          Alcotest.test_case "delta-view check reports every component" `Quick
            test_check_reports_every_component;
        ] );
      ( "copy",
        [
          Alcotest.test_case "FO and HO synth views" `Quick test_copy_synth;
          Alcotest.test_case "TPC-R MIN view" `Quick test_copy_min_view;
          Alcotest.test_case "string bag under a filter" `Quick
            test_copy_string_bag;
        ] );
      ( "slot store",
        [
          Alcotest.test_case "synth streams against the nested-map model" `Quick
            test_slot_store_synth;
          Alcotest.test_case "MIN view streams against the nested-map model" `Quick
            test_slot_store_min_view;
          Alcotest.test_case "check minor words per entry" `Quick
            test_check_minor_words;
        ] );
    ]
