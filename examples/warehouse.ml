(* End-to-end TPC-R warehouse scenario — the paper's §5 experiment as an
   application: the MIN(supplycost) view over a four-way join, maintained
   batch-incrementally under a response-time constraint, with the plan
   executed against the real storage engine.

     dune exec examples/warehouse.exe *)

let () =
  let scale = 0.02 in
  Printf.printf "Generating TPC-R database at scale %.2f...\n%!" scale;
  let db = Tpcr.Gen.generate ~scale () in
  Printf.printf "  region %d, nation %d, supplier %d, part %d, partsupp %d rows\n"
    (Relation.Table.row_count db.Tpcr.Gen.region)
    (Relation.Table.row_count db.Tpcr.Gen.nation)
    (Relation.Table.row_count db.Tpcr.Gen.supplier)
    (Relation.Table.row_count db.Tpcr.Gen.part)
    (Relation.Table.row_count db.Tpcr.Gen.partsupp);

  (* The paper's §5 content query, defined through the SQL front-end. *)
  let catalog name =
    match name with
    | "partsupp" -> Some db.Tpcr.Gen.partsupp
    | "supplier" -> Some db.Tpcr.Gen.supplier
    | "nation" -> Some db.Tpcr.Gen.nation
    | "region" -> Some db.Tpcr.Gen.region
    | _ -> None
  in
  let sql =
    "SELECT MIN(ps.supplycost) \n\
     FROM partsupp AS ps, supplier AS s, nation AS n, region AS r \n\
     WHERE s.suppkey = ps.suppkey AND s.nationkey = n.nationkey \n\
    \  AND n.regionkey = r.regionkey AND r.name = 'MIDDLE EAST'"
  in
  print_endline "\nView (the paper's §5 content query):";
  print_endline sql;
  let sql_view =
    match Sqlview.Translate.view_of_sql ~name:"min_supplycost" ~catalog sql with
    | Ok v -> v
    | Error msg -> failwith msg
  in
  (* [Tpcr.Gen.min_supplycost_view] is the same logical view with physical
     tuning (maintenance join order + PartSupp as its scan table, cf.
     Fig. 4); we use it below and check the SQL-derived one agrees on
     content. *)
  let view = Tpcr.Gen.min_supplycost_view db in
  print_endline "\nEvaluation plan:";
  print_endline (Relation.Ra.explain (Ivm.Viewdef.reference_plan view));
  assert (
    List.equal Relation.Tuple.equal
      (Relation.Ra.eval (Ivm.Viewdef.reference_plan sql_view))
      (Relation.Ra.eval (Ivm.Viewdef.reference_plan view)));

  let m = Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter view in
  assert (
    List.equal Relation.Tuple.equal
      (Ivm.Maintainer.rows (Ivm.Maintainer.create sql_view))
      (Ivm.Maintainer.rows m));
  (match Ivm.Maintainer.rows m with
  | [ row ] ->
      Printf.printf "\nMIN(ps.supplycost) over MIDDLE EAST = %s\n"
        (Relation.Tuple.to_string row)
  | _ -> assert false);

  (* Calibrate the two update paths, then plan. *)
  Relation.Meter.reset db.Tpcr.Gen.meter;
  let feeds = Tpcr.Updates.paper_feeds ~seed:7 db in
  let sizes = [ 1; 5; 10; 20; 50; 100; 200 ] in
  let ps_curve = Bridge.Calibrate.measure_curve m feeds ~table:0 ~sizes in
  let s_curve = Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes in
  print_endline "\nMeasured maintenance costs (cost units):";
  List.iter2
    (fun (k, cp) (_, cs) ->
      Printf.printf "  batch %4d: partsupp %9.1f   supplier %9.1f\n" k cp cs)
    ps_curve s_curve;
  let f_ps = Bridge.Calibrate.tabulated ~name:"c_dPartSupp" ps_curve in
  let f_s = Bridge.Calibrate.tabulated ~name:"c_dSupplier" s_curve in

  let limit = 2.0 *. Cost.Func.eval f_ps 1 in
  let horizon = 400 in
  let untouched = Cost.Func.linear ~a:1.0 in
  let spec =
    Abivm.Spec.make
      ~costs:[| f_ps; f_s; untouched; untouched |]
      ~limit
      ~arrivals:(Array.init (horizon + 1) (fun _ -> [| 1; 1; 0; 0 |]))
  in
  Printf.printf
    "\nStrategy comparison (C = %.0f units, T = %d, 1 partsupp + 1 supplier \
     update per step):\n"
    limit horizon;
  let reports = Abivm.Simulate.all spec in
  List.iter
    (fun (r : Abivm.Report.t) ->
      Printf.printf "  %-8s %10.1f units  (%d actions)\n" (Abivm.Report.name r)
        r.total_cost r.actions)
    reports;

  (* Execute the best no-knowledge strategy against a fresh database and
     check both the costs and the view contents. *)
  print_endline "\nExecuting the ONLINE plan against the engine...";
  let db2 = Tpcr.Gen.generate ~seed:1234 ~scale () in
  let m2 =
    Ivm.Maintainer.create ~meter:db2.Tpcr.Gen.meter
      (Tpcr.Gen.min_supplycost_view db2)
  in
  Relation.Meter.reset db2.Tpcr.Gen.meter;
  let feeds2 = Tpcr.Updates.paper_feeds ~seed:8 db2 in
  let online = Abivm.Online.plan spec in
  let report =
    Bridge.Runner.run_plan m2 ~feeds:feeds2 spec online
  in
  let executed = Option.value ~default:0.0 report.Abivm.Report.cost_units in
  Printf.printf
    "  simulated %.0f units, executed %.0f units (%.1f%% apart), wall %.2fs\n"
    report.Abivm.Report.total_cost executed
    (100.0 *. Float.abs (report.Abivm.Report.total_cost -. executed) /. executed)
    (Option.value ~default:0.0 report.Abivm.Report.wall_seconds);
  Printf.printf "  view consistent after refresh: %b\n"
    report.Abivm.Report.valid;
  match Ivm.Maintainer.rows m2 with
  | [ row ] ->
      Printf.printf "  final MIN(ps.supplycost) = %s\n"
        (Relation.Tuple.to_string row)
  | _ -> assert false
