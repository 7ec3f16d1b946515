(* The paper's motivating application (§1): a publish/subscribe system
   where each subscription has a content query (a materialized view) and a
   notification condition, with a quality-of-service bound on how long a
   notification may take to produce.

     dune exec examples/pubsub.exe

   Scenario: gasoline sales by state are continuously updated; a subscriber
   wants "total gasoline sales in North Carolina whenever the oil price has
   changed by more than 10% since the last report".  Sales updates are
   frequent, notifications rare — ideal for batching — but when the price
   condition fires, the view must be brought up to date within the QoS
   budget.  The ONLINE controller decides, step by step and without future
   knowledge, which delta batches to process. *)

open Relation

let qos_budget = 600.0 (* cost units the refresh may take at any moment *)

let () =
  (* Base data: stations (indexed by state) and a sales fact table. *)
  let meter = Meter.create () in
  let stations =
    Table.create ~meter ~name:"stations"
      ~schema:
        (Schema.make [ ("stationkey", Datatype.TInt); ("state", Datatype.TString) ])
      ()
  in
  let sales =
    Table.create ~meter ~name:"sales"
      ~schema:
        (Schema.make
           [
             ("salekey", Datatype.TInt);
             ("stationkey", Datatype.TInt);
             ("gallons", Datatype.TFloat);
           ])
      ()
  in
  Table.create_index stations "stationkey";
  let states = [| "NC"; "SC"; "VA"; "GA"; "TN" |] in
  let prng = Util.Prng.create ~seed:2024 in
  for sk = 1 to 150 do
    ignore
      (Table.insert stations
         [| Value.Int sk; Value.Str states.(Util.Prng.int prng 5) |])
  done;
  for i = 1 to 8_000 do
    ignore
      (Table.insert sales
         [|
           Value.Int i;
           Value.Int (1 + Util.Prng.int prng 150);
           Value.Float (Util.Prng.float prng 50.0);
         |])
  done;

  (* Subscription content query:
       SELECT SUM(gallons) FROM sales S, stations T
       WHERE S.stationkey = T.stationkey AND T.state = 'NC' *)
  let view =
    Ivm.Viewdef.make ~name:"nc_gasoline"
      ~tables:[| sales; stations |]
      ~aliases:[| "s"; "t" |]
      ~join:
        [ { Ivm.Viewdef.left = 0; left_col = "stationkey"; right = 1;
            right_col = "stationkey" } ]
      ~filter:(Expr.Eq (Expr.col "t.state", Expr.str "NC"))
      ~aggs:[ Agg.sum "s.gallons" ~as_name:"total_gallons" ]
      ()
  in
  let m = Ivm.Maintainer.create ~meter view in

  (* Cost model: measured once at subscription time (a DBMS would use its
     optimizer's estimates instead). *)
  Relation.Meter.reset meter;
  let next_sale = ref 1_000_000 and next_station = ref 1_000 in
  let feed i =
    if i = 0 then begin
      incr next_sale;
      Ivm.Change.Insert
        [|
          Value.Int !next_sale;
          Value.Int (1 + Util.Prng.int prng 150);
          Value.Float (Util.Prng.float prng 50.0);
        |]
    end
    else begin
      incr next_station;
      Ivm.Change.Insert
        [| Value.Int !next_station; Value.Str states.(Util.Prng.int prng 5) |]
    end
  in
  let feeds = { Tpcr.Updates.next = feed } in
  let sizes = [ 1; 5; 20; 50 ] in
  let f_sales =
    Bridge.Calibrate.tabulated ~name:"c_sales"
      (Bridge.Calibrate.measure_curve m feeds ~table:0 ~sizes)
  in
  let f_stations =
    Bridge.Calibrate.tabulated ~name:"c_stations"
      (Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes)
  in
  Printf.printf
    "cost model: sales delta %.0f units/tuple-ish, stations delta %.0f \
     (flat: one scan of sales per batch); QoS budget %.0f units\n"
    (Cost.Func.eval f_sales 1) (Cost.Func.eval f_stations 1) qos_budget;
  print_endline
    "a single pending station delta already exceeds the budget, so the\n\
     controller processes station churn the moment it arrives while\n\
     batching the cheap sales deltas — the paper's §1 asymmetric strategy\n";

  (* Drive the system minute by minute.  Sales arrive in bursts; station
     churn is slow.  The oil price follows a random walk, and crossing the
     10%-change threshold triggers a notification. *)
  let horizon = 600 in
  let arrivals =
    Workload.Arrivals.generate ~seed:7 ~horizon
      [|
        Workload.Arrivals.Normal_burst { p = 0.9; mu = 3.0; sigma = 2.0 };
        Workload.Arrivals.Normal_burst { p = 0.05; mu = 1.0; sigma = 0.5 };
      |]
  in
  (* The live ONLINE controller: observes arrivals step by step, tells us
     which delta batches to process, and has its clock reset whenever a
     notification forces a refresh. *)
  let controller =
    Abivm.Online.controller ~costs:[| f_sales; f_stations |] ~limit:qos_budget ()
  in
  let oil_price = ref 80.0 and last_reported_price = ref 80.0 in
  let notifications = ref 0 and maintenance_cost = ref 0.0 in
  let price_prng = Util.Prng.create ~seed:99 in
  for t = 0 to horizon do
    (* Publish this step's modifications. *)
    Ivm.Maintainer.ingest m ~next:feed arrivals.(t);
    (* Ask the controller what to process to preserve the QoS budget. *)
    (match Abivm.Online.step controller ~arrivals:arrivals.(t) with
    | Some action ->
        maintenance_cost := !maintenance_cost +. Ivm.Maintainer.apply m action
    | None -> ());
    (* Random-walk the oil price; fire the notification condition on a
       10% move since the last report. *)
    oil_price := !oil_price *. (1.0 +. Util.Prng.normal price_prng ~mu:0.0 ~sigma:0.02);
    if Float.abs (!oil_price -. !last_reported_price) /. !last_reported_price > 0.10
    then begin
      last_reported_price := !oil_price;
      incr notifications;
      (* Bring the subscription content up to date — this is the moment
         the QoS budget protects. *)
      ignore (Abivm.Online.force_refresh controller);
      let refresh_cost = Meter.cost_units (Ivm.Maintainer.refresh m) in
      maintenance_cost := !maintenance_cost +. refresh_cost;
      let total =
        match Ivm.Maintainer.rows m with
        | [ row ] -> Value.to_string (Tuple.get row 0)
        | _ -> "?"
      in
      Printf.printf
        "t=%3d  notify #%d: oil price %6.2f, NC gasoline total %s \
         (refresh cost %.0f <= budget %.0f: %b)\n"
        t !notifications !oil_price total refresh_cost qos_budget
        (refresh_cost <= qos_budget +. 1e-6)
    end
  done;
  ignore (Ivm.Maintainer.refresh m);
  assert (Ivm.Maintainer.check_consistent m = Ok ());
  Printf.printf
    "\n%d notifications over %d steps; total maintenance cost %.0f units; \
     final view consistent\n"
    !notifications horizon !maintenance_cost
