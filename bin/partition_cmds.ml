(* `abivm partition`: heavy-light skew partitioning.  Calibrate per-key
   frequency splits on a Zipfian feed, measure per-partition cost curves,
   then plan and execute the same stream twice on one partitioned engine
   and its copy — once with the skew-aware 2n-table spec, once with the
   skew-blind baseline's single curve per logical table. *)

open Cmdliner
open Terms

let run r_rows s_rows horizon exponent seed r_rate s_rate limit_factor
    min_share sizes =
  let names = [| "R"; "S" |] in
  let seed_cal = seed + 4 and seed_live = seed + 6 in
  let db = Tpcr.Synth.generate ~seed ~r_rows ~s_rows () in
  Relation.Table.create_index db.Tpcr.Synth.s "jk";
  Relation.Meter.reset db.Tpcr.Synth.meter;
  let view = Tpcr.Synth.join_view db in
  let cal_feeds () = Tpcr.Synth.zipf_feeds ~seed:seed_cal ~exponent db in
  let splits =
    Partition.Calibrate.splits_of_sample ~min_share view
      ~next:(cal_feeds ()).Tpcr.Updates.next
  in
  (* Calibration measures a curve per class: a class the sample left
     empty would never fill a batch. *)
  let empty_class split =
    if Partition.Split.heavy_count split = 0 then Some Partition.Split.Heavy
    else if Partition.Split.coverage split >= 1.0 then Some Partition.Split.Light
    else None
  in
  match
    List.find_map
      (fun i -> Option.map (fun c -> (i, c)) (empty_class splits.(i)))
      [ 0; 1 ]
  with
  | Some (i, cls) ->
      `Error
        ( false,
          Printf.sprintf
            "table %s: the calibrated split leaves the %s class empty (try \
             another --min-share or --exponent)"
            names.(i) (Partition.Split.cls_name cls) )
  | None ->
      Util.Tablefmt.print
        ~aligns:
          [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
            Util.Tablefmt.Right ]
        ~header:[ "table"; "heavy keys"; "coverage"; "threshold share" ]
        (List.init 2 (fun i ->
             [
               names.(i);
               string_of_int (Partition.Split.heavy_count splits.(i));
               Util.Tablefmt.float_cell ~decimals:3
                 (Partition.Split.coverage splits.(i));
               Util.Tablefmt.float_cell ~decimals:3
                 (Partition.Split.threshold splits.(i));
             ]));
      let engine =
        Partition.Engine.create ~key_of:(Partition.Engine.key_of_view view) ~splits
          (Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter view)
      in
      let stream =
        Partition.Runner.materialize
          ~feeds:(Tpcr.Synth.zipf_feeds ~seed:seed_live ~exponent db)
          ~arrivals:(Array.init (horizon + 1) (fun _ -> [| r_rate; s_rate |]))
      in
      let c = Partition.Runner.compare_blind ~cal_feeds ~sizes ~limit_factor engine stream in
      let cell k curve = Util.Tablefmt.float_cell ~decimals:1 (List.assoc k curve) in
      Util.Tablefmt.print
        ~aligns:(List.init 7 (fun _ -> Util.Tablefmt.Right))
        ~header:
          ("k"
          :: (List.init 4 (fun p -> Partition.Pspec.label ~names p)
             @ [ "R blind"; "S blind" ]))
        (List.map
           (fun k ->
             string_of_int k
             :: (Array.to_list (Array.map (cell k) c.part_curves)
                @ Array.to_list (Array.map (cell k) c.blind_curves)))
           sizes);
      Printf.printf "response-time limit C = %.1f cost units\n" c.limit;
      let row label tables (s : Partition.Runner.side) =
        [
          label; tables;
          Util.Tablefmt.float_cell ~decimals:1 s.plan_cost;
          Util.Tablefmt.float_cell ~decimals:1 s.exec.cost_units;
          string_of_int s.exec.batches;
        ]
      in
      Util.Tablefmt.print
        ~aligns:
          [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
            Util.Tablefmt.Right; Util.Tablefmt.Right ]
        ~header:[ "planner"; "tables"; "plan cost"; "executed"; "batches" ]
        [ row "skew-blind" "2" c.blind; row "skew-aware" "4" c.aware ];
      let blind_cost = c.blind.exec.cost_units
      and aware_cost = c.aware.exec.cost_units in
      Printf.printf "skew-aware planner executed %.2fx %s on the same stream\n"
        (let r = blind_cost /. aware_cost in
         if r >= 1.0 then r else 1.0 /. r)
        (if aware_cost < blind_cost then "cheaper" else "dearer");
      `Ok ()

let cmd =
  let r_rows =
    Arg.(
      value & opt int 100
      & info [ "r-rows" ] ~docv:"N" ~doc:"Rows in R (indexed; default 100).")
  in
  let s_rows =
    Arg.(
      value & opt int 500
      & info [ "s-rows" ] ~docv:"N"
          ~doc:"Rows in S (scanned by the light path; default 500).")
  in
  let exponent =
    Arg.(
      value
      & opt (float_conv ~what:"exponent" ~want:"a finite number" Float.is_finite) 1.1
      & info [ "exponent" ] ~docv:"A"
          ~doc:"Zipf exponent of the join-key feed (default 1.1).")
  in
  let r_rate =
    Arg.(
      value & opt int 4
      & info [ "r-rate" ] ~docv:"K"
          ~doc:"Modifications arriving on R per step (default 4).")
  in
  let s_rate =
    Arg.(
      value & opt int 8
      & info [ "s-rate" ] ~docv:"K"
          ~doc:"Modifications arriving on S per step (default 8).")
  in
  let limit_factor =
    Arg.(
      value
      & opt
          (float_conv ~what:"limit factor" ~want:"a finite number > 0"
             (fun x -> Float.is_finite x && x > 0.0))
          1.45
      & info [ "limit-factor" ] ~docv:"X"
          ~doc:
            "Response-time limit as a multiple of the worst single-batch \
             cost (default 1.45).")
  in
  let min_share =
    Arg.(
      value
      & opt
          (float_conv ~what:"min-share" ~want:"a share in (0, 1]" (fun p ->
               p > 0.0 && p <= 1.0))
          0.02
      & info [ "min-share" ] ~docv:"P"
          ~doc:
            "Minimum arrival share for a join key to be classified heavy \
             (default 0.02).")
  in
  let sizes =
    Arg.(
      value
      & opt (sizes_conv ~distinct:1) [ 1; 4; 16 ]
      & info [ "sizes" ] ~docv:"K,K,.."
          ~doc:"Batch sizes sampled during curve calibration (default 1,4,16).")
  in
  Cmd.v
    (Cmd.info "partition"
       ~doc:
         "heavy-light skew partitioning: calibrate per-key splits on a \
          Zipfian feed and compare the skew-aware per-partition planner \
          against a skew-blind single-curve plan on the same engine")
    Term.(
      ret
        (const run $ r_rows $ s_rows $ horizon 20 $ exponent $ seed 7 $ r_rate
       $ s_rate $ limit_factor $ min_share $ sizes))
