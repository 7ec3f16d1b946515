(* The TPC-R subcommands of the paper's §5: `calibrate` measures the MIN
   view's maintenance cost curves from the engine, `run` plans on them and
   executes one plan against a second engine (Fig. 5). *)

open Cmdliner
open Terms

let scale default =
  Arg.(
    value & opt float default
    & info [ "scale" ] ~docv:"SF"
        ~doc:(Printf.sprintf "TPC-R scale factor (default %g)." default))

let calibrate scale seed sizes =
  let m, feeds = tpcr_engine ~scale ~seed in
  let ps = Bridge.Calibrate.measure_curve m feeds ~table:0 ~sizes in
  let s = Bridge.Calibrate.measure_curve m feeds ~table:1 ~sizes in
  Util.Tablefmt.print
    ~aligns:[ Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Right ]
    ~header:[ "batch"; "partsupp cost"; "supplier cost" ]
    (List.map2
       (fun (k, cp) (_, cs) ->
         [ string_of_int k; Util.Tablefmt.float_cell cp; Util.Tablefmt.float_cell cs ])
       ps s);
  let _, fit_ps = Bridge.Calibrate.fitted ~name:"ps" ps in
  let _, fit_s = Bridge.Calibrate.fitted ~name:"s" s in
  Printf.printf "fits: partsupp affine:%.4g,%.4g | supplier affine:%.4g,%.4g\n"
    fit_ps.Cost.Fit.a fit_ps.Cost.Fit.b fit_s.Cost.Fit.a fit_s.Cost.Fit.b

let calibrate_cmd =
  let sizes =
    Arg.(
      value
      & opt (sizes_conv ~distinct:2) tpcr_sizes
      & info [ "sizes" ] ~docv:"K,K,..." ~doc:"Batch sizes to measure.")
  in
  Cmd.v
    (Cmd.info "calibrate"
       ~doc:"measure TPC-R maintenance cost curves from the live engine")
    Term.(const calibrate $ scale 0.01 $ seed 42 $ sizes)

(* The planning spec [run] uses: the two maintained tables' curves
   calibrated on an engine of their own, one arrival per step on each. *)
let tpcr_spec ~scale ~seed ~horizon =
  let m, feeds = tpcr_engine ~scale ~seed in
  let curve name table =
    Bridge.Calibrate.tabulated ~name
      (Bridge.Calibrate.measure_curve m feeds ~table ~sizes:tpcr_sizes)
  in
  let f_ps = curve "c_dPartSupp" 0 in
  let f_s = curve "c_dSupplier" 1 in
  let untouched = Cost.Func.linear ~a:1.0 in
  Abivm.Spec.make
    ~costs:[| f_ps; f_s; untouched; untouched |]
    ~limit:(2.0 *. Cost.Func.eval f_ps 1)
    ~arrivals:(Array.init (horizon + 1) (fun _ -> [| 1; 1; 0; 0 |]))

let run_exec scale horizon seed strategy trace metrics =
  (* Per-action simulated-vs-executed comparison needs the collector even
     without --trace/--metrics. *)
  with_telemetry ~always:true ~trace ~metrics (fun () ->
      Printf.printf "Generating TPC-R database (scale %.3f)...\n%!" scale;
      Printf.printf "Calibrating cost functions...\n%!";
      let spec = tpcr_spec ~scale ~seed ~horizon in
      Printf.printf "Constraint C = %.0f cost units; horizon T = %d\n\n%!"
        (Abivm.Spec.limit spec) horizon;
      let reports = Abivm.Simulate.all spec in
      print_reports spec reports;
      Printf.printf "\nExecuting the %s plan against the engine...\n%!"
        (Abivm.Strategy.label strategy);
      let plan = (Abivm.Simulate.run strategy spec).Abivm.Report.plan in
      (* A fresh engine, so calibration batches do not pollute the
         measured costs. *)
      let m, feeds = tpcr_engine ~scale ~seed:(seed + 100) in
      let report =
        Bridge.Runner.run_plan ~strategy m ~feeds spec plan
      in
      let executed = Bridge.Runner.action_costs report in
      let simulated = Bridge.Runner.simulated_action_costs report in
      Util.Tablefmt.print
        ~aligns:
          [ Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Right;
            Util.Tablefmt.Right ]
        ~header:[ "t"; "simulated"; "executed"; "exec/sim" ]
        (List.map2
           (fun (t, sim) (_, exec) ->
             [
               string_of_int t;
               Util.Tablefmt.float_cell sim;
               Util.Tablefmt.float_cell exec;
               (if sim > 0.0 then
                  Util.Tablefmt.float_cell ~decimals:3 (exec /. sim)
                else "-");
             ])
           simulated executed);
      Printf.printf
        "\ntotal: executed %.0f cost units, simulated %.0f; view consistent: \
         %b; wall %.2fs\n"
        (Option.value ~default:0.0 report.Abivm.Report.cost_units)
        report.Abivm.Report.total_cost report.Abivm.Report.valid
        (Option.value ~default:0.0 report.Abivm.Report.wall_seconds);
      `Ok ())

let run_cmd =
  let strategy =
    Arg.(
      value
      & opt strategy_conv (Abivm.Strategy.Online None)
      & info [ "strategy" ] ~docv:"STRATEGY"
          ~doc:
            "Strategy to execute: naive, opt-lgm, adapt:T0, \
             online[:ewma:A|:ewma-sd:A,Z|:window:K|:oracle].")
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "calibrate, simulate all strategies, then execute one against the \
          engine and compare simulated vs measured per-action cost (Fig. 5)")
    Term.(
      ret
        (const run_exec $ scale 0.02 $ horizon 300 $ seed 42 $ strategy
       $ trace_arg $ metrics_arg))
