(* abivm — command-line front-end for the asymmetric batch IVM planner.

   Subcommands:
     simulate   compare maintenance strategies on an analytic instance
     astar      solve one instance with the A* planner and print search stats
     calibrate  measure TPC-R maintenance cost curves from the engine
     run        calibrate, simulate all strategies, execute one (Fig. 5)
     robust     inject drift into an instance, compare static ADAPT vs the
                monitored replanner vs ONLINE
     durable    crash-recoverable execution: WAL + checkpoints
                (run / recover / verify)
     serve      multi-tenant maintenance service (run / recover)
     partition  heavy-light skew partitioning: skew-aware per-partition
                planning vs a skew-blind single-curve plan

   Each family lives in its own module; [Terms] holds what they share. *)

open Cmdliner

let main_cmd =
  let doc = "asymmetric batch incremental view maintenance" in
  Cmd.group (Cmd.info "abivm" ~version:"1.0.0" ~doc)
    [ Analytic_cmds.simulate_cmd; Analytic_cmds.astar_cmd;
      Tpcr_cmds.calibrate_cmd; Tpcr_cmds.run_cmd; Analytic_cmds.robust_cmd;
      Durable_cmds.cmd; Serve_cmds.cmd; Partition_cmds.cmd ]

let () = exit (Cmd.eval main_cmd)
