(* `abivm durable run | recover | verify`: crash-recoverable execution of
   a synthetic scenario's ONLINE plan under a WAL and checkpoints. *)

open Cmdliner
open Terms

(* A deterministic synthetic scenario, fully described by the parameters
   the manifest stores — so `durable recover`/`verify` need nothing but
   --dir to rebuild the environment the original `durable run` used. *)
let durable_params ~seed ~rows ~horizon ~limit ~streams =
  [
    ("seed", string_of_int seed);
    ("rows", string_of_int rows);
    ("horizon", string_of_int horizon);
    ("limit", Printf.sprintf "%h" limit);
    ("streams", String.concat ";" streams);
  ]

let durable_env_of_params params =
  let get key conv = Durable.Manifest.get ~what:"manifest" params key conv in
  let ( let* ) = Result.bind in
  let* seed = get "seed" int_of_string_opt in
  let* rows = get "rows" int_of_string_opt in
  let* horizon = get "horizon" int_of_string_opt in
  let* limit = get "limit" float_of_string_opt in
  let* stream_texts =
    Result.map (String.split_on_char ';')
      (Durable.Manifest.find ~what:"manifest" params "streams")
  in
  let* streams =
    List.fold_left
      (fun acc text ->
        let* acc = acc in
        let* s = Workload.Arrivals.stream_of_string text in
        Ok (s :: acc))
      (Ok []) stream_texts
    |> Result.map List.rev
  in
  if List.length streams <> 2 then
    Error "durable scenario needs exactly two streams (tables r and s)"
  else begin
    let arrivals =
      Workload.Arrivals.generate ~seed:(seed + 2) ~horizon
        (Array.of_list streams)
    in
    let costs =
      [| Cost.Func.affine ~a:1.0 ~b:5.0; Cost.Func.affine ~a:1.0 ~b:5.0 |]
    in
    let spec = Abivm.Spec.make ~costs ~limit ~arrivals in
    let plan = Abivm.Online.plan spec in
    let fresh () =
      let db = Tpcr.Synth.generate ~seed ~r_rows:rows ~s_rows:rows () in
      let m =
        Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter
          (Tpcr.Synth.join_view db)
      in
      Relation.Meter.reset db.Tpcr.Synth.meter;
      (m, Tpcr.Synth.insert_feeds ~seed:(seed + 1) db)
    in
    Ok
      {
        Durable.Exec.fresh;
        view_of = Tpcr.Synth.view_over;
        spec;
        plan;
        params;
      }
  end

let durable_env_of_dir dir =
  match Durable.Manifest.load ~dir with
  | Error e -> Error (Printf.sprintf "%s: manifest: %s" dir e)
  | Ok None -> Error (Printf.sprintf "%s: no durable run found (no manifest)" dir)
  | Ok (Some m) -> durable_env_of_params m.Durable.Manifest.params

(* The WAL and checkpoint tuning flags of `run` and `recover`, as a
   config builder for a directory and a hook. *)
let config =
  let d = Durable.Exec.default_config ~dir:"" in
  let segment_bytes =
    Arg.(
      value
      & opt int d.Durable.Exec.segment_bytes
      & info [ "segment-bytes" ] ~docv:"N" ~doc:"WAL segment rotation threshold.")
  in
  let ckpt_actions =
    Arg.(
      value
      & opt int d.Durable.Exec.ckpt_actions
      & info [ "ckpt-actions" ] ~docv:"N"
          ~doc:"Checkpoint every $(docv) applied actions.")
  in
  let ckpt_bytes =
    Arg.(
      value
      & opt int d.Durable.Exec.ckpt_bytes
      & info [ "ckpt-bytes" ] ~docv:"N"
          ~doc:"Checkpoint every $(docv) bytes of WAL.")
  in
  let sync =
    sync ~doc:"WAL fsync policy: always, never, or interval:N (group commit)."
  in
  let build segment_bytes ckpt_actions ckpt_bytes sync ~dir ~hook =
    {
      (Durable.Exec.default_config ~dir) with
      Durable.Exec.segment_bytes;
      ckpt_actions;
      ckpt_bytes;
      sync;
      hook;
    }
  in
  Term.(const build $ segment_bytes $ ckpt_actions $ ckpt_bytes $ sync)

let dir = dir ~doc:"Durability directory (WAL + checkpoints)."

let print_outcome (o : Durable.Exec.outcome) =
  Printf.printf
    "total cost %.2f units over %d step(s); view rows %d; consistent %b\n"
    o.Durable.Exec.total_cost o.Durable.Exec.steps_run
    (List.length o.Durable.Exec.rows)
    o.Durable.Exec.consistent;
  Printf.printf "wal lsn %d; %d checkpoint(s) written%s\n" o.Durable.Exec.lsn
    o.Durable.Exec.checkpoints
    (if o.Durable.Exec.recovered then
       Printf.sprintf "; recovered (replayed %d WAL record(s))"
         o.Durable.Exec.replayed
     else "")

let run dir seed rows horizon limit streams config hook trace metrics =
  match
    durable_env_of_params (durable_params ~seed ~rows ~horizon ~limit ~streams)
  with
  | Error e -> `Error (false, e)
  | Ok env ->
      with_telemetry ~trace ~metrics (fun () ->
          match
            or_killed ~group:"durable" ~dir (fun () ->
                print_outcome (Durable.Exec.run (config ~dir ~hook) env))
          with
          | () -> `Ok ()
          | exception Failure e -> `Error (false, e))

let recover dir config trace metrics =
  match durable_env_of_dir dir with
  | Error e -> `Error (false, e)
  | Ok env ->
      with_telemetry ~trace ~metrics (fun () ->
          match Durable.Exec.resume (config ~dir ~hook:Durable.Hook.none) env with
          | Ok o ->
              print_outcome o;
              `Ok ()
          | Error e -> `Error (false, e))

let verify dir trace metrics =
  match durable_env_of_dir dir with
  | Error e -> `Error (false, e)
  | Ok env ->
      with_telemetry ~trace ~metrics (fun () ->
          match Durable.Exec.verify (Durable.Exec.default_config ~dir) env with
          | Ok st ->
              Printf.printf
                "ok: recovered to lsn %d (checkpoint lsn %d, %d WAL \
                 record(s) replayed), next step %d, cumulative cost %.2f; \
                 view consistent with a from-scratch recompute\n"
                st.Durable.Recovery.lsn st.Durable.Recovery.checkpoint_lsn
                st.Durable.Recovery.replayed st.Durable.Recovery.next_step
                st.Durable.Recovery.cost;
              `Ok ()
          | Error e -> `Error (false, e))

let run_cmd =
  let rows =
    Arg.(
      value & opt int 400
      & info [ "rows" ] ~docv:"N"
          ~doc:"Rows per synthetic base table (default 400).")
  in
  let limit =
    Arg.(
      value & opt float 60.0
      & info [ "limit"; "C" ] ~docv:"COST"
          ~doc:"Response-time constraint (default 60).")
  in
  let hook =
    kill_hook ~name:"kill-at-step" ~docv:"T"
      ~doc:
        "Simulate a crash: die at the start of step $(docv) (then try \
         `durable recover`)."
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "execute the ONLINE plan for a synthetic scenario with WAL + \
          checkpoints, optionally dying mid-run")
    Term.(
      ret
        (const run $ dir $ seed 42 $ rows $ horizon 60 $ limit $ stream_texts
       $ config $ hook $ trace_arg $ metrics_arg))

let recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "recover a (possibly crashed) durable run from its directory and \
          finish it — the scenario is rebuilt from the manifest")
    Term.(ret (const recover $ dir $ config $ trace_arg $ metrics_arg))

let verify_cmd =
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "recover without resuming and deep-check the recovered view against \
          a from-scratch recompute")
    Term.(ret (const verify $ dir $ trace_arg $ metrics_arg))

let cmd =
  Cmd.group
    (Cmd.info "durable"
       ~doc:
         "crash-recoverable execution: segmented WAL, checkpoints, recovery \
          (run / recover / verify)")
    [ run_cmd; recover_cmd; verify_cmd ]
