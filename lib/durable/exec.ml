type config = {
  dir : string;
  segment_bytes : int;
  ckpt_actions : int;
  ckpt_bytes : int;
  sync : Wal.sync;
  hook : Hook.point -> unit;
  pool : Parallel.Pool.t option;
}

let default_config ~dir =
  {
    dir;
    segment_bytes = 256 * 1024;
    ckpt_actions = 64;
    ckpt_bytes = 512 * 1024;
    sync = Wal.Always;
    hook = Hook.none;
    pool = None;
  }

type env = {
  fresh : unit -> Ivm.Maintainer.t * Tpcr.Updates.feeds;
  view_of : Relation.Table.t array -> Ivm.Viewdef.t;
  spec : Abivm.Spec.t;
  plan : Abivm.Plan.t;
  params : (string * string) list;
}

type outcome = {
  total_cost : float;
  rows : Relation.Tuple.t list;
  consistent : bool;
  recovered : bool;
  replayed : int;
  checkpoints : int;
  steps_run : int;
  lsn : int;
}

let ( let* ) = Result.bind

(* Set up the replay of restored state [st] against its log tail
   [contents]: the plan's actions from the checkpoint's step, [fresh]'s
   feeds past the checkpoint's draws, and a journal holding the tail that
   sends what follows it to [append]. *)
let replaying env (st : Recovery.state) contents ~fresh ~append =
  let* records = Recovery.own_records contents in
  let actions =
    List.filter (fun (t, _) -> t >= st.next_step) (Abivm.Plan.actions env.plan)
  in
  let _, feeds = fresh () in
  Array.iteri
    (fun i n ->
      for _ = 1 to n do
        ignore (feeds.Tpcr.Updates.next i)
      done)
    st.draws;
  let journal = Journal.create ~at:(Printf.sprintf "WAL replay at t=%d") append in
  Journal.hold journal records;
  Ok (actions, feeds, journal)

(* Step [t]'s arrivals from [next], each counted in [draws] and journalled. *)
let arrivals m journal ~next ~draws t counts =
  Ivm.Maintainer.ingest m ~next counts ~on_arrival:(fun ~table change ->
      draws.(table) <- draws.(table) + 1;
      Journal.record journal (Record.Arrival { time = t; table; change }))

(* A plan's run past its last step must have used up the tail. *)
let used_up journal ~horizon =
  match Journal.held journal with
  | [] -> ()
  | rest ->
      Journal.diverged journal horizon
        ": %d WAL record(s) past the plan's last step" (List.length rest)

(* Publish checkpoint [file] at [lsn]: only after its data fsync, rename
   and directory fsync (ARIES order) may the manifest name it.  Saves the
   manifest, deletes the checkpoint it supersedes (unless the same LSN
   was checkpointed twice, under the same name), and returns it.  Runs
   inside the checkpoint's background job, or inline. *)
let commit_manifest config manifest ~lsn file =
  let saved = { manifest with Manifest.checkpoint = Some (lsn, file) } in
  Manifest.save ~dir:config.dir ~hook:config.hook saved;
  (match manifest.Manifest.checkpoint with
  | Some (_, old) when old <> file ->
      (try Sys.remove (Filename.concat config.dir old) with Sys_error _ -> ());
      Fsutil.fsync_dir config.dir
  | _ -> ());
  saved

(* The journal and the checkpoints around {!Bridge.Runner.execute}, from
   restored state [st] on ([st.draws] is mutated in place as feeds are
   consumed).  [log] is the group log, [handle] Exec's handle on it, and
   [journal] matches the held tail before it appends to [handle].  A plan
   the executor refuses is a ["resume: "] [Error] before any step. *)
let execute config env ~log ~handle ~journal ~(st : Recovery.state)
    ~(feeds : Tpcr.Updates.feeds) ~actions ~recovered =
  let horizon = Abivm.Spec.horizon env.spec in
  let m = st.maintainer and first = st.next_step and draws = st.draws in
  let lsn0 = Groupwal.lsn log in
  let total = ref st.cost in
  let actions_since = ref 0 in
  (* Batches still to apply: a checkpoint with fewer than [ckpt_actions]
     of them left is superseded by the final one before it pays off.
     Replayed batches count as applied; [actions_since] counts only the
     appended ones. *)
  let batches n k = if k > 0 then n + 1 else n in
  let actions_left =
    ref
      (List.fold_left (fun n (_, action) -> Array.fold_left batches n action) 0
         actions)
  in
  let bytes_mark = ref (Groupwal.total_bytes log) in
  let manifest = ref st.manifest in
  let ckpts = ref 0 in
  let inflight = ref None in
  (* Stall accounting: wall time the maintenance thread itself spends on
     checkpoint work (capture + adopt under async; the whole write when
     synchronous).  This is the number background checkpointing shrinks. *)
  let stall_since t0 =
    Telemetry.add "durable.ckpt_stall_ms" ((Unix.gettimeofday () -. t0) *. 1e3)
  in
  (* At settle the maintenance thread only adopts the manifest the
     checkpoint's job saved, and truncates the log below its LSN. *)
  let adopt lsn saved =
    manifest := saved;
    Groupwal.truncate_before log lsn;
    incr ckpts
  in
  let settle_inflight ~wait =
    match !inflight with
    | Some (lsn, p) when wait || Checkpoint.poll p <> `Running ->
        let t0 = Unix.gettimeofday () in
        let saved = Checkpoint.await p in
        (* re-raises an injected crash *)
        inflight := None;
        adopt lsn saved;
        stall_since t0
    | _ -> ()
  in
  let checkpoint ?(background = true) t =
    (* The log records this checkpoint claims to supersede must be on
       disk before the manifest can point at it. *)
    let t0 = Unix.gettimeofday () in
    ignore (Groupwal.close_window log);
    let c =
      Checkpoint.capture ~lsn:(Groupwal.lsn log) ~next_step:(t + 1) ~cost:!total
        ~draws ~params:env.params m
    in
    let lsn = c.Checkpoint.lsn in
    let commit = commit_manifest config !manifest ~lsn in
    (match config.pool with
    | Some pool when background && Parallel.Pool.domains pool > 1 ->
        (* Snapshot taken; serialization, fsync and the manifest move
           off-thread — see [settle_inflight]. *)
        inflight :=
          Some (lsn, Checkpoint.write_async ~dir:config.dir ~hook:config.hook ~pool ~commit c)
    | _ -> adopt lsn (commit (Checkpoint.write ~dir:config.dir ~hook:config.hook c)));
    actions_since := 0;
    bytes_mark := Groupwal.total_bytes log;
    stall_since t0
  in
  (* A step's arrivals, one log commit for all of them.  A checkpoint due
     after step [t - 1] is taken first, before [Step_start t] (the final
     checkpoint below follows the last step), never while the journal
     holds tail records past the state it would capture.  One background
     checkpoint at a time: a trigger while one is in flight waits for a
     later step. *)
  let arrive t counts =
    if
      t > first
      && (!actions_since >= config.ckpt_actions
         || Groupwal.total_bytes log - !bytes_mark >= config.ckpt_bytes)
      && !actions_left >= config.ckpt_actions
      && !inflight = None
      && Journal.held journal = []
    then checkpoint (t - 1);
    config.hook (Hook.Step_start t);
    settle_inflight ~wait:false;
    arrivals m journal ~next:feeds.Tpcr.Updates.next ~draws t counts;
    Groupwal.commit handle
  in
  let* () =
    Bridge.Runner.execute m ~first ~counts:(Abivm.Spec.arrivals env.spec)
      ~arrive actions ~on_applied:(fun ~t ~table ~count ~cost ->
        let appends = Journal.held journal = [] in
        Journal.record journal (Record.Applied { time = t; table; count; cost });
        Groupwal.commit handle;
        total := !total +. cost;
        if appends then incr actions_since;
        decr actions_left)
    |> Result.map_error (fun e -> "resume: " ^ e)
  in
  used_up journal ~horizon;
  settle_inflight ~wait:true;
  (* Final checkpoint: marks the run complete (next_step past the
     horizon) and lets a later [verify] work from snapshot + empty
     tail.  Resuming an already-finished run (no steps, no new log
     records) skips it — the directory already holds exactly this
     checkpoint, and re-adding it would only churn the manifest.  Always
     synchronous: the process is about to report completion. *)
  let already_complete = first > horizon && Groupwal.lsn log = lsn0 in
  if not already_complete then checkpoint ~background:false horizon;
  Ok
    {
      total_cost = !total;
      rows = Ivm.Maintainer.rows m;
      consistent = Ivm.Maintainer.check_consistent m = Ok ();
      recovered;
      replayed = Journal.matched journal;
      checkpoints = !ckpts;
      steps_run = max 0 (horizon - first + 1);
      lsn = Groupwal.lsn log;
    }

let restore config env ~fresh =
  Recovery.restore ~dir:config.dir ~view_of:env.view_of
    ~fresh:(fun () -> fst (fresh ()))

(* The one path of [run] and [resume]: restore [config.dir]'s state, open
   its group log once (Exec's one handle on it forces by [config.sync]),
   and run the plan from the checkpoint's step, the journal holding the
   tail that opening the log returned.  An injected [Hook.Crash] must
   behave like a real crash: the log is abandoned, so the open window is
   lost instead of flushed on the way out (which would make
   Interval/Never tail loss untestable). *)
let start config env ~fresh ~recovered =
  let* st = restore config env ~fresh in
  let* log, contents =
    Groupwal.open_ ~dir:(Fsutil.group_dir config.dir)
      ~segment_bytes:config.segment_bytes ~hook:config.hook ~from_lsn:st.lsn ()
    |> Result.map_error (fun e -> "wal: " ^ e)
  in
  let handle = Groupwal.attach log ~tenant:Recovery.tenant ~policy:config.sync () in
  match
    let* actions, feeds, journal =
      replaying env st contents ~fresh ~append:(Groupwal.append handle)
    in
    try execute config env ~log ~handle ~journal ~st ~feeds ~actions ~recovered
    with Journal.Diverged e -> Error e
  with
  | result ->
      Groupwal.close log;
      result
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      (match e with
      | Hook.Crash _ -> Groupwal.abandon log
      | _ -> Groupwal.close log);
      Printexc.raise_with_backtrace e bt

let run config env =
  if Sys.file_exists (Filename.concat config.dir "MANIFEST") then
    failwith
      (Printf.sprintf
         "Exec.run: %s already holds a durable run — resume it (abivm durable \
          recover) or point at a fresh directory"
         config.dir);
  (* Genesis state and plan are checked before anything is written, so a
     refused plan leaves no directory to refuse the next run. *)
  let genesis = env.fresh () in
  Result.iter_error
    (fun e -> invalid_arg ("Exec.run: " ^ e))
    (Bridge.Runner.check (fst genesis) ~first:0
       ~counts:(Abivm.Spec.arrivals env.spec) (Abivm.Plan.actions env.plan));
  Fsutil.mkdirs config.dir;
  Manifest.save ~dir:config.dir ~hook:config.hook
    (Manifest.empty ~params:env.params);
  match start config env ~fresh:(fun () -> genesis) ~recovered:false with
  | Ok outcome -> outcome
  | Error e -> failwith (Printf.sprintf "Exec.run: %s: %s" config.dir e)

let resume config env =
  let* o = start config env ~fresh:env.fresh ~recovered:true in
  Telemetry.add "durable.replayed_records" (float_of_int o.replayed);
  Ok o

(* [verify]'s journal has nowhere to append: the tail is used up. *)
exception Tail_end

let verify config env =
  let* st = restore config env ~fresh:env.fresh in
  let* contents =
    Groupwal.read ~dir:(Fsutil.group_dir config.dir) ~from_lsn:st.lsn
    |> Result.map_error (fun e -> "wal: " ^ e)
  in
  let* actions, feeds, journal =
    replaying env st contents ~fresh:env.fresh ~append:(fun _ -> raise Tail_end)
  in
  let m = st.maintainer and draws = st.draws and total = ref st.cost in
  (* Stop before a draw, or an action, the tail does not hold. *)
  let stop () = if Journal.held journal = [] then raise Tail_end in
  let next i = stop (); feeds.Tpcr.Updates.next i in
  let arrive t counts = arrivals m journal ~next ~draws t counts; stop () in
  match
    Bridge.Runner.execute m ~first:st.next_step
      ~counts:(Abivm.Spec.arrivals env.spec) ~arrive actions
      ~on_applied:(fun ~t ~table ~count ~cost ->
        Journal.record journal (Record.Applied { time = t; table; count; cost });
        total := !total +. cost)
    |> Result.map (fun () ->
           used_up journal ~horizon:(Abivm.Spec.horizon env.spec))
  with
  | exception Journal.Diverged e -> Error e
  | Error e -> Error ("verify: " ^ e)
  | Ok () | (exception Tail_end) -> (
      let replayed = Journal.matched journal in
      Telemetry.add "durable.replayed_records" (float_of_int replayed);
      match Ivm.Maintainer.check_consistent m with
      | Ok () -> Ok { st with cost = !total; lsn = st.lsn + replayed; replayed }
      | Error e -> Error ("recovered state inconsistent: " ^ e))
