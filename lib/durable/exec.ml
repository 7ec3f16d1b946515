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

(* What is left to run on [m] from step [first], checked: the spec's
   arrivals less those journalled in [arrived], the plan's actions from
   [first] on less the batches in [applied] (both empty on a fresh run). *)
let remaining ?(arrived = Hashtbl.create 0) ?(applied = Hashtbl.create 0) env m
    ~first =
  let journalled key = Option.value ~default:0 (Hashtbl.find_opt arrived key) in
  let counts =
    Array.mapi
      (fun t -> Array.mapi (fun i k -> k - journalled (t, i)))
      (Abivm.Spec.arrivals env.spec)
  in
  let actions =
    List.filter (fun (t, _) -> t >= first) (Abivm.Plan.actions env.plan)
    |> List.map (fun (t, action) ->
           (t, Array.mapi (fun i k -> if Hashtbl.mem applied (t, i) then 0 else k) action))
  in
  Bridge.Runner.check m ~first ~counts actions
  |> Result.map (fun () -> (counts, actions))

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

(* The journal and the checkpoints around {!Bridge.Runner.execute}:
   [counts]/[actions] come from [remaining]; [draws] is mutated in place
   as feeds are consumed.  [log] is the group log, [journal] Exec's
   handle on it. *)
let execute config env ~log ~journal ~manifest ~m ~(feeds : Tpcr.Updates.feeds)
    ~first ~counts ~actions ~cost0 ~draws ~recovered ~replayed =
  let horizon = Abivm.Spec.horizon env.spec in
  let lsn0 = Groupwal.lsn log in
  let total = ref cost0 in
  let actions_since = ref 0 in
  (* Batches still to apply: a checkpoint with fewer than [ckpt_actions]
     of them left is superseded by the final one before it pays off. *)
  let batches n k = if k > 0 then n + 1 else n in
  let actions_left =
    ref
      (List.fold_left (fun n (_, action) -> Array.fold_left batches n action) 0
         actions)
  in
  let bytes_mark = ref (Groupwal.total_bytes log) in
  let manifest = ref manifest in
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
    | None -> ()
    | Some (lsn, p) ->
        let settled =
          if wait then true
          else match Checkpoint.poll p with `Running -> false | _ -> true
        in
        if settled then begin
          let t0 = Unix.gettimeofday () in
          let saved = Checkpoint.await p in
          (* re-raises an injected crash *)
          inflight := None;
          adopt lsn saved;
          stall_since t0
        end
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
     checkpoint below follows the last step).  One background checkpoint
     at a time: a trigger while one is in flight waits for a later step. *)
  let arrive t counts =
    if
      t > first
      && (!actions_since >= config.ckpt_actions
         || Groupwal.total_bytes log - !bytes_mark >= config.ckpt_bytes)
      && !actions_left >= config.ckpt_actions
      && !inflight = None
    then checkpoint (t - 1);
    config.hook (Hook.Step_start t);
    settle_inflight ~wait:false;
    Ivm.Maintainer.ingest m ~next:feeds.Tpcr.Updates.next counts
      ~on_arrival:(fun ~table change ->
        draws.(table) <- draws.(table) + 1;
        Groupwal.append journal (Record.Arrival { time = t; table; change }));
    Groupwal.commit journal
  in
  Bridge.Runner.execute m ~first ~counts ~arrive actions
    ~on_applied:(fun ~t ~table ~count ~cost ->
      total := !total +. cost;
      Groupwal.append journal (Record.Applied { time = t; table; count; cost });
      Groupwal.commit journal;
      incr actions_since;
      decr actions_left);
  settle_inflight ~wait:true;
  (* Final checkpoint: marks the run complete (next_step past the
     horizon) and lets a later [verify] work from snapshot + empty
     tail.  Resuming an already-finished run (no steps, no new log
     records) skips it — the directory already holds exactly this
     checkpoint, and re-adding it would only churn the manifest.  Always
     synchronous: the process is about to report completion. *)
  let already_complete = first > horizon && Groupwal.lsn log = lsn0 in
  if not already_complete then checkpoint ~background:false horizon;
  {
    total_cost = !total;
    rows = Ivm.Maintainer.rows m;
    consistent = Ivm.Maintainer.check_consistent m = Ok ();
    recovered;
    replayed;
    checkpoints = !ckpts;
    steps_run = max 0 (horizon - first + 1);
    lsn = Groupwal.lsn log;
  }

(* [f] over the group log under [config.dir], opened at [from_lsn], and
   Exec's one handle on it, whose forcing policy is [config.sync]; an
   [Error] when the log refuses to open.  An injected [Hook.Crash] must
   behave like a real crash: the log is abandoned, so the open window is
   lost instead of flushed on the way out (which would make
   Interval/Never tail loss untestable). *)
let with_log config ~from_lsn f =
  match
    Groupwal.open_ ~dir:(Fsutil.group_dir config.dir)
      ~segment_bytes:config.segment_bytes ~hook:config.hook ~from_lsn ()
  with
  | Error e -> Error ("wal: " ^ e)
  | Ok (log, _) -> (
      let journal =
        Groupwal.attach log ~tenant:Recovery.tenant ~policy:config.sync ()
      in
      match f log journal with
      | v ->
          Groupwal.close log;
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          (match e with
          | Hook.Crash _ -> Groupwal.abandon log
          | _ -> Groupwal.close log);
          Printexc.raise_with_backtrace e bt)

let run config env =
  if Sys.file_exists (Filename.concat config.dir "MANIFEST") then
    failwith
      (Printf.sprintf
         "Exec.run: %s already holds a durable run — use resume (or point at \
          a fresh directory)"
         config.dir);
  (* Genesis state and plan are checked before anything is written, so a
     refused plan leaves no directory to refuse the next run. *)
  let m, feeds = env.fresh () in
  let counts, actions =
    match remaining env m ~first:0 with
    | Ok left -> left
    | Error e -> invalid_arg ("Exec.run: " ^ e)
  in
  Fsutil.mkdirs config.dir;
  let manifest = Manifest.empty ~params:env.params in
  Manifest.save ~dir:config.dir ~hook:config.hook manifest;
  match
    with_log config ~from_lsn:0 (fun log journal ->
        Ok
          (execute config env ~log ~journal ~manifest ~m ~feeds ~first:0
             ~counts ~actions ~cost0:0.
             ~draws:
               (Array.make (Ivm.Viewdef.n_tables (Ivm.Maintainer.view m)) 0)
             ~recovered:false ~replayed:0))
  with
  | Ok outcome -> outcome
  | Error e -> failwith (Printf.sprintf "Exec.run: %s: %s" config.dir e)

let recover_state config env =
  Recovery.recover ~dir:config.dir ~view_of:env.view_of
    ~fresh:(fun () -> fst (env.fresh ()))

let resume config env =
  let ( let* ) = Result.bind in
  let* st = recover_state config env in
  let first = st.Recovery.next_step in
  let* counts, actions =
    remaining env st.Recovery.maintainer ~first ~arrived:st.Recovery.arrived
      ~applied:st.Recovery.applied
    |> Result.map_error (fun e -> "resume: " ^ e)
  in
  with_log config ~from_lsn:(max 0 st.Recovery.checkpoint_lsn)
    (fun log journal ->
      if Groupwal.lsn log <> st.Recovery.lsn then
        Error
          (Printf.sprintf
             "resume: WAL reopened at lsn %d but recovery replayed to %d"
             (Groupwal.lsn log) st.Recovery.lsn)
      else begin
        let _, feeds = env.fresh () in
        (* Fast-forward the deterministic feeds past every draw the
           pre-crash process (and replay) already consumed. *)
        Array.iteri
          (fun i n ->
            for _ = 1 to n do
              ignore (feeds.Tpcr.Updates.next i)
            done)
          st.Recovery.draws;
        Ok
          (execute config env ~log ~journal ~manifest:st.Recovery.manifest
             ~m:st.Recovery.maintainer ~feeds ~first ~counts ~actions
             ~cost0:st.Recovery.cost ~draws:st.Recovery.draws ~recovered:true
             ~replayed:st.Recovery.replayed)
      end)

let verify config env =
  match recover_state config env with
  | Error _ as e -> e
  | Ok st -> (
      match Ivm.Maintainer.check_consistent st.Recovery.maintainer with
      | Ok () -> Ok st
      | Error e -> Error (Printf.sprintf "recovered state inconsistent: %s" e))
