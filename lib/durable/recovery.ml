let tenant = "exec"

type state = {
  maintainer : Ivm.Maintainer.t;
  cost : float;
  draws : int array;
  next_step : int;
  arrived : (int * int, int) Hashtbl.t;
  applied : (int * int, float) Hashtbl.t;
  lsn : int;
  replayed : int;
  checkpoint_lsn : int;
  manifest : Manifest.t;
}

let ( let* ) = Result.bind

let rows_equal a b =
  List.length a = List.length b
  && List.for_all2 (fun x y -> Relation.Tuple.compare x y = 0) a b

(* Restore the checkpointed maintainer: tables, view, content, queues —
   then refuse to proceed unless the re-materialized view rows match the
   snapshot bit for bit. *)
let restore_maintainer ~view_of (c : Checkpoint.t) =
  let tables = Checkpoint.restore_tables c in
  let view = view_of tables in
  if Ivm.Viewdef.n_tables view <> Array.length c.Checkpoint.tables then
    Error "recovered view spans a different table count than the checkpoint"
  else begin
    let m = Ivm.Maintainer.create view in
    Array.iteri
      (fun i changes -> List.iter (Ivm.Maintainer.on_arrive m i) changes)
      c.Checkpoint.pending;
    let rows = Ivm.Maintainer.rows m in
    if rows_equal rows c.Checkpoint.view_rows then Ok m
    else
      Error
        (Printf.sprintf
           "checkpoint verification failed: re-materialized view has %d rows, \
            snapshot recorded %d (or contents differ)"
           (List.length rows)
           (List.length c.Checkpoint.view_rows))
  end

let replay_record m ~draws ~arrived ~applied ~cost record =
  match record with
  | Record.Arrival { time; table; change } ->
      if table < 0 || table >= Array.length draws then
        Error (Printf.sprintf "arrival for unknown table %d" table)
      else begin
        Ivm.Maintainer.on_arrive m table change;
        draws.(table) <- draws.(table) + 1;
        let key = (time, table) in
        Hashtbl.replace arrived key
          (1 + Option.value ~default:0 (Hashtbl.find_opt arrived key));
        Ok cost
      end
  | Record.Applied { time; table; count; cost = recorded } -> (
      match Ivm.Maintainer.replay_applied m ~table ~count ~cost:recorded with
      | Error e -> Error (Printf.sprintf "WAL replay at t=%d: %s" time e)
      | Ok () ->
          Hashtbl.replace applied (time, table) recorded;
          Ok (cost +. recorded))

(* Before the group log, Exec kept untagged [wal-*.seg] segments directly
   in its directory. *)
let old_layout dir =
  Array.exists
    (fun f ->
      String.starts_with ~prefix:"wal-" f && Filename.check_suffix f ".seg")
    (Sys.readdir dir)

(* The tail of Exec's log: its own records, and nothing else. *)
let read_tail ~dir ~from_lsn =
  match Groupwal.read ~dir:(Fsutil.group_dir dir) ~from_lsn with
  | Error e -> Error (Printf.sprintf "wal: %s" e)
  | Ok { Groupwal.coflushes = _ :: _; _ } ->
      Error "wal: holds a serve co-flush record; not a plan's log"
  | Ok { tenants = []; _ } -> Ok []
  | Ok { tenants = [ (t, records) ]; _ } when t = tenant -> Ok records
  | Ok { tenants; _ } ->
      let foreign, _ = List.find (fun (t, _) -> t <> tenant) tenants in
      Error
        (Printf.sprintf "wal: holds records of tenant %S; not a plan's log"
           foreign)

let recover ~dir ~view_of ~fresh =
  let t0 = Unix.gettimeofday () in
  let* manifest =
    match Manifest.load ~dir with
    | Ok (Some m) -> Ok m
    | Ok None -> Error (Printf.sprintf "%s: no manifest — not a durable run" dir)
    | Error e -> Error (Printf.sprintf "manifest: %s" e)
  in
  let* () =
    if old_layout dir then
      Error
        (Printf.sprintf
           "%s: old durable layout (WAL segments directly in the directory, \
            not under groupwal/): no longer supported"
           dir)
    else Ok ()
  in
  let* m, base_cost, draws, next_step, checkpoint_lsn =
    match manifest.Manifest.checkpoint with
    | None ->
        let m = fresh () in
        let n = Ivm.Viewdef.n_tables (Ivm.Maintainer.view m) in
        Ok (m, 0., Array.make n 0, 0, -1)
    | Some (lsn, file) ->
        let* c =
          match Checkpoint.load (Filename.concat dir file) with
          | Ok c -> Ok c
          | Error e -> Error (Printf.sprintf "checkpoint %s: %s" file e)
        in
        if c.Checkpoint.lsn <> lsn then
          Error
            (Printf.sprintf "checkpoint %s records lsn %d, manifest says %d"
               file c.Checkpoint.lsn lsn)
        else
          let* m = restore_maintainer ~view_of c in
          Ok
            ( m,
              c.Checkpoint.cost,
              Array.copy c.Checkpoint.draws,
              c.Checkpoint.next_step,
              lsn )
  in
  let from_lsn = max 0 checkpoint_lsn in
  let* tail = read_tail ~dir ~from_lsn in
  let arrived = Hashtbl.create 64 in
  let applied = Hashtbl.create 64 in
  let* cost =
    List.fold_left
      (fun acc record ->
        let* cost = acc in
        replay_record m ~draws ~arrived ~applied ~cost record)
      (Ok base_cost) tail
  in
  let replayed = List.length tail in
  if Telemetry.enabled () then begin
    Telemetry.set_gauge "durable.recovery_ms"
      ((Unix.gettimeofday () -. t0) *. 1000.);
    Telemetry.add "durable.replayed_records" (float_of_int replayed)
  end;
  Ok
    {
      maintainer = m;
      cost;
      draws;
      next_step;
      arrived;
      applied;
      lsn = from_lsn + replayed;
      replayed;
      checkpoint_lsn;
      manifest;
    }
