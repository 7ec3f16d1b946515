let n_tables = 2
let calib_sizes = [ 1; 5; 10; 20; 50 ]

type config = {
  name : string;
  seed : int;
  rows : int;
  horizon : int;
  limit_factor : float;
  streams : string list;
  order : Ivm.Viewdef.order;
  sync : Durable.Wal.sync option;
}

let params_of_config c =
  [
    ("name", c.name);
    ("seed", string_of_int c.seed);
    ("rows", string_of_int c.rows);
    ("horizon", string_of_int c.horizon);
    ("limit_factor", Printf.sprintf "%h" c.limit_factor);
    ("streams", String.concat ";" c.streams);
    ("order", Ivm.Viewdef.order_name c.order);
  ]
  @
  match c.sync with
  | None -> []
  | Some s -> [ ("sync", Durable.Wal.sync_to_string s) ]

let config_of_params params =
  let ( let* ) = Result.bind in
  let find key =
    match List.assoc_opt key params with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "tenant params missing %S" key)
  in
  let int_param key =
    Result.bind (find key) (fun v ->
        match int_of_string_opt v with
        | Some n -> Ok n
        | None -> Error (Printf.sprintf "bad %s parameter %S" key v))
  in
  let* name = find "name" in
  let* seed = int_param "seed" in
  let* rows = int_param "rows" in
  let* horizon = int_param "horizon" in
  let* limit_factor =
    Result.bind (find "limit_factor") (fun v ->
        match float_of_string_opt v with
        | Some f when Float.is_finite f -> Ok f
        | _ -> Error (Printf.sprintf "bad limit_factor parameter %S" v))
  in
  let* streams = Result.map (String.split_on_char ';') (find "streams") in
  (* Absent in pre-order manifests: those tenants ran first-order. *)
  let* order =
    match List.assoc_opt "order" params with
    | None -> Ok Ivm.Viewdef.First_order
    | Some v -> (
        match Ivm.Viewdef.order_of_name v with
        | Some o -> Ok o
        | None -> Error (Printf.sprintf "bad order parameter %S" v))
  in
  (* Absent means "no override": the tenant follows the service's
     durability policy (the window cadence, in grouped mode). *)
  let* sync =
    match List.assoc_opt "sync" params with
    | None -> Ok None
    | Some v -> Result.map Option.some (Durable.Wal.sync_of_string v)
  in
  Ok { name; seed; rows; horizon; limit_factor; streams; order; sync }

type build = { cfg : config; streams : Workload.Arrivals.stream array }

(* A built tenant not yet attached to the log. *)
type engine = {
  build : build;
  base_costs : Cost.Func.t array;
  maintainer : Ivm.Maintainer.t;
  feeds : Tpcr.Updates.feeds;
}

type t = {
  config : config;
  arrivals : int array array;
  next_busy : int array;
      (* next_busy.(s): earliest step >= s with nonzero arrivals, or
         horizon + 1 — the event scheduler's next-arrival clock *)
  maintainer : Ivm.Maintainer.t;
  feeds : Tpcr.Updates.feeds;
  controller : Abivm.Online.controller;
  monitor : Robust.Monitor.t;
  log : Durable.Groupwal.handle;
      (* this tenant's view of the service's shared group-commit log; the
         tenant never closes or syncs the log itself — it only detaches,
         since the window (and hence durability cadence) belongs to the
         service *)
  base_costs : Cost.Func.t array;
  limit : float;
  mutable costs : Cost.Func.t array;  (* base_costs scaled by [corr] *)
  mutable next_step : int;
  mutable begun : bool;
      (* [next_step]'s ingest + observe already ran ([begin_step] is a
         no-op until [close_step]) — set live per step, and by replay
         when the WAL tail ends with a step's arrivals but no flush:
         that step's decision was lost mid-round, and the service
         either re-runs the round (nobody flushed — phase B re-derives
         the identical invites) or catches it up from the journal *)
  mutable corr : float;
  mutable next_allowed : int;  (* reanchor backoff *)
  mutable gap : int;
  mutable metered : float;
  mutable charged : float;  (* model-cost units, pre-discount *)
  mutable violations : int;
  mutable sheds : int;
  mutable reanchors : int;
  mutable replayed : int;
  mutable flush_log : (int * int * float * float) list;
      (* replayed flushes, newest first: (time, table, model cost of the
         batch, single-modification setup cost) — both costs evaluated
         at the replay point, i.e. under the then-current re-anchored
         model, so the service can rebuild its coordination accounting *)
}

let name t = t.config.name
let config t = t.config
let time t = t.next_step
let finished t = t.next_step > t.config.horizon
let limit t = t.limit
let metered_cost t = t.metered
let charged_cost t = t.charged
let violations t = t.violations
let sheds t = t.sheds
let reanchors t = t.reanchors
let replayed t = t.replayed
let replayed_flushes t = List.rev t.flush_log
let pending t = Abivm.Online.pending t.controller
let controller t = t.controller

let delta_entries t =
  match Ivm.Maintainer.delta_view t.maintainer with
  | Some dv -> Ivm.Deltaview.entries dv
  | None -> 0

let model_cost t i k = Cost.Func.eval t.costs.(i) k

let capacity t i = Cost.Check.max_batch t.costs.(i) ~limit:t.limit ~cap:1_000_000

let ( let* ) = Result.bind

let validate config =
  if not (Durable.Fsutil.valid_tenant_name config.name) then
    Error (Printf.sprintf "invalid tenant name %S" config.name)
  else if config.rows < 1 then Error "rows must be >= 1"
  else if config.horizon < 0 then Error "horizon must be >= 0"
  else if not (Float.is_finite config.limit_factor && config.limit_factor > 0.0)
  then Error "limit_factor must be finite and > 0"
  else if List.length config.streams <> n_tables then
    Error
      (Printf.sprintf "tenant %S needs exactly %d streams" config.name n_tables)
  else if
    match config.sync with Some (Durable.Wal.Interval n) -> n <= 0 | _ -> false
  then Error (Printf.sprintf "tenant %S: sync interval must be > 0" config.name)
  else
    List.fold_left
      (fun acc text ->
        let* acc = acc in
        let* s = Workload.Arrivals.stream_of_string text in
        Ok (s :: acc))
      (Ok []) config.streams
    |> Result.map (fun streams -> Array.of_list (List.rev streams))

(* --- construction ------------------------------------------------------ *)

(* The whole tenant environment is deterministic in the config: the
   synthetic database, the update feeds, the arrival schedule, and the
   cost model.  This is what lets a manifest holding only the params
   rebuild the tenant bit-identically at recovery.  The cost model is
   calibrated on a copy of the freshly built engine ({!Ivm.Maintainer.copy},
   its own tables and meter) with a second feed drawn from the same seed,
   so calibration batches never touch the live engine, and the curves are
   those of a twin generated and materialized from scratch. *)
let engine b =
  let config = b.cfg in
  let db =
    Tpcr.Synth.generate ~seed:config.seed ~r_rows:config.rows
      ~s_rows:config.rows ()
  in
  let maintainer =
    Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter ~order:config.order
      (Tpcr.Synth.join_view db)
  in
  Relation.Meter.reset db.Tpcr.Synth.meter;
  let feeds () = Tpcr.Synth.insert_feeds ~seed:(config.seed + 1) db in
  let twin = Ivm.Maintainer.copy maintainer and twin_feeds = feeds () in
  let curve table suffix =
    Bridge.Calibrate.tabulated
      ~name:(config.name ^ suffix)
      (Bridge.Calibrate.measure_curve twin twin_feeds ~table ~sizes:calib_sizes)
  in
  (* S first, then R, on the one copy (the R curve sees the S batches
     applied): the curves of existing roots were measured in this order,
     and recovery must rebuild them to the bit. *)
  let ds = curve 1 ".dS" in
  let dr = curve 0 ".dR" in
  let base_costs = [| dr; ds |] in
  ({ build = b; base_costs; maintainer; feeds = feeds () } : engine)

let prepare config =
  Result.map (fun streams -> { cfg = config; streams }) (validate config)

let save_manifest ~root config =
  let dir = Durable.Fsutil.tenant_dir ~root ~name:config.name in
  match Durable.Manifest.load ~dir with
  | Ok None ->
      Durable.Manifest.save ~dir
        (Durable.Manifest.empty ~params:(params_of_config config));
      Ok ()
  | Ok (Some _) ->
      Error (Printf.sprintf "tenant %S already exists in %s" config.name root)
  | Error e -> Error (Printf.sprintf "tenant %S manifest: %s" config.name e)

let assemble ~group ({ build = b; base_costs; maintainer; feeds } : engine) =
  let config = b.cfg in
  let arrivals =
    Workload.Arrivals.generate ~seed:(config.seed + 2) ~horizon:config.horizon
      b.streams
  in
  let next_busy = Array.make (config.horizon + 2) (config.horizon + 1) in
  for s = config.horizon downto 0 do
    next_busy.(s) <-
      (if Array.exists (fun c -> c > 0) arrivals.(s) then s
       else next_busy.(s + 1))
  done;
  let limit =
    config.limit_factor
    *. Float.max
         (Cost.Func.eval base_costs.(0) 1)
         (Cost.Func.eval base_costs.(1) 1)
  in
  let controller =
    Abivm.Online.controller (Abivm.Spec.make ~costs:base_costs ~limit ~arrivals)
  in
  let monitor =
    Robust.Monitor.create
      ~predicted_rates:(Workload.Arrivals.mean_rates arrivals)
      ()
  in
  let log =
    Durable.Groupwal.attach group ~tenant:config.name ?policy:config.sync ()
  in
  {
    config;
    arrivals;
    next_busy;
    maintainer;
    feeds;
    controller;
    monitor;
    log;
    base_costs;
    limit;
    costs = base_costs;
    next_step = 0;
    begun = false;
    corr = 1.0;
    next_allowed = 0;
    gap = 2;
    metered = 0.0;
    charged = 0.0;
    violations = 0;
    sheds = 0;
    reanchors = 0;
    replayed = 0;
    flush_log = [];
  }

(* --- one time step, in scheduler-driven phases --------------------------- *)

let begin_step t =
  if not t.begun then begin
    let time = t.next_step in
    let d = t.arrivals.(time) in
    Ivm.Maintainer.ingest t.maintainer ~next:t.feeds.Tpcr.Updates.next d
      ~on_arrival:(fun ~table change ->
        Durable.Groupwal.append t.log
          (Durable.Record.Arrival { time; table; change }));
    Durable.Groupwal.commit t.log;
    Robust.Monitor.observe_arrivals t.monitor d;
    Abivm.Online.observe t.controller ~arrivals:d;
    t.begun <- true
  end

let mandatory t =
  if t.next_step >= t.config.horizon then begin
    let p = Abivm.Online.pending t.controller in
    if Abivm.Statevec.is_zero p then None else Some p
  end
  else Abivm.Online.propose t.controller

(* Event-scheduler readiness: would this step do anything beyond a pure
   zero-arrival observe?  Ready iff arrivals land now (the precomputed
   next-arrival clock), the controller is already full ([propose]'s
   gate; a zero-arrival observe leaves pending unchanged, so evaluating
   before [begin_step] is exact), or the tenant sits at the horizon with
   pending work (the final mandatory flush).  A non-ready tenant can be stepped by
   {!idle_step} with no WAL traffic and no proposal; it stays
   invite-eligible because nothing phase B reads (pending, capacity,
   model costs) changes in a zero-arrival [begin_step]. *)
let ready t =
  let time = t.next_step in
  t.next_busy.(min time (t.config.horizon + 1)) = time
  || (time >= t.config.horizon
     && not (Abivm.Statevec.is_zero (Abivm.Online.pending t.controller)))
  || Abivm.Online.full t.controller

let shed t =
  t.sheds <- t.sheds + 1;
  Telemetry.incr "serve.sheds"

(* One executed (or replayed) batch's accounting, per batch so the
   running float totals add in the same order live and on replay.
   Returns the batch's model cost. *)
let account t ~table ~count ~cost =
  let expected = Cost.Func.eval t.costs.(table) count in
  Robust.Monitor.observe_cost t.monitor ~expected ~observed:cost;
  t.metered <- t.metered +. cost;
  t.charged <- t.charged +. expected;
  expected

let execute t batches =
  let time = t.next_step in
  ignore
    (Ivm.Maintainer.apply t.maintainer batches
       ~on_applied:(fun ~table ~count ~cost ->
         Durable.Groupwal.append t.log
           (Durable.Record.Applied { time; table; count; cost });
         ignore (account t ~table ~count ~cost)));
  Durable.Groupwal.commit t.log;
  Abivm.Online.absorb t.controller batches

let close_step t =
  let time = t.next_step in
  if time < t.config.horizon && Abivm.Online.full t.controller then
    t.violations <- t.violations + 1;
  if Telemetry.enabled () then begin
    let labels = [ ("tenant", t.config.name) ] in
    Telemetry.set_gauge ~labels "serve.slo_headroom"
      ((t.limit -. Abivm.Online.refresh_cost t.controller) /. t.limit);
    Telemetry.set_gauge ~labels "serve.queue_depth"
      (float_of_int (Abivm.Statevec.total (Abivm.Online.pending t.controller)));
    Telemetry.set_gauge ~labels "serve.shed" (float_of_int t.sheds)
  end;
  (* Escalation: the §4.3 controller's model has drifted from the metered
     engine — re-anchor it by the monitor's cost ratio (the replanner's
     exact correction step), with exponential backoff so a noisy tenant
     cannot thrash. *)
  if time >= t.next_allowed && Robust.Monitor.tripped t.monitor then begin
    let costs', corr' =
      Robust.Replan.reanchor ~monitor:t.monitor ~corr:t.corr t.base_costs
    in
    t.corr <- corr';
    t.costs <- costs';
    Abivm.Online.set_costs t.controller costs';
    t.reanchors <- t.reanchors + 1;
    t.next_allowed <- time + t.gap;
    t.gap <- int_of_float (Float.round (2.0 *. float_of_int t.gap))
  end;
  t.begun <- false;
  t.next_step <- time + 1

(* One zero-work step: the identical call sequence the lockstep scheduler
   makes for a tenant whose proposal is [None] and who is not invited —
   minus the pool dispatch.  [execute] on an all-zero batch journals
   nothing and [absorb] is a no-op, so only the observe/close
   bookkeeping advances, exactly as in a lockstep round. *)
let idle_step t =
  begin_step t;
  execute t (Array.make n_tables 0);
  close_step t

let finish t =
  let consistent = Ivm.Maintainer.check_consistent t.maintainer = Ok () in
  Durable.Groupwal.detach t.log;
  consistent

let abandon t = Durable.Groupwal.detach t.log

(* --- recovery ------------------------------------------------------------ *)

(* Replay drives on the deterministic schedule, not on the records: step
   [time] expects [arrivals.(time).(i)] Arrival records per table (in
   table order — exactly the order [begin_step] journals them), then any
   Applied records for that step.  Every replayed arrival is re-drawn
   from the feeds and must encode to the identical payload; every
   replayed batch must re-meter to the bit-identical cost.  A record tail
   cut mid-ingest (a crash between arrival commits) is completed: the
   missing arrivals of that step are drawn, ingested and journalled, so a
   committed arrival is never dropped and the schedule stays whole.  A
   trailing step whose arrivals committed but whose flush never did is
   left OPEN ([begun] set, [close_step] not called): its flush decision
   died with the crash, and only the service can reproduce it — by
   re-running the round (no tenant flushed, so phase B re-derives the
   identical invites) or from the phase-B journal (some did). *)
let replay t records =
  let rest = ref records in
  let result = ref (Ok ()) in
  let fail msg = if !result = Ok () then result := Error msg in
  while !rest <> [] && !result = Ok () do
    let time = t.next_step in
    if time > t.config.horizon then
      fail (Printf.sprintf "%s: WAL extends past horizon %d" t.config.name
              t.config.horizon)
    else begin
      let d = t.arrivals.(time) in
      Ivm.Maintainer.ingest t.maintainer ~next:t.feeds.Tpcr.Updates.next d
        ~on_arrival:(fun ~table change ->
          if !result = Ok () then
            match !rest with
            | Durable.Record.Arrival { time = rt; table = rtable; change = logged }
              :: tl
              when rt = time && rtable = table ->
                let payload change =
                  Durable.Record.payload
                    (Durable.Record.Arrival { time; table; change })
                in
                if payload logged <> payload change then
                  fail
                    (Printf.sprintf
                       "%s: t=%d table %d: journalled arrival differs from \
                        the deterministic feed"
                       t.config.name time table)
                else begin
                  t.replayed <- t.replayed + 1;
                  rest := tl
                end
            | [] ->
                (* Crash mid-ingest: finish this step's arrivals live. *)
                Durable.Groupwal.append t.log
                  (Durable.Record.Arrival { time; table; change })
            | _ :: _ ->
                fail
                  (Printf.sprintf
                     "%s: t=%d table %d: WAL does not match the tenant's \
                      deterministic arrival schedule"
                     t.config.name time table));
      (* Commits the topped-up arrivals, if any. *)
      Durable.Groupwal.commit t.log;
      if !result = Ok () then begin
        (match !rest with
        | Durable.Record.Arrival { time = rt; _ } :: _ when rt = time ->
            fail
              (Printf.sprintf "%s: t=%d: more arrivals than the schedule"
                 t.config.name time)
        | _ -> ());
        Robust.Monitor.observe_arrivals t.monitor d;
        Abivm.Online.observe t.controller ~arrivals:d;
        let batches = Array.make n_tables 0 in
        let applied_any = ref false in
        let continue_applied = ref true in
        while !continue_applied && !result = Ok () do
          match !rest with
          | Durable.Record.Applied { time = rt; table; count; cost } :: tl
            when rt = time -> (
              match
                Ivm.Maintainer.replay_applied t.maintainer ~table ~count ~cost
              with
              | Error e ->
                  fail (Printf.sprintf "%s: t=%d: %s" t.config.name time e)
              | Ok () ->
                  let expected = account t ~table ~count ~cost in
                  t.flush_log <-
                    (time, table, expected, Cost.Func.eval t.costs.(table) 1)
                    :: t.flush_log;
                  batches.(table) <- batches.(table) + count;
                  t.replayed <- t.replayed + 1;
                  applied_any := true;
                  rest := tl)
          | _ -> continue_applied := false
        done;
        if !result = Ok () then
          if (not !applied_any) && !rest = [] then
            (* The WAL tail ends with this step's arrivals and no flush.
               [execute] commits a step's Applied records atomically, so
               this is a crash between the ingest and the flush decision
               — NOT evidence of a no-flush step (a closed no-flush step
               is always followed by later records).  Leave the step
               open: the ingest ran, the flush belongs to the service
               (re-run round or journal catch-up). *)
            t.begun <- true
          else begin
            Abivm.Online.absorb t.controller batches;
            close_step t
          end
      end
    end
  done;
  !result
