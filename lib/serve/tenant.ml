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
  let find = Durable.Manifest.find ~what:"tenant" params in
  let get key conv = Durable.Manifest.get ~what:"tenant" params key conv in
  let* name = find "name" in
  let* seed = get "seed" int_of_string_opt in
  let* rows = get "rows" int_of_string_opt in
  let* horizon = get "horizon" int_of_string_opt in
  let* limit_factor = get "limit_factor" (Durable.Manifest.float_if Float.is_finite) in
  let* streams = Result.map (String.split_on_char ';') (find "streams") in
  (* Absent in pre-order manifests: those tenants ran first-order. *)
  let* order =
    match List.assoc_opt "order" params with
    | None -> Ok Ivm.Viewdef.First_order
    | Some v -> Durable.Manifest.parse "order" Ivm.Viewdef.order_of_name v
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
         no-op until [close_step]); a replay can end with a step begun *)
  mutable corr : float;
  mutable next_allowed : int;  (* reanchor backoff *)
  mutable gap : int;
  mutable metered : float;
  mutable charged : float;  (* model-cost units, pre-discount *)
  mutable violations : int;
  mutable sheds : int;
  mutable reanchors : int;
  mutable replayed : int;
  mutable held : Durable.Record.t list;  (* unreplayed log tail *)
  mutable flush_log : (int * int * float * float) list;
      (* replayed batches, newest first (see [replayed_flushes]) *)
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
    held = [];
    flush_log = [];
  }

(* --- one time step, in scheduler-driven phases --------------------------- *)

(* A replayed step that parts from its log tail: {!replay}'s [Error]. *)
exception Diverged of string

let diverged t fmt =
  Printf.ksprintf
    (fun e ->
      raise (Diverged (Printf.sprintf "%s: t=%d%s" t.config.name t.next_step e)))
    fmt

(* Every record a step journals.  While a recovering tenant holds records
   of its log tail, each must be the next held one, payload for payload,
   and consumes it; once the tail is used up, records go to the log, so a
   tail cut mid-ingest is topped up by the live step. *)
let journal t (record : Durable.Record.t) =
  match (record, t.held) with
  | _, [] -> Durable.Groupwal.append t.log record
  | _, next :: rest
    when Durable.Record.payload next = Durable.Record.payload record ->
      t.held <- rest;
      t.replayed <- t.replayed + 1
  | Arrival { table; _ }, Arrival a :: _
    when a.time = t.next_step && a.table = table ->
      diverged t
        " table %d: journalled arrival differs from the deterministic feed"
        table
  | Arrival { table; _ }, _ ->
      diverged t
        " table %d: WAL does not match the tenant's deterministic arrival \
         schedule"
        table
  | Applied { table; count; cost; _ }, Applied a :: _
    when a.table = table && a.count = count ->
      diverged t
        ": table %d: recomputed cost %.17g differs from recorded %.17g — \
         non-deterministic replay"
        table cost a.cost
  | Applied { table; _ }, _ ->
      diverged t ": table %d: applied record does not match the batch" table

let begin_step t =
  if not t.begun then begin
    let time = t.next_step in
    let d = t.arrivals.(time) in
    Ivm.Maintainer.ingest t.maintainer ~next:t.feeds.Tpcr.Updates.next d
      ~on_arrival:(fun ~table change ->
        journal t (Durable.Record.Arrival { time; table; change }));
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

(* [full] is [propose]'s gate; a zero-arrival observe leaves pending
   unchanged, so evaluating it before [begin_step] is exact. *)
let ready t =
  let time = t.next_step in
  t.next_busy.(min time (t.config.horizon + 1)) = time
  || (time >= t.config.horizon
     && not (Abivm.Statevec.is_zero (Abivm.Online.pending t.controller)))
  || Abivm.Online.full t.controller

let shed t =
  t.sheds <- t.sheds + 1;
  Telemetry.incr "serve.sheds"

(* Each batch is accounted as it is applied, so the running float totals
   add in the same order live and on replay. *)
let execute t batches =
  let time = t.next_step in
  ignore
    (Ivm.Maintainer.apply t.maintainer batches
       ~on_applied:(fun ~table ~count ~cost ->
         journal t (Durable.Record.Applied { time; table; count; cost });
         let expected = Cost.Func.eval t.costs.(table) count in
         Robust.Monitor.observe_cost t.monitor ~expected ~observed:cost;
         t.metered <- t.metered +. cost;
         t.charged <- t.charged +. expected));
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

(* [execute] on an all-zero batch journals nothing and [absorb] is a
   no-op, so only the observe/close bookkeeping advances. *)
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

(* The batch row of the step's leading [Applied] records, still held, each
   count checked against its queue before anything is processed. *)
let held_row t =
  let batches = Array.make n_tables 0 in
  let rec scan = function
    | Durable.Record.Arrival a :: _ when a.time = t.next_step ->
        diverged t ": more arrivals than the schedule"
    | Durable.Record.Applied { time; table; count; _ } :: rest
      when time = t.next_step ->
        if table < 0 || table >= n_tables then
          diverged t ": applied record for unknown table %d" table;
        let pending = Ivm.Maintainer.pending_size t.maintainer table in
        batches.(table) <- batches.(table) + count;
        if count < 0 || batches.(table) > pending then
          diverged t
            ": applied record wants %d pending changes of table %d but only \
             %d are pending"
            batches.(table) table pending;
        scan rest
    | _ -> batches
  in
  scan t.held

(* Replay runs the live step until the log tail is used up: [begin_step]
   re-draws the arrivals, [execute] re-meters the held row, and [journal]
   matches every record.  A tail ending with a step's arrivals leaves that
   step begun: the crash came before its flush decision, which only the
   service can re-derive (a re-run round, or the phase-B journal). *)
let replay t records =
  t.held <- records;
  let rec steps () =
    if t.held = [] then Ok ()
    else if finished t then
      Error
        (Printf.sprintf "%s: WAL extends past horizon %d" t.config.name
           t.config.horizon)
    else begin
      begin_step t;
      if t.held <> [] then begin
        let time = t.next_step and batches = held_row t in
        execute t batches;
        Array.iteri
          (fun table k ->
            if k > 0 then
              t.flush_log <-
                (time, table, model_cost t table k, model_cost t table 1)
                :: t.flush_log)
          batches;
        close_step t
      end;
      steps ()
    end
  in
  try steps () with Diverged e -> Error e
