type wal_mode = Grouped
type scheduler = Event | Lockstep

type config = {
  admission : Admission.config;
  coordinate : bool;
  discount_factor : float;
  shed_budget : float option;
  sync : Durable.Wal.sync;
  wal_mode : wal_mode;
  scheduler : scheduler;
  hook : Durable.Hook.point -> unit;
}

let default_config =
  {
    admission = Admission.default;
    coordinate = true;
    discount_factor = 0.0;
    shed_budget = None;
    sync = Durable.Wal.Always;
    wal_mode = Grouped;
    scheduler = Event;
    hook = Durable.Hook.none;
  }

type tenant_outcome = {
  tenant : string;
  steps : int;
  metered_cost : float;
  charged_cost : float;
  violations : int;
  violation_rate : float;
  sheds : int;
  reanchors : int;
  consistent : bool;
  replayed : int;
}

type outcome = {
  tenants : tenant_outcome list;
  rounds : int;
  aggregate_charged : float;
  aggregate_undiscounted : float;
  co_flushes : int;
  worst_violation_rate : float;
  rejected : int;
  queued_peak : int;
}

type t = {
  root : string;
  config : config;
  pool : Parallel.Pool.t option;
  group : Durable.Groupwal.t;  (* the shared log every tenant commits to *)
  mutable active : Tenant.t list;  (* registration order *)
  mutable waiting : Tenant.config list;  (* FIFO, creation deferred *)
  mutable completed : (Tenant.t * bool) list;  (* newest first *)
  mutable known : string list;
  mutable starts : (string * int) list;  (* admission round per tenant *)
  mutable rejected : int;
  mutable queued_peak : int;
  mutable rounds : int;
  mutable idle_rounds : int;
  mutable agg_charged : float;
  mutable agg_raw : float;
  mutable co_flushes : int;
  journal : (int, (string * int array) list) Hashtbl.t;
      (* recovery only: global round -> the co-flush record the shared
         log holds for that round and its re-run has not yet checked *)
}

let ( let* ) = Result.bind

(* --- service manifest ----------------------------------------------------- *)

(* The root manifest pins everything recovery needs to continue the run
   identically: the scheduler's coordination parameters and the admitted
   tenants in registration order (coordination iterates tenants in that
   order, so the order is part of the deterministic state), each with the
   round it was admitted at — a tenant's local step [k] always executes
   at global round [start + k], which recovery re-establishes. *)
let service_params t =
  [
    ("kind", "serve");
    ("coordinate", string_of_bool t.config.coordinate);
    ("discount_factor", Printf.sprintf "%h" t.config.discount_factor);
    ( "shed_budget",
      match t.config.shed_budget with
      | None -> "none"
      | Some b -> Printf.sprintf "%h" b );
    ("sync", Durable.Wal.sync_to_string t.config.sync);
    ("wal_mode", match t.config.wal_mode with Grouped -> "grouped");
    ( "scheduler",
      match t.config.scheduler with Event -> "event" | Lockstep -> "lockstep"
    );
    ("max_active", string_of_int t.config.admission.Admission.max_active);
    ("max_queued", string_of_int t.config.admission.Admission.max_queued);
    ( "max_delta_entries",
      string_of_int t.config.admission.Admission.max_delta_entries );
    ( "tenants",
      String.concat ";"
        (List.map
           (fun (name, start) -> Printf.sprintf "%s:%d" name start)
           t.starts) );
  ]

let save_manifest t =
  Durable.Manifest.save ~dir:t.root
    (Durable.Manifest.empty ~params:(service_params t))

(* NaN fails every comparison, so [< 0.0] alone would let it through. *)
let valid_discount f = Float.is_finite f && f >= 0.0

let config_of_params params =
  let find = Durable.Manifest.find ~what:"service" params in
  let get key conv = Durable.Manifest.get ~what:"service" params key conv in
  let* kind = find "kind" in
  let* () =
    if kind = "serve" then Ok ()
    else Error (Printf.sprintf "not a serve directory (kind %S)" kind)
  in
  let* coordinate = get "coordinate" bool_of_string_opt in
  let* discount_factor =
    get "discount_factor" (Durable.Manifest.float_if valid_discount)
  in
  let* shed_budget =
    get "shed_budget" (function
      | "none" -> Some None
      | v -> Option.map Option.some (Durable.Manifest.float_if Float.is_finite v))
  in
  let* sync = Result.bind (find "sync") Durable.Wal.sync_of_string in
  (* Roots written before the shared log became the only layout: without
     a [wal_mode] they used private per-tenant WALs, and a [coflush]
     param is a phase-B journal kept in the manifest.  Neither can be
     replayed from the shared log. *)
  let* wal_mode =
    match List.assoc_opt "wal_mode" params with
    | Some "grouped" -> Ok Grouped
    | None ->
        Error
          "service params missing \"wal_mode\": a private per-tenant WAL \
           root, no longer supported"
    | Some "private" ->
        Error "wal_mode \"private\": per-tenant WALs are no longer supported"
    | Some v -> Error (Printf.sprintf "bad wal_mode parameter %S" v)
  in
  let* () =
    if List.mem_assoc "coflush" params then
      Error
        "service params carry a \"coflush\" journal: it now lives in the \
         shared log, and a manifest journal is no longer replayed"
    else Ok ()
  in
  let* scheduler =
    get "scheduler" (function
      | "event" -> Some Event
      | "lockstep" -> Some Lockstep
      | _ -> None)
  in
  let* max_active = get "max_active" int_of_string_opt in
  let* max_queued = get "max_queued" int_of_string_opt in
  (* Pre-budget manifests have no entry: unlimited, as before. *)
  let* max_delta_entries =
    match List.assoc_opt "max_delta_entries" params with
    | None -> Ok max_int
    | Some v -> Durable.Manifest.parse "max_delta_entries" int_of_string_opt v
  in
  let* tenants =
    Result.bind (find "tenants") (fun v ->
        let entries =
          List.filter (fun s -> s <> "") (String.split_on_char ';' v)
        in
        (* Each name is a directory under the root, and one tenant:
           refuse a name that could leave the root, and a repeat. *)
        List.fold_left
          (fun acc entry ->
            let* acc = acc in
            let* name, start =
              match String.index_opt entry ':' with
              | None -> Ok (entry, 0)
              | Some i -> (
                  match
                    int_of_string_opt
                      (String.sub entry (i + 1) (String.length entry - i - 1))
                  with
                  | Some s when s >= 0 -> Ok (String.sub entry 0 i, s)
                  | _ -> Error (Printf.sprintf "bad tenant entry %S" entry))
            in
            if not (Durable.Fsutil.valid_tenant_name name) then
              Error (Printf.sprintf "bad tenant name in entry %S" entry)
            else if List.mem_assoc name acc then
              Error (Printf.sprintf "tenant %S listed twice" name)
            else Ok ((name, start) :: acc))
          (Ok []) entries
        |> Result.map List.rev)
  in
  Ok
    ( {
        admission = { Admission.max_active; max_queued; max_delta_entries };
        coordinate;
        discount_factor;
        shed_budget;
        sync;
        wal_mode;
        scheduler;
        hook = Durable.Hook.none;
      },
      tenants )

(* --- lifecycle ------------------------------------------------------------ *)

(* A service over [group] with nothing run yet; recovery passes the
   admitted tenants' [starts] and the co-flush [journal] it read. *)
let make ?pool ~root ~config ~group ?(starts = []) ?(journal = Hashtbl.create 1) () =
  {
    root;
    config;
    pool;
    group;
    active = [];
    waiting = [];
    completed = [];
    known = [];
    starts;
    rejected = 0;
    queued_peak = 0;
    rounds = 0;
    idle_rounds = 0;
    agg_charged = 0.0;
    agg_raw = 0.0;
    co_flushes = 0;
    journal;
  }

let create ?pool ~root config =
  if not (valid_discount config.discount_factor) then
    invalid_arg "Service: discount_factor must be finite and >= 0";
  if not (Option.fold ~none:true ~some:Float.is_finite config.shed_budget) then
    invalid_arg "Service: shed_budget must be finite";
  (* Refused before anything is written: a second run over a root would
     rewrite its manifest, then fail to register its tenants, and leave a
     root that no longer recovers. *)
  if
    Sys.file_exists (Filename.concat root "MANIFEST")
    || Sys.file_exists (Durable.Fsutil.group_dir root)
  then
    failwith
      (Printf.sprintf
         "Service.create: %s already holds a serve root — use recover (or \
          point at a fresh directory)"
         root);
  Durable.Fsutil.mkdirs root;
  let group =
    match
      Durable.Groupwal.open_ ~dir:(Durable.Fsutil.group_dir root)
        ~hook:config.hook ~from_lsn:0 ()
    with
    | Ok (group, _) -> group
    | Error e ->
        failwith (Printf.sprintf "Service.create: %s: group wal: %s" root e)
  in
  let t = make ?pool ~root ~config ~group () in
  save_manifest t;
  t

(* Phase C touches one tenant's private state each (its engine, log
   handle, controller, monitor), and so does a tenant's build, so
   fanning them out over the pool is bit-identical to the sequential
   order.  Each pooled task catches its own exception and the first one
   in array order is re-raised, so which failure surfaces does not
   depend on the domain count.  Phase A is as private but too light to
   pay for a dispatch (DESIGN.md §10), and phase B (coordination and
   accounting) is cross-tenant: both run in sequence. *)
let pmap t f arr =
  match t.pool with
  | Some p when Parallel.Pool.domains p > 1 && Array.length arr > 1 ->
      Parallel.Pool.map p
        (fun x -> try Ok (f x) with e -> Error (e, Printexc.get_raw_backtrace ()))
        arr
      |> Array.map (function
           | Ok v -> v
           | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
  | _ -> Array.map f arr

(* Build every tenant as one pool batch, then assemble them in order
   (attaching to the shared log is sequential). *)
let construct t builds =
  Array.to_list (pmap t Tenant.engine (Array.of_list builds))
  |> List.map (Tenant.assemble ~group:t.group)

(* Build a registered tenant into a slot.  Its manifest is written
   before the build starts. *)
let admit t cfg =
  let* b = Tenant.prepare cfg in
  let* () = Tenant.save_manifest ~root:t.root cfg in
  List.iter
    (fun tenant ->
      t.active <- t.active @ [ tenant ];
      t.starts <- t.starts @ [ (cfg.Tenant.name, t.rounds) ];
      save_manifest t)
    (construct t [ b ]);
  Ok ()

let delta_entries_in_use t =
  List.fold_left (fun acc tenant -> acc + Tenant.delta_entries tenant) 0
    t.active

let register t cfg =
  let decision =
    Admission.decide t.config.admission ~active:(List.length t.active)
      ~queued:(List.length t.waiting)
      ~delta_entries:(delta_entries_in_use t) ~known:t.known cfg.Tenant.name
  in
  match decision with
  | Admission.Admit ->
      Result.map
        (fun () ->
          t.known <- cfg.Tenant.name :: t.known;
          Admission.Admit)
        (admit t cfg)
  | Admission.Queue ->
      t.waiting <- t.waiting @ [ cfg ];
      t.known <- cfg.Tenant.name :: t.known;
      t.queued_peak <- max t.queued_peak (List.length t.waiting);
      Ok Admission.Queue
  | Admission.Reject _ as r ->
      t.rejected <- t.rejected + 1;
      Ok r

let rec promote_waiting t =
  match t.waiting with
  | cfg :: rest
    when List.length t.active < t.config.admission.Admission.max_active
         && delta_entries_in_use t
            < t.config.admission.Admission.max_delta_entries ->
      t.waiting <- rest;
      (match admit t cfg with
      | Ok () -> ()
      | Error _ ->
          t.rejected <- t.rejected + 1;
          Telemetry.incr "serve.promote_failures");
      promote_waiting t
  | _ -> ()

let sweep_completed t =
  let done_, still = List.partition Tenant.finished t.active in
  t.active <- still;
  List.iter
    (fun tenant ->
      let consistent = Tenant.finish tenant in
      t.completed <- (tenant, consistent) :: t.completed)
    done_;
  if done_ <> [] then promote_waiting t

(* A tenant's share of a co-flush, given its single-modification cost
   [setup] of the table: the discount factor times [setup], the shared
   part of the scan in calibrated units.  Without coordination, tenants
   flushing the same table in the same round is coincidence, not a
   shared scan: no share, so full price. *)
let share t setup =
  if t.config.coordinate then t.config.discount_factor *. setup else 0.0

let participant t tenant =
  {
    Multiview.Coflush.pending = Tenant.pending tenant;
    capacity = Tenant.capacity tenant;
    cost = Tenant.model_cost tenant;
    shared = (fun i -> share t (Tenant.model_cost tenant i 1));
  }

(* Fold one (round, table) co-flush group, priced by the co-flush rule,
   into the aggregates.  Only a group that earns a discount counts its
   joins. *)
let charge_group t group =
  let charged, raw = Multiview.Coflush.price group in
  t.agg_charged <- t.agg_charged +. charged;
  t.agg_raw <- t.agg_raw +. raw;
  if Multiview.Coflush.discount group > 0.0 then
    t.co_flushes <- t.co_flushes + (List.length group - 1)

(* A re-derived co-flush decision: appended live; on replay, checked
   against the round's record, which it consumes. *)
let journal_coflush t (record : Durable.Record.coflush) =
  match Hashtbl.find_opt t.journal record.round with
  | None -> Durable.Groupwal.commit_coflush t.group record
  | Some rows ->
      if rows = record.rows then Hashtbl.remove t.journal record.round

let run_round t =
  t.config.hook (Durable.Hook.Step_start t.rounds);
  let tenants = Array.of_list t.active in
  let k = Array.length tenants in
  (* Ready mask: the event scheduler only dispatches tenants whose step
     does real work (arrivals due per their next-arrival clock, refresh
     budget already exceeded, or the final horizon flush).  Lockstep
     mode is the all-true mask — both modes then share one code path,
     which is what makes them bit-identical by construction. *)
  let ready =
    match t.config.scheduler with
    | Lockstep -> Array.make k true
    | Event -> Array.map Tenant.ready tenants
  in
  if not (Array.exists Fun.id ready) then begin
    (* Nobody can propose (readiness subsumes [propose]'s fullness gate)
       and nobody flushes, so phases B and C degenerate: step every
       tenant inline — no pool dispatch, no WAL bytes, no window work. *)
    Array.iter Tenant.idle_step tenants;
    t.idle_rounds <- t.idle_rounds + 1;
    Telemetry.incr "serve.idle_rounds"
  end
  else begin
    (* Phase A: ingest + observe + mandatory proposal, ready tenants
       only.  A non-ready tenant's proposal would be [None] (zero
       arrivals leave its controller exactly as the readiness check saw
       it), so skipping it changes nothing downstream. *)
    let batches =
      Array.init k (fun v ->
          let proposal =
            if ready.(v) then begin
              Tenant.begin_step tenants.(v);
              Tenant.mandatory tenants.(v)
            end
            else None
          in
          match proposal with
          | Some action -> Array.copy action
          | None -> Array.make Tenant.n_tables 0)
    in
    (* Phase B: coordination and accounting by the co-flush rule
       ({!Multiview.Coflush}).  Non-ready tenants are invite-eligible:
       their pending/capacity state is what a lockstep [begin_step]
       would have left.  A round with a co-flush group journals its
       decision ahead of every phase-C commit (log-prefix order makes it
       durable with the round's first Applied record); a replayed round
       re-derives it and checks it against that record. *)
    let parts = Array.map (participant t) tenants in
    let batches =
      if not t.config.coordinate then batches
      else
        let round =
          Multiview.Coflush.invite ?budget:t.config.shed_budget parts batches
        in
        List.iter (fun v -> Tenant.shed tenants.(v)) round.shed;
        round.rows
    in
    let groups = Multiview.Coflush.groups parts batches in
    if t.config.coordinate && Multiview.Coflush.journalled groups then
      journal_coflush t
        {
          Durable.Record.round = t.rounds;
          rows =
            List.filter_map
              (fun v ->
                if Array.exists (fun b -> b > 0) batches.(v) then
                  Some (Tenant.name tenants.(v), batches.(v))
                else None)
              (List.init k Fun.id);
        };
    List.iter (charge_group t) groups;
    (* Phase C: execute + close, over the tenants with work (plus every
       ready tenant, flushing or not — matching lockstep exactly).  An
       invited non-ready tenant ingests its (empty) step here first;
       the rest idle-step inline, off the pool. *)
    let in_c = Array.init k (fun v -> ready.(v) || Array.exists (fun b -> b > 0) batches.(v)) in
    for v = 0 to k - 1 do
      if not ready.(v) then
        if in_c.(v) then Tenant.begin_step tenants.(v)
        else Tenant.idle_step tenants.(v)
    done;
    ignore
      (pmap t
         (fun v ->
           Tenant.execute tenants.(v) batches.(v);
           Tenant.close_step tenants.(v))
         (Array.of_list (List.filter (fun v -> in_c.(v)) (List.init k Fun.id))))
  end;
  (* A replayed round has consumed its co-flush record, if the log holds
     one; a record left is a decision the re-run round did not make. *)
  if Hashtbl.mem t.journal t.rounds then
    raise
      (Durable.Journal.Diverged
         (Printf.sprintf
            "%s: co-flush journal of round %d: the re-run round decides \
             otherwise"
            t.root t.rounds));
  (* The round's single durability point: close the shared group-commit
     window per the service cadence ([Always]: every round; [Interval n]:
     every n-th; [Never]: only rotation and shutdown).  One fsync covers
     every tenant's commits of the round; a no-op when the window is
     empty, so idle rounds stay free.  Tenants with forcing policies
     already closed the window at their own commits inside the round. *)
  let due =
    match t.config.sync with
    | Durable.Wal.Always -> true
    | Durable.Wal.Interval n -> (t.rounds + 1) mod n = 0
    | Durable.Wal.Never -> false
  in
  if due then ignore (Durable.Groupwal.close_window t.group);
  if Telemetry.enabled () then begin
    Telemetry.set_gauge "serve.tenants_active"
      (float_of_int (List.length t.active));
    Telemetry.set_gauge "serve.tenants_queued"
      (float_of_int (List.length t.waiting));
    let closes = Durable.Groupwal.window_closes t.group in
    Telemetry.set_gauge "serve.window_closes" (float_of_int closes);
    Telemetry.set_gauge "serve.fsyncs_per_round"
      (float_of_int closes /. float_of_int (t.rounds + 1))
  end;
  t.rounds <- t.rounds + 1

let outcome_of t =
  let tenant_outcomes =
    List.rev_map
      (fun (tenant, consistent) ->
        let steps = Tenant.config tenant |> fun c -> c.Tenant.horizon + 1 in
        {
          tenant = Tenant.name tenant;
          steps;
          metered_cost = Tenant.metered_cost tenant;
          charged_cost = Tenant.charged_cost tenant;
          violations = Tenant.violations tenant;
          violation_rate =
            float_of_int (Tenant.violations tenant) /. float_of_int steps;
          sheds = Tenant.sheds tenant;
          reanchors = Tenant.reanchors tenant;
          consistent;
          replayed = Tenant.replayed tenant;
        })
      t.completed
  in
  {
    tenants = tenant_outcomes;
    rounds = t.rounds;
    aggregate_charged = t.agg_charged;
    aggregate_undiscounted = t.agg_raw;
    co_flushes = t.co_flushes;
    worst_violation_rate =
      List.fold_left
        (fun acc o -> Float.max acc o.violation_rate)
        0.0 tenant_outcomes;
    rejected = t.rejected;
    queued_peak = t.queued_peak;
  }

let run t =
  try
    while t.active <> [] || t.waiting <> [] do
      if t.active = [] then promote_waiting t;
      run_round t;
      sweep_completed t
    done;
    Durable.Groupwal.close t.group;
    outcome_of t
  with Durable.Hook.Crash _ as crash ->
    (* Simulated process death: drop every tenant's unflushed tail — and
       the shared log's open window — exactly as a real crash would,
       then let the exception out. *)
    List.iter Tenant.abandon t.active;
    Durable.Groupwal.abandon t.group;
    raise crash

(* --- recovery ------------------------------------------------------------- *)

let recover ?pool ~root () =
  let* manifest =
    match Durable.Manifest.load ~dir:root with
    | Ok (Some m) -> Ok m
    | Ok None -> Error (Printf.sprintf "%s: no serve manifest" root)
    | Error e -> Error (Printf.sprintf "%s: manifest: %s" root e)
  in
  let params = manifest.Durable.Manifest.params in
  let* config, starts = config_of_params params in
  let names = List.map fst starts in
  (* Open the shared log once: the scan that repairs its tail also
     demuxes it into per-tenant record slices and the service's co-flush
     journal. *)
  let* group, contents =
    Result.map_error
      (Printf.sprintf "%s: group wal: %s" root)
      (Durable.Groupwal.open_ ~dir:(Durable.Fsutil.group_dir root)
         ~hook:config.hook ~from_lsn:0 ())
  in
  let fail e =
    Durable.Groupwal.abandon group;
    Error e
  in
  let journal = Hashtbl.create 16 in
  let check_row round (name, row) =
    let bad fmt =
      Printf.ksprintf
        (fun e ->
          Error
            (Printf.sprintf "%s: co-flush journal of round %d: %s" root
               round e))
        fmt
    in
    if not (List.mem name names) then bad "%S is not an admitted tenant" name
    else if Array.length row <> Tenant.n_tables then
      bad "tenant %S has %d batch counts, not %d" name (Array.length row)
        Tenant.n_tables
    else Ok ()
  in
  let* () =
    match
      List.fold_left
        (fun acc { Durable.Record.round; rows } ->
          let* () = acc in
          let* () =
            List.fold_left
              (fun acc row -> Result.bind acc (fun () -> check_row round row))
              (Ok ()) rows
          in
          (* Recovery by an older build re-ran a crashed round and
             journalled it again; the decision is deterministic, and the
             latest record wins. *)
          Hashtbl.replace journal round rows;
          Ok ())
        (Ok ()) contents.Durable.Groupwal.coflushes
    with
    | Ok () -> Ok ()
    | Error e -> fail e
  in
  (* Load and validate every tenant manifest, in registration order. *)
  let load name =
    let dir = Filename.concat (Filename.concat root "tenants") name in
    let* tenant_manifest =
      match Durable.Manifest.load ~dir with
      | Ok (Some m) -> Ok m
      | Ok None -> Error (Printf.sprintf "tenant %S: no manifest" name)
      | Error e -> Error (Printf.sprintf "tenant %S: manifest: %s" name e)
    in
    let* cfg = Tenant.config_of_params tenant_manifest.Durable.Manifest.params in
    let* () =
      if cfg.Tenant.name = name then Ok ()
      else
        Error
          (Printf.sprintf "tenant %S: manifest names tenant %S" name
             cfg.Tenant.name)
    in
    Tenant.prepare cfg
  in
  let rec load_all = function
    | [] -> Ok []
    | name :: rest ->
        let* b = load name in
        Result.map (List.cons b) (load_all rest)
  in
  match load_all names with
  | Error e -> fail e
  | Ok builds -> (
      let t = make ?pool ~root ~config ~group ~starts ~journal () in
      t.known <- List.rev names;
      (* Every tenant is built in one pool batch and holds its slice of
         the log.  Then the live rounds re-run, each tenant activated at
         the top of its admission round as promotion activated it, until
         every tail and co-flush record is used up and every tenant has
         started; the round where the tails end is completed live. *)
      let tenants = construct t builds in
      List.iter
        (fun tenant ->
          Tenant.hold tenant
            (Option.value ~default:[]
               (List.assoc_opt (Tenant.name tenant)
                  contents.Durable.Groupwal.tenants)))
        tenants;
      let rec replay waiting =
        let due, waiting =
          List.partition (fun (start, _) -> start <= t.rounds) waiting
        in
        t.active <- t.active @ List.map snd due;
        if
          waiting <> []
          || List.exists Tenant.holding t.active
          || (t.active <> [] && Hashtbl.length t.journal > 0)
        then begin
          run_round t;
          sweep_completed t;
          replay waiting
        end
      in
      match replay (List.combine (List.map snd starts) tenants) with
      | exception Durable.Journal.Diverged e -> fail e
      | () -> (
          (* A record left lies past every tenant's last round. *)
          match Hashtbl.fold (fun r _ acc -> min r acc) t.journal max_int with
          | round when round < max_int ->
              fail
                (Printf.sprintf
                   "%s: co-flush journal of round %d: past the last round" root
                   round)
          | _ -> Ok t))

let active t = t.active

let total_replayed t =
  List.fold_left (fun acc tenant -> acc + Tenant.replayed tenant) 0 t.active
  + List.fold_left
      (fun acc (tenant, _) -> acc + Tenant.replayed tenant)
      0 t.completed

let window_closes t = Durable.Groupwal.window_closes t.group
let forced_closes t = Durable.Groupwal.forced_closes t.group

let idle_rounds t = t.idle_rounds
let rounds t = t.rounds
