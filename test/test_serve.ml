(* Tests for the multi-tenant serve scheduler (lib/serve): admission
   decisions, the bit-identical guarantee for pool-parallel rounds
   (phases A and C touch per-tenant state only, so fanning them over 4
   domains must reproduce the sequential run exactly), crash + recovery
   equivalence against an uninterrupted twin, typed refusal of damaged
   or retired durable state, the backpressure contract — shedding
   refuses optional co-flush work but never drops a committed arrival
   from any tenant's log — the shared scheduler's claim (no dearer than
   independent per-tenant ONLINE, worst SLO kept), and the group-commit
   window's one-fsync-per-busy-round accounting. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

let rec rmtree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun entry -> rmtree (Filename.concat path entry))
        (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let scratch_counter = ref 0

let scratch () =
  incr scratch_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "abivm-serve-%d-%d" (Unix.getpid ()) !scratch_counter)
  in
  rmtree dir;
  dir

(* Small but busy: limit_factor 1.2 keeps capacity tight enough that
   tenants flush throughout the run, exercising coordination, discounts
   and mid-run WAL [Applied] records. *)
let tenant_cfg ?(rows = 50) ?(horizon = 15) ?(limit_factor = 1.2)
    ?(order = Ivm.Viewdef.First_order) ~seed name =
  {
    Serve.Tenant.name;
    seed;
    rows;
    horizon;
    limit_factor;
    streams = [ "ss"; "ss" ];
    order;
    sync = None;
  }

let fleet ?rows ?horizon ?limit_factor n =
  List.init n (fun i ->
      tenant_cfg ?rows ?horizon ?limit_factor ~seed:(42 + (10 * i))
        (Printf.sprintf "t%d" i))

let service_cfg ?(coordinate = true) ?(discount_factor = 0.8) ?shed_budget
    ?(hook = Durable.Hook.none) ?(admission = Serve.Admission.default)
    ?(sync = Durable.Wal.Always) ?(scheduler = Serve.Service.Event) () =
  {
    Serve.Service.admission;
    coordinate;
    discount_factor;
    shed_budget;
    sync;
    wal_mode = Serve.Service.Grouped;
    scheduler;
    hook;
  }

let registered ?pool ~root config cfgs =
  let svc = Serve.Service.create ?pool ~root config in
  List.iter
    (fun cfg ->
      match Serve.Service.register svc cfg with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "register %s: %s" cfg.Serve.Tenant.name e)
    cfgs;
  svc

let run_service ?pool ~root config cfgs =
  Serve.Service.run (registered ?pool ~root config cfgs)

let bits = Int64.bits_of_float

let check_tenant_outcomes_equal what (a : Serve.Service.tenant_outcome)
    (b : Serve.Service.tenant_outcome) =
  let ckb label av bv =
    Alcotest.check Alcotest.bool
      (Printf.sprintf "%s: %s %s" what a.Serve.Service.tenant label)
      true (av = bv)
  in
  ckb "name" a.Serve.Service.tenant b.Serve.Service.tenant;
  ckb "steps" a.steps b.steps;
  ckb "metered bits" (bits a.metered_cost) (bits b.metered_cost);
  ckb "charged bits" (bits a.charged_cost) (bits b.charged_cost);
  ckb "violations" a.violations b.violations;
  ckb "sheds" a.sheds b.sheds;
  ckb "reanchors" a.reanchors b.reanchors;
  ckb "consistent" a.consistent b.consistent

let check_outcomes_equal what (a : Serve.Service.outcome)
    (b : Serve.Service.outcome) =
  checki (what ^ ": tenant count")
    (List.length a.Serve.Service.tenants)
    (List.length b.Serve.Service.tenants);
  List.iter2 (check_tenant_outcomes_equal what) a.Serve.Service.tenants
    b.Serve.Service.tenants;
  checki (what ^ ": rounds") a.rounds b.rounds;
  checkb (what ^ ": aggregate charged bits") true
    (bits a.aggregate_charged = bits b.aggregate_charged);
  checkb (what ^ ": aggregate undiscounted bits") true
    (bits a.aggregate_undiscounted = bits b.aggregate_undiscounted);
  checki (what ^ ": co-flushes") a.co_flushes b.co_flushes

let all_consistent (o : Serve.Service.outcome) =
  List.for_all
    (fun t -> t.Serve.Service.consistent)
    o.Serve.Service.tenants

let kill_at round point =
  match point with
  | Durable.Hook.Step_start r when r = round ->
      raise (Durable.Hook.Crash (Printf.sprintf "round %d" round))
  | _ -> ()

(* --- admission ------------------------------------------------------------ *)

let test_admission_decisions () =
  let cfg =
    {
      Serve.Admission.max_active = 2;
      max_queued = 1;
      max_delta_entries = max_int;
    }
  in
  let decide = Serve.Admission.decide cfg ~delta_entries:0 in
  (match decide ~active:0 ~queued:0 ~known:[] "t0" with
  | Serve.Admission.Admit -> ()
  | d -> Alcotest.failf "expected admit, got %s" (Serve.Admission.describe d));
  (match decide ~active:2 ~queued:0 ~known:[ "t0"; "t1" ] "t2" with
  | Serve.Admission.Queue -> ()
  | d -> Alcotest.failf "expected queue, got %s" (Serve.Admission.describe d));
  (match decide ~active:2 ~queued:1 ~known:[ "t0"; "t1"; "t2" ] "t3" with
  | Serve.Admission.Reject _ -> ()
  | d ->
      Alcotest.failf "expected reject (queue full), got %s"
        (Serve.Admission.describe d));
  (match decide ~active:1 ~queued:0 ~known:[ "t0" ] "t0" with
  | Serve.Admission.Reject _ -> ()
  | d ->
      Alcotest.failf "expected reject (duplicate), got %s"
        (Serve.Admission.describe d));
  (match decide ~active:0 ~queued:0 ~known:[] "../evil" with
  | Serve.Admission.Reject _ -> ()
  | d ->
      Alcotest.failf "expected reject (bad name), got %s"
        (Serve.Admission.describe d))

(* With the delta-entry budget in play the decision depends on the active
   tenants' current materialization charge, not just their count. *)
let test_admission_memory_budget () =
  let cfg =
    {
      Serve.Admission.max_active = 4;
      max_queued = 1;
      max_delta_entries = 100;
    }
  in
  (match
     Serve.Admission.decide cfg ~active:1 ~queued:0 ~delta_entries:99
       ~known:[ "t0" ] "t1"
   with
  | Serve.Admission.Admit -> ()
  | d ->
      Alcotest.failf "expected admit under budget, got %s"
        (Serve.Admission.describe d));
  (match
     Serve.Admission.decide cfg ~active:1 ~queued:0 ~delta_entries:100
       ~known:[ "t0" ] "t1"
   with
  | Serve.Admission.Queue -> ()
  | d ->
      Alcotest.failf "expected queue at budget, got %s"
        (Serve.Admission.describe d));
  (match
     Serve.Admission.decide cfg ~active:1 ~queued:1 ~delta_entries:100
       ~known:[ "t0"; "t1" ] "t2"
   with
  | Serve.Admission.Reject _ -> ()
  | d ->
      Alcotest.failf "expected reject (budget + queue full), got %s"
        (Serve.Admission.describe d))

(* --- pool-parallel vs sequential ------------------------------------------ *)

let test_parallel_bit_identical () =
  let cfgs = fleet 4 in
  let seq_root = scratch () and par_root = scratch () in
  Fun.protect
    ~finally:(fun () ->
      rmtree seq_root;
      rmtree par_root)
    (fun () ->
      let seq = run_service ~root:seq_root (service_cfg ()) cfgs in
      let par =
        Parallel.Pool.with_pool ~domains:4 (fun pool ->
            run_service ~pool ~root:par_root (service_cfg ()) cfgs)
      in
      checkb "sequential run consistent" true (all_consistent seq);
      check_outcomes_equal "par-vs-seq" seq par)

(* The tenant's budget and cost model as its construction used to make
   them, and as an outside caller can: a second database generated and
   materialized from scratch, calibrated by the public calls.  Every
   tenant must price its batches exactly like this oracle. *)
let oracle_model (cfg : Serve.Tenant.config) =
  let db =
    Tpcr.Synth.generate ~seed:cfg.seed ~r_rows:cfg.rows ~s_rows:cfg.rows ()
  in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter ~order:cfg.order
      (Tpcr.Synth.join_view db)
  in
  Relation.Meter.reset db.Tpcr.Synth.meter;
  let feeds = Tpcr.Synth.insert_feeds ~seed:(cfg.seed + 1) db in
  let curve table =
    Bridge.Calibrate.tabulated ~name:"oracle"
      (Bridge.Calibrate.measure_curve m feeds ~table ~sizes:[ 1; 5; 10; 20; 50 ])
  in
  (* the tenant's order: S, then R *)
  let ds = curve 1 in
  let costs = [| curve 0; ds |] in
  let limit =
    cfg.limit_factor
    *. Float.max (Cost.Func.eval costs.(0) 1) (Cost.Func.eval costs.(1) 1)
  in
  bits limit
  :: List.concat_map
       (fun i ->
         List.map (fun k -> bits (Cost.Func.eval costs.(i) k)) [ 1; 5; 10; 20; 50 ])
       [ 0; 1 ]

let tenant_model tenant =
  bits (Serve.Tenant.limit tenant)
  :: List.concat_map
       (fun i ->
         List.map
           (fun k -> bits (Serve.Tenant.model_cost tenant i k))
           [ 1; 5; 10; 20; 50 ])
       [ 0; 1 ]

(* Pooled registration builds tenants on two domains.  Every tenant of a
   mixed first- and higher-order fleet must come out with the budget and
   cost model of a from-scratch calibration twin, bit for bit, and the
   fleet must finish the same as when registered sequentially. *)
let test_pooled_registration_same_tenants () =
  let cfgs =
    List.mapi
      (fun i cfg ->
        if i mod 2 = 1 then
          { cfg with Serve.Tenant.order = Ivm.Viewdef.Higher_order }
        else cfg)
      (fleet 4)
  in
  let register ?pool () =
    let root = scratch () in
    Fun.protect
      ~finally:(fun () -> rmtree root)
      (fun () ->
        let svc = Serve.Service.create ?pool ~root (service_cfg ()) in
        List.iter
          (fun cfg ->
            match Serve.Service.register svc cfg with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "register %s: %s" cfg.Serve.Tenant.name e)
          cfgs;
        let models = List.map tenant_model (Serve.Service.active svc) in
        (models, Serve.Service.run svc))
  in
  let seq_models, seq = register () in
  let par_models, par =
    Parallel.Pool.with_pool ~domains:2 (fun pool -> register ~pool ())
  in
  checki "every tenant active" 4 (List.length seq_models);
  checkb "budgets and cost models equal the from-scratch oracle's bits" true
    (seq_models = List.map oracle_model cfgs);
  checkb "budgets and cost models have equal bits" true
    (seq_models = par_models);
  checkb "sequential run consistent" true (all_consistent seq);
  check_outcomes_equal "pooled-vs-sequential registration" seq par

(* Each tenant is generated and materialized once: its cost model comes
   from a copy of the live engine.  Counted by the collector's
   ["maintainer.materialize"] spans, at registration and at recovery. *)
let materializations f =
  let sink, spans = Telemetry.Sink.memory () in
  Telemetry.enable ~sinks:[ sink ] ();
  let count () =
    List.length
      (List.filter
         (fun (s : Telemetry.Span.t) -> s.name = "maintainer.materialize")
         (spans ()))
  in
  Fun.protect ~finally:Telemetry.disable (fun () ->
      let v = f () in
      (v, count ()))

let test_one_materialization_per_tenant () =
  let root = scratch () in
  Fun.protect
    ~finally:(fun () -> rmtree root)
    (fun () ->
      let svc = Serve.Service.create ~root (service_cfg ()) in
      let (), n =
        materializations (fun () ->
            List.iter
              (fun cfg ->
                match Serve.Service.register svc cfg with
                | Ok Serve.Admission.Admit -> ()
                | Ok _ | Error _ ->
                    Alcotest.failf "register %s" cfg.Serve.Tenant.name)
              [
                tenant_cfg ~seed:3 "fo";
                tenant_cfg ~seed:4 ~order:Ivm.Viewdef.Higher_order "ho";
              ])
      in
      checki "registering an FO and an HO tenant materializes twice" 2 n;
      checkb "registered run consistent" true
        (all_consistent (Serve.Service.run svc)));
  let cfgs = fleet 3 in
  let root = scratch () in
  Fun.protect
    ~finally:(fun () -> rmtree root)
    (fun () ->
      (match run_service ~root (service_cfg ~hook:(kill_at 8) ()) cfgs with
      | _ -> Alcotest.fail "the hook never fired"
      | exception Durable.Hook.Crash _ -> ());
      let recovered, n =
        materializations (fun () -> Serve.Service.recover ~root ())
      in
      checki "recovering three tenants materializes three times" 3 n;
      match recovered with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok svc ->
          (* replay may have re-anchored the cost models; the budget
             stays as calibrated *)
          checkb "recovered budgets equal the oracle's" true
            (List.map
               (fun t -> bits (Serve.Tenant.limit t))
               (Serve.Service.active svc)
            = List.map (fun cfg -> List.hd (oracle_model cfg)) cfgs);
          checkb "recovered run consistent" true
            (all_consistent (Serve.Service.run svc)))

(* --- crash + recovery ----------------------------------------------------- *)

let crash_recover_case ?admission ~kill_round () =
  let cfgs = fleet 4 in
  let base_root = scratch () in
  Fun.protect
    ~finally:(fun () -> rmtree base_root)
    (fun () ->
      let twin = registered ~root:base_root (service_cfg ?admission ()) cfgs in
      let baseline = Serve.Service.run twin in
      checkb "baseline consistent" true (all_consistent baseline);
      (* Same fleet, killed mid-run, then recovered sequentially and with
         a 2-domain pool: both must finish bit-equal to the baseline. *)
      List.iter
        (fun domains ->
          let crash_root = scratch () in
          Fun.protect
            ~finally:(fun () -> rmtree crash_root)
            (fun () ->
              let crashed =
                try
                  ignore
                    (run_service ~root:crash_root
                       (service_cfg ?admission ~hook:(kill_at kill_round) ())
                       cfgs);
                  false
                with Durable.Hook.Crash _ -> true
              in
              checkb "hook killed the run" true crashed;
              (match Durable.Manifest.load ~dir:crash_root with
              | Ok (Some m) -> (
                  match
                    Serve.Service.config_of_params m.Durable.Manifest.params
                  with
                  | Ok (_, starts) ->
                      checki "every tenant admitted before the kill"
                        (List.length cfgs) (List.length starts)
                  | Error e -> Alcotest.failf "crashed manifest: %s" e)
              | _ -> Alcotest.fail "crashed root: no service manifest");
              let recover pool =
                match Serve.Service.recover ?pool ~root:crash_root () with
                | Error e -> Alcotest.failf "recover (domains=%d): %s" domains e
                | Ok svc ->
                    checkb "something was replayed" true
                      (Serve.Service.total_replayed svc > 0);
                    let recovered = Serve.Service.run svc in
                    let what =
                      Printf.sprintf "recovered(domains=%d)-vs-baseline"
                        domains
                    in
                    check_outcomes_equal what baseline recovered;
                    checki (what ^ ": rounds") (Serve.Service.rounds twin)
                      (Serve.Service.rounds svc);
                    checki (what ^ ": idle rounds")
                      (Serve.Service.idle_rounds twin)
                      (Serve.Service.idle_rounds svc)
              in
              if domains = 1 then recover None
              else
                Parallel.Pool.with_pool ~domains (fun pool ->
                    recover (Some pool))))
        [ 1; 2 ])

(* Early kill: flushes are still ahead; late kill: the WALs already hold
   [Applied] records whose replay must re-meter bit-exactly. *)
let test_crash_recover_early () = crash_recover_case ~kill_round:4 ()
let test_crash_recover_late () = crash_recover_case ~kill_round:12 ()

(* Two of four tenants queued behind [max_active = 2] and promoted when
   the first two finish (round 16), killed four rounds later: recovery
   must start each promoted tenant at its admission round. *)
let test_crash_recover_promoted () =
  crash_recover_case
    ~admission:
      {
        Serve.Admission.max_active = 2;
        max_queued = 4;
        max_delta_entries = max_int;
      }
    ~kill_round:20 ()

let test_recovered_wal_replays_full_history () =
  (* A second recovery of the *finished* directory replays everything
     and yields the same per-tenant accounting once more — the WAL plus
     manifest really is the whole state. *)
  let cfgs = fleet 2 in
  let root = scratch () in
  Fun.protect
    ~finally:(fun () -> rmtree root)
    (fun () ->
      let first = run_service ~root (service_cfg ()) cfgs in
      match Serve.Service.recover ~root () with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok svc ->
          let again = Serve.Service.run svc in
          check_outcomes_equal "rerun-vs-first" first again)

(* --- damaged or retired durable state is a typed error ------------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path content =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc content)

let rec copy_tree src dst =
  if Sys.is_directory src then begin
    Sys.mkdir dst 0o755;
    Array.iter
      (fun e -> copy_tree (Filename.concat src e) (Filename.concat dst e))
      (Sys.readdir src)
  end
  else write_file dst (read_file src)

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* A finished root whose log holds one more arrival of t0, stamped past
   its horizon: replay matches every real record, and t0 finishes still
   holding the extra one. *)
let test_record_past_horizon_refused () =
  let root = scratch () in
  Fun.protect
    ~finally:(fun () -> rmtree root)
    (fun () ->
      ignore (run_service ~root (service_cfg ()) (fleet 2));
      let seg =
        Filename.concat (Durable.Fsutil.group_dir root) "wal-000000000000.seg"
      in
      let content = read_file seg in
      let forged =
        List.find_map
          (fun l ->
            match Durable.Record.of_tagged_line l with
            | Ok
                (Durable.Record.Tenant
                   (("t0" as name), Durable.Record.Arrival a)) ->
                Some
                  (Durable.Record.to_tagged_line
                     (Durable.Record.Tenant
                        (name, Durable.Record.Arrival { a with time = 16 })))
            | _ -> None)
          (String.split_on_char '\n' content)
      in
      (match forged with
      | Some line -> write_file seg (content ^ line ^ "\n")
      | None -> Alcotest.fail "t0 has no arrival record");
      (* Nothing is appended before the refusal, so one root serves both
         domain counts. *)
      List.iter
        (fun domains ->
          let recover pool =
            match Serve.Service.recover ?pool ~root () with
            | Ok _ -> Alcotest.fail "a record past the horizon recovered"
            | Error e ->
                Alcotest.check Alcotest.string
                  (Printf.sprintf "error (domains=%d)" domains)
                  "t0: WAL extends past horizon 15" e
          in
          if domains = 1 then recover None
          else Parallel.Pool.with_pool ~domains (fun pool -> recover (Some pool)))
        [ 1; 2 ])

(* [create] refuses a root that holds a service manifest or a shared log
   before writing anything: a finished root keeps its manifest byte for
   byte and still recovers to the first run's outcome, and a root with
   only a [groupwal/] gains no manifest. *)
let test_create_refuses_existing_root () =
  let refused root =
    match Serve.Service.create ~root (service_cfg ()) with
    | _ -> Alcotest.failf "create over %s was not refused" root
    | exception Failure msg ->
        checkb "error names the root" true (contains ~sub:root msg)
  in
  let cfgs = fleet 2 in
  let root = scratch () and bare = scratch () in
  Fun.protect
    ~finally:(fun () ->
      rmtree root;
      rmtree bare)
    (fun () ->
      let first = run_service ~root (service_cfg ()) cfgs in
      let manifest = read_file (Filename.concat root "MANIFEST") in
      refused root;
      checkb "manifest untouched" true
        (read_file (Filename.concat root "MANIFEST") = manifest);
      (match Serve.Service.recover ~root () with
      | Error e -> Alcotest.failf "recover: %s" e
      | Ok svc ->
          check_outcomes_equal "recovered-vs-first" first
            (Serve.Service.run svc));
      Durable.Fsutil.mkdirs (Durable.Fsutil.group_dir bare);
      refused bare;
      checkb "no manifest written" false
        (Sys.file_exists (Filename.concat bare "MANIFEST")))

(* [s] with every occurrence of [sub] replaced by [by]. *)
let replace_all ~sub ~by s =
  let n = String.length sub and b = Buffer.create (String.length s) in
  let rec go i =
    if i < String.length s then
      if i + n <= String.length s && String.sub s i n = sub then begin
        Buffer.add_string b by;
        go (i + n)
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

let segment_path gdir lsn =
  Filename.concat gdir (Printf.sprintf "wal-%012d.seg" lsn)

(* A root crashed at round 12, its shared log split after the first
   co-flush record into two segments — as a rotation would have left it —
   so damage to that record lies before the log's tail: corruption, not a
   torn final write.  Returns the root and the record's line. *)
let split_crashed_root () =
  let root = scratch () in
  (try
     ignore (run_service ~root (service_cfg ~hook:(kill_at 12) ()) (fleet 4));
     Alcotest.fail "hook did not kill the run"
   with Durable.Hook.Crash _ -> ());
  let gdir = Filename.concat root "groupwal" in
  let lines =
    String.split_on_char '\n' (read_file (segment_path gdir 0))
    |> List.filter (fun l -> l <> "")
  in
  let rec split i = function
    | l :: _ :: _ when contains ~sub:"\t@service\t" l -> (i + 1, l)
    | _ :: rest -> split (i + 1) rest
    | [] -> Alcotest.fail "no co-flush record before the log's last line"
  in
  let n, journal_line = split 0 lines in
  let unlines ls = String.concat "" (List.map (fun l -> l ^ "\n") ls) in
  let lines_from lo hi = List.filteri (fun i _ -> lo <= i && i < hi) lines in
  write_file (segment_path gdir 0) (unlines (lines_from 0 n));
  write_file (segment_path gdir n) (unlines (lines_from n max_int));
  (root, journal_line)

(* Every case damages a fresh copy of the split root and must come back
   from [Service.recover] as an [Error] naming its cause — never as an
   exception, never as a recovered service. *)
let test_recover_refuses_damage () =
  let pristine, line = split_crashed_root () in
  let on_copy f =
    let root = scratch () in
    copy_tree pristine root;
    Fun.protect ~finally:(fun () -> rmtree root) (fun () -> f root)
  in
  Fun.protect
    ~finally:(fun () -> rmtree pristine)
    (fun () ->
      on_copy (fun root ->
          match Serve.Service.recover ~root () with
          | Error e -> Alcotest.failf "split log: %s" e
          | Ok svc ->
              checkb "split log recovers and finishes" true
                (all_consistent (Serve.Service.run svc)));
      let coflush =
        match Durable.Record.of_tagged_line line with
        | Ok (Durable.Record.Coflush c) -> c
        | _ -> Alcotest.failf "not a co-flush record: %S" line
      in
      (* Each case runs twice, on fresh copies: sequentially and with a
         2-domain pool, which must refuse with the identical error (the
         copy's root path read as ROOT). *)
      let refusal ~what damage =
        let recover pool =
          on_copy (fun root ->
              damage root;
              match Serve.Service.recover ?pool ~root () with
              | Ok _ -> Alcotest.failf "%s: recovered" what
              | Error e -> replace_all ~sub:root ~by:"ROOT" e
              | exception exn ->
                  Alcotest.failf "%s: raised %s" what (Printexc.to_string exn))
        in
        let e = recover None in
        Alcotest.check Alcotest.string
          (what ^ ": pooled recovery, same error")
          e
          (Parallel.Pool.with_pool ~domains:2 (fun pool -> recover (Some pool)));
        e
      in
      let refused ~what ~cause damage =
        let e = refusal ~what damage in
        checkb
          (Printf.sprintf "%s: error %S names %S" what e cause)
          true (contains ~sub:cause e)
      in
      let journal_line_becomes what ~cause replacement =
        refused ~what ~cause (fun root ->
            let seg = segment_path (Filename.concat root "groupwal") 0 in
            let content = read_file seg in
            let at = String.length content - String.length line - 1 in
            checkb (what ^ ": record closes the first segment") true
              (String.sub content at (String.length line) = line);
            write_file seg (String.sub content 0 at ^ replacement ^ "\n"))
      in
      let flipped =
        String.mapi
          (fun i c ->
            if i = String.length line - 1 then Char.chr (Char.code c lxor 1)
            else c)
          line
      in
      let with_rows rows =
        Durable.Record.to_tagged_line
          (Durable.Record.Coflush { coflush with Durable.Record.rows })
      in
      journal_line_becomes "truncated line" ~cause:"corrupt segment"
        (String.sub line 0 (String.length line / 2));
      journal_line_becomes "flipped byte" ~cause:"CRC mismatch" flipped;
      (* "@service" becomes a valid tenant name of the same length. *)
      let tag = String.index line '\t' + 1 in
      journal_line_becomes "re-homed tag" ~cause:"CRC mismatch"
        (String.sub line 0 tag ^ "service0"
        ^ String.sub line (tag + 8) (String.length line - tag - 8));
      journal_line_becomes "row width" ~cause:"batch counts"
        (with_rows
           (List.map (fun (n, row) -> (n, Array.append row [| 0 |]))
              coflush.Durable.Record.rows));
      journal_line_becomes "unknown tenant" ~cause:"not an admitted tenant"
        (with_rows (("ghost", [| 1; 0 |]) :: coflush.Durable.Record.rows));
      (* A CRC-valid decision with one admitted tenant's count one up, in
         a round the tail replays in full: the re-run round re-derives
         the decision, and the record is only a check on it. *)
      let forged_rows =
        match coflush.Durable.Record.rows with
        | (name, row) :: rest ->
            (name, Array.map (fun k -> if k > 0 then k + 1 else k) row) :: rest
        | [] -> Alcotest.fail "co-flush record without rows"
      in
      journal_line_becomes "forged decision"
        ~cause:
          (Printf.sprintf
             "co-flush journal of round %d: the re-run round decides otherwise"
             coflush.Durable.Record.round)
        (with_rows forged_rows);
      journal_line_becomes "decision past the last round"
        ~cause:"co-flush journal of round 1000: past the last round"
        (Durable.Record.to_tagged_line
           (Durable.Record.Coflush { coflush with Durable.Record.round = 1000 }));
      (* The first tenant [Applied] record, re-encoded with a forged
         count or cost: the CRC stays valid, so only replay can refuse
         it, naming the tenant, step and table, once the re-run step
         meters the batch it re-derives. *)
      let gdir root = Filename.concat root "groupwal" in
      let segments =
        List.sort compare
          (List.filter
             (fun f -> Filename.check_suffix f ".seg")
             (Array.to_list (Sys.readdir (gdir pristine))))
      in
      let seg_lines seg =
        String.split_on_char '\n' (read_file (Filename.concat (gdir pristine) seg))
      in
      (* Segment [seg] of [root] with its first [line] replaced by [by]. *)
      let rewrite_line root seg ~line ~by =
        let path = Filename.concat (gdir root) seg in
        let content = read_file path in
        let rec at i =
          if String.sub content i (String.length line) = line then i
          else at (i + 1)
        in
        let i = at 0 in
        let j = i + String.length line in
        write_file path
          (String.sub content 0 i ^ by
          ^ String.sub content j (String.length content - j))
      in
      let applied_of line =
        match Durable.Record.of_tagged_line line with
        | Ok (Durable.Record.Tenant (name, Durable.Record.Applied a)) ->
            Some (name, a.time, a.table, a.cost)
        | _ -> None
      in
      let applied =
        List.concat_map
          (fun seg ->
            seg_lines seg
            |> List.filter_map (fun l ->
                   Option.map (fun a -> (seg, l, a)) (applied_of l)))
          segments
      in
      let ((_, _, (tenant, time, table, _)) as first) =
        match applied with
        | found :: _ -> found
        | [] -> Alcotest.fail "no tenant applied record in the log"
      in
      let forge root (seg, applied_line, _) edit =
        rewrite_line root seg ~line:applied_line
          ~by:
            (match Durable.Record.of_tagged_line applied_line with
            | Ok (Durable.Record.Tenant (name, Durable.Record.Applied a)) ->
                let count, cost = edit (a.count, a.cost) in
                Durable.Record.to_tagged_line
                  (Durable.Record.Tenant
                     (name, Durable.Record.Applied { a with count; cost }))
            | _ -> Alcotest.fail "not an applied record")
      in
      let applied_becomes what ~cause edit =
        refused ~what ~cause (fun root -> forge root first edit)
      in
      let plus_1000 (count, cost) = (count + 1000, cost) in
      applied_becomes "applied count + 1000"
        ~cause:
          (Printf.sprintf
             "%s: t=%d: table %d: applied record does not match the batch"
             tenant time table)
        plus_1000;
      applied_becomes "applied cost one float up"
        ~cause:"non-deterministic replay" (fun (count, cost) ->
          (count, Int64.float_of_bits (Int64.succ (Int64.bits_of_float cost))));
      (* Two tenants' records forged at once: at every domain count the
         error names the one the replay reaches first, by round, then by
         registration (t0, t1, ... in order; every tenant starts at round
         0, so its step is the round). *)
      let second =
        match
          List.find_opt (fun (_, _, (name, _, _, _)) -> name <> tenant) applied
        with
        | Some found -> found
        | None -> Alcotest.fail "only one tenant has applied records"
      in
      let (_, _, (other, other_time, _, _)) = second in
      let reached = snd (min (time, tenant) (other_time, other)) in
      let e =
        refusal ~what:"two tenants damaged" (fun root ->
            forge root first plus_1000;
            forge root second plus_1000)
      in
      checkb
        (Printf.sprintf "two tenants damaged: error %S names %s" e reached)
        true
        (String.starts_with ~prefix:(reached ^ ": ") e);
      (* Tenant [Arrival] records, CRC-valid: one re-encoded with another
         change, and the last arrival of one step written twice (in the
         last segment, whose record count no later segment checks).
         Replay re-draws every arrival from the feed, so it refuses
         both, naming the tenant and the step. *)
      let arrivals seg =
        seg_lines seg
        |> List.filter_map (fun l ->
               match Durable.Record.of_tagged_line l with
               | Ok
                   (Durable.Record.Tenant
                      (name, Durable.Record.Arrival { time; table; change })) ->
                   Some (l, name, (time, table, change))
               | _ -> None)
      in
      let first_arrival seg =
        match arrivals seg with
        | found :: _ -> found
        | [] -> Alcotest.failf "no tenant arrival record in %s" seg
      in
      let refused_naming ~what ~cause (name, time) damage =
        let step = Printf.sprintf "%s: t=%d" name time in
        let e = refusal ~what damage in
        checkb
          (Printf.sprintf "%s: error %S names %S and %S" what e step cause)
          true
          (String.starts_with ~prefix:step e && contains ~sub:cause e)
      in
      let seg = List.hd segments in
      let line, name, (time, table, change) = first_arrival seg in
      let change =
        match change with
        | Ivm.Change.Insert tuple -> Ivm.Change.Delete tuple
        | Ivm.Change.Delete tuple -> Ivm.Change.Insert tuple
        | Ivm.Change.Update { before; after } ->
            Ivm.Change.Update { before = after; after = before }
      in
      refused_naming ~what:"arrival with another change"
        ~cause:"differs from the deterministic feed" (name, time) (fun root ->
          rewrite_line root seg ~line
            ~by:
              (Durable.Record.to_tagged_line
                 (Durable.Record.Tenant
                    (name, Durable.Record.Arrival { time; table; change }))));
      let seg = List.nth segments (List.length segments - 1) in
      let _, name, (time, _, _) = first_arrival seg in
      let line, _, _ =
        List.fold_left
          (fun last ((_, n, (t, _, _)) as found) ->
            if n = name && t = time then found else last)
          (first_arrival seg) (arrivals seg)
      in
      refused_naming ~what:"step's last arrival written twice"
        ~cause:"more arrivals than the schedule" (name, time) (fun root ->
          rewrite_line root seg ~line ~by:(line ^ "\n" ^ line));
      (* Roots whose service manifest predates the one-log layout. *)
      let manifest_params what ~cause edit =
        refused ~what ~cause (fun root ->
            match Durable.Manifest.load ~dir:root with
            | Ok (Some m) ->
                Durable.Manifest.save ~dir:root
                  {
                    m with
                    Durable.Manifest.params = edit m.Durable.Manifest.params;
                  }
            | _ -> Alcotest.failf "%s: no service manifest" what)
      in
      manifest_params "private wal_mode" ~cause:"private"
        (List.map (fun (k, v) ->
             if k = "wal_mode" then (k, "private") else (k, v)));
      manifest_params "no wal_mode" ~cause:"wal_mode"
        (List.filter (fun (k, _) -> k <> "wal_mode"));
      manifest_params "manifest journal" ~cause:"coflush" (fun params ->
          params @ [ ("coflush", "3:t0=1/0,t1=2/0") ]);
      (* Forged tenant entries: each would read or serve the wrong
         tenant directory. *)
      let tenants_become edit =
        List.map (fun (k, v) -> if k = "tenants" then (k, edit v) else (k, v))
      in
      manifest_params "duplicate tenant entry" ~cause:"\"t0\" listed twice"
        (tenants_become (fun v -> "t0:0;" ^ v));
      manifest_params "tenant entry outside the root" ~cause:"bad tenant name"
        (tenants_become (fun v -> v ^ ";../../x:0"));
      refused ~what:"tenant manifest names another tenant"
        ~cause:"tenant \"t1\": manifest names tenant \"t9\"" (fun root ->
          let dir = Filename.concat (Filename.concat root "tenants") "t1" in
          match Durable.Manifest.load ~dir with
          | Ok (Some m) ->
              Durable.Manifest.save ~dir
                {
                  m with
                  Durable.Manifest.params =
                    List.map
                      (fun (k, v) -> if k = "name" then (k, "t9") else (k, v))
                      m.Durable.Manifest.params;
                }
          | _ -> Alcotest.fail "t1: no tenant manifest"))

(* --- backpressure never drops a committed arrival ------------------------- *)

let arrival_count root name =
  match
    Durable.Groupwal.read ~dir:(Durable.Fsutil.group_dir root) ~from_lsn:0
  with
  | Error e -> Alcotest.failf "records of %s: %s" name e
  | Ok contents ->
      let records =
        Option.value ~default:[]
          (List.assoc_opt name contents.Durable.Groupwal.tenants)
      in
      List.fold_left
        (fun n r ->
          match r with Durable.Record.Arrival _ -> n + 1 | _ -> n)
        0 records

let test_shedding_never_drops_arrivals () =
  let cfgs = fleet 4 in
  let free_root = scratch () and tight_root = scratch () in
  Fun.protect
    ~finally:(fun () ->
      rmtree free_root;
      rmtree tight_root)
    (fun () ->
      let free = run_service ~root:free_root (service_cfg ()) cfgs in
      checkb "free run consistent" true (all_consistent free);
      (* A budget of one model-cost unit per round refuses essentially
         every optional piggyback join. *)
      let tight =
        run_service ~root:tight_root
          (service_cfg ~shed_budget:1.0 ())
          cfgs
      in
      let total_sheds =
        List.fold_left
          (fun n t -> n + t.Serve.Service.sheds)
          0 tight.Serve.Service.tenants
      in
      checkb "budget forced shedding" true (total_sheds > 0);
      checkb "shed run still consistent" true (all_consistent tight);
      List.iter
        (fun cfg ->
          let name = cfg.Serve.Tenant.name in
          let free_arrivals = arrival_count free_root name in
          checkb
            (Printf.sprintf "%s: arrivals were journalled" name)
            true (free_arrivals > 0);
          checki
            (Printf.sprintf "%s: same committed arrivals" name)
            free_arrivals
            (arrival_count tight_root name))
        cfgs)

(* --- schedulers are bit-identical ----------------------------------------- *)

(* [Lockstep] is the all-ready mask: every tenant dispatched every round.
   The event scheduler is a pure dispatch optimization over the same
   round code path, so on the one WAL layout (the shared group log) it
   must reproduce lockstep bit for bit on a busy fleet. *)
let test_layouts_and_schedulers_bit_identical () =
  let cfgs = fleet 3 in
  let run ~scheduler =
    let root = scratch () in
    Fun.protect
      ~finally:(fun () -> rmtree root)
      (fun () -> run_service ~root (service_cfg ~scheduler ()) cfgs)
  in
  let base = run ~scheduler:Serve.Service.Lockstep in
  checkb "baseline consistent" true (all_consistent base);
  check_outcomes_equal "grouped+event" base
    (run ~scheduler:Serve.Service.Event)

(* On-off arrival streams leave whole rounds with nothing to do; the
   event scheduler must retire them without dispatching anyone — and
   still finish bit-identical to lockstep. *)
let test_event_scheduler_skips_idle_rounds () =
  let cfgs =
    List.init 2 (fun i ->
        {
          (tenant_cfg ~seed:(42 + (10 * i)) (Printf.sprintf "t%d" i)) with
          Serve.Tenant.streams = [ "onoff:2,4,2"; "onoff:2,4,1" ];
        })
  in
  let run ~scheduler =
    let root = scratch () in
    Fun.protect
      ~finally:(fun () -> rmtree root)
      (fun () ->
        let svc = Serve.Service.create ~root (service_cfg ~scheduler ()) in
        List.iter
          (fun cfg ->
            match Serve.Service.register svc cfg with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "register %s: %s" cfg.Serve.Tenant.name e)
          cfgs;
        let outcome = Serve.Service.run svc in
        (outcome, Serve.Service.idle_rounds svc))
  in
  let event, event_idle = run ~scheduler:Serve.Service.Event in
  let lockstep, lockstep_idle = run ~scheduler:Serve.Service.Lockstep in
  checkb "lockstep consistent" true (all_consistent lockstep);
  checkb "event scheduler skipped idle rounds" true (event_idle > 0);
  checki "lockstep never idles" 0 lockstep_idle;
  check_outcomes_equal "event-vs-lockstep" lockstep event

(* --- per-tenant sync policies --------------------------------------------- *)

(* A strict tenant under the grouped WAL forces the shared window closed
   at its own commits — even when the service cadence alone would never
   fsync — without perturbing any outcome bit. *)
let test_tenant_sync_override_forces_window () =
  let strict_cfgs =
    List.mapi
      (fun i cfg ->
        if i = 0 then { cfg with Serve.Tenant.sync = Some Durable.Wal.Always }
        else cfg)
      (fleet 3)
  in
  let run ~cfgs ~sync =
    let root = scratch () in
    Fun.protect
      ~finally:(fun () -> rmtree root)
      (fun () ->
        let svc = Serve.Service.create ~root (service_cfg ~sync ()) in
        List.iter
          (fun cfg ->
            match Serve.Service.register svc cfg with
            | Ok _ -> ()
            | Error e ->
                Alcotest.failf "register %s: %s" cfg.Serve.Tenant.name e)
          cfgs;
        let outcome = Serve.Service.run svc in
        (outcome, Serve.Service.window_closes svc, Serve.Service.forced_closes svc))
  in
  let strict, closes, forced = run ~cfgs:strict_cfgs ~sync:Durable.Wal.Never in
  checkb "strict tenant forced window closes" true (forced > 0);
  checkb "forced closes are window closes" true (closes >= forced);
  let relaxed, _, relaxed_forced =
    run ~cfgs:(fleet 3) ~sync:Durable.Wal.Always
  in
  checki "no overrides, no forced closes" 0 relaxed_forced;
  check_outcomes_equal "sync-policy-neutral" relaxed strict

let test_tenant_sync_validated_at_admission () =
  let root = scratch () in
  Fun.protect
    ~finally:(fun () -> rmtree root)
    (fun () ->
      let svc = Serve.Service.create ~root (service_cfg ()) in
      List.iter
        (fun (what, cfg) ->
          match Serve.Service.register svc cfg with
          | Error _ -> ()
          | Ok d ->
              Alcotest.failf "%s: expected a validation error, got %s" what
                (Serve.Admission.describe d))
        [
          ( "interval 0",
            {
              (tenant_cfg ~seed:42 "t0") with
              Serve.Tenant.sync = Some (Durable.Wal.Interval 0);
            } );
          (* NaN fails every comparison, [<= 0.0] included. *)
          ( "nan limit factor",
            tenant_cfg ~limit_factor:Float.nan ~seed:42 "t1" );
          ( "infinite limit factor",
            tenant_cfg ~limit_factor:Float.infinity ~seed:42 "t2" );
        ];
      (match
         Serve.Tenant.config_of_params
           (List.map
              (fun (k, v) -> if k = "limit_factor" then (k, "nan") else (k, v))
              (Serve.Tenant.params_of_config (tenant_cfg ~seed:42 "t3")))
       with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "tenant params with a nan limit_factor decoded"));
  (* The service-level parameters, at creation and in a decoded
     manifest. *)
  List.iter
    (fun (what, config) ->
      let root = scratch () in
      match Serve.Service.create ~root config with
      | exception Invalid_argument _ ->
          checkb (what ^ ": nothing written") false (Sys.file_exists root)
      | _ ->
          rmtree root;
          Alcotest.failf "%s: service created" what)
    [
      ("nan discount", service_cfg ~discount_factor:Float.nan ());
      ("infinite discount", service_cfg ~discount_factor:Float.infinity ());
      ("nan shed budget", service_cfg ~shed_budget:Float.nan ());
      ("infinite shed budget", service_cfg ~shed_budget:Float.infinity ());
    ];
  let params =
    [
      ("kind", "serve"); ("coordinate", "true"); ("discount_factor", "0.8");
      ("shed_budget", "none"); ("sync", "always"); ("wal_mode", "grouped");
      ("scheduler", "event"); ("max_active", "8"); ("max_queued", "8");
      ("tenants", "t0:0");
    ]
  in
  checkb "well-formed service params decode" true
    (Result.is_ok (Serve.Service.config_of_params params));
  List.iter
    (fun (key, v) ->
      let edited =
        List.map (fun (k, old) -> if k = key then (k, v) else (k, old)) params
      in
      match Serve.Service.config_of_params edited with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s=%s decoded" key v)
    [ ("discount_factor", "nan"); ("discount_factor", "inf");
      ("shed_budget", "nan"); ("shed_budget", "-inf") ]

(* The service and tenant manifests share one param reader
   ([Durable.Manifest.get]); every refusal keeps the text each decoder
   wrote on its own: the kind in a missing key, the key and value in a
   bad one. *)
let test_params_refusal_texts () =
  let service =
    [
      ("kind", "serve"); ("coordinate", "true"); ("discount_factor", "0.8");
      ("shed_budget", "none"); ("sync", "always"); ("wal_mode", "grouped");
      ("scheduler", "event"); ("max_active", "8"); ("max_queued", "8");
      ("tenants", "t0:0");
    ]
  and tenant = Serve.Tenant.params_of_config (tenant_cfg ~seed:42 "t0") in
  let edit params key v =
    let rest = List.remove_assoc key params in
    match v with None -> rest | Some v -> (key, v) :: rest
  in
  let refused decode what params key v want =
    match decode (edit params key v) with
    | Ok _ -> Alcotest.failf "%s %s decoded" what key
    | Error e -> Alcotest.(check string) (what ^ " " ^ key) want e
  in
  let svc = refused (fun p -> Result.map ignore (Serve.Service.config_of_params p)) "service" service in
  svc "kind" None {|service params missing "kind"|};
  svc "coordinate" (Some "yes") {|bad coordinate parameter "yes"|};
  svc "discount_factor" (Some "nan") {|bad discount_factor parameter "nan"|};
  svc "shed_budget" (Some "inf") {|bad shed_budget parameter "inf"|};
  svc "scheduler" (Some "fifo") {|bad scheduler parameter "fifo"|};
  svc "max_queued" (Some "8x") {|bad max_queued parameter "8x"|};
  svc "max_delta_entries" (Some "many") {|bad max_delta_entries parameter "many"|};
  svc "tenants" None {|service params missing "tenants"|};
  let ten = refused (fun p -> Result.map ignore (Serve.Tenant.config_of_params p)) "tenant" tenant in
  ten "name" None {|tenant params missing "name"|};
  ten "seed" (Some "4.2") {|bad seed parameter "4.2"|};
  ten "limit_factor" (Some "nan") {|bad limit_factor parameter "nan"|};
  ten "order" (Some "third-order") {|bad order parameter "third-order"|};
  ten "streams" None {|tenant params missing "streams"|}

(* --- mid-round crash matrix ------------------------------------------------ *)

(* Crash at every durable commit boundary the uninterrupted twin fires —
   including between two tenants' phase-C commits inside one round (a
   lost participant's batch, invited or not, comes back because
   recovery re-runs the whole round: phase B re-derives the invites
   from the replayed controllers and the co-flush record only checks
   them), and during forced group-window closes.  Recovery + resume must
   reproduce the twin bit for bit at every point. *)
let crash_matrix_case ~cfgs () =
  let base_root = scratch () in
  let record, points = Durable.Hook.counting () in
  let baseline =
    Fun.protect
      ~finally:(fun () -> rmtree base_root)
      (fun () -> run_service ~root:base_root (service_cfg ~hook:record ()) cfgs)
  in
  checkb "baseline consistent" true (all_consistent baseline);
  let indexed =
    List.mapi (fun i p -> (i, p)) (points ())
    |> List.filter (fun (_, p) ->
           match p with
           | Durable.Hook.Committed _ | Durable.Hook.Window_closed _ -> true
           | _ -> false)
  in
  checkb "matrix is non-trivial" true (List.length indexed > 5);
  List.iter
    (fun (n, point) ->
      let crash_root = scratch () in
      Fun.protect
        ~finally:(fun () -> rmtree crash_root)
        (fun () ->
          let crashed =
            try
              ignore
                (run_service ~root:crash_root
                   (service_cfg ~hook:(Durable.Hook.crash_after ~n) ())
                   cfgs);
              false
            with Durable.Hook.Crash _ -> true
          in
          checkb
            (Printf.sprintf "point %d (%s) killed the run" n
               (Durable.Hook.describe point))
            true crashed;
          match Serve.Service.recover ~root:crash_root () with
          | Error e ->
              Alcotest.failf "recover at point %d (%s): %s" n
                (Durable.Hook.describe point)
                e
          | Ok svc ->
              let recovered = Serve.Service.run svc in
              check_outcomes_equal
                (Printf.sprintf "point %d (%s)" n
                   (Durable.Hook.describe point))
                baseline recovered))
    indexed

(* One strict tenant: its forced window closes make partial rounds
   durable mid-phase — a crash after the strict tenant's phase-C close
   but before the round's own close loses the later co-flush
   participants, whose steps the re-run round makes again, as invited
   participants, not as solo mandatory flushes. *)
let test_crash_matrix_grouped_forced () =
  (* Horizon 12 reaches rounds where the strict tenant flushes alongside
     an invited participant. *)
  List.iter
    (fun horizon ->
      let cfgs =
        List.mapi
          (fun i cfg ->
            if i = 0 then
              { cfg with Serve.Tenant.sync = Some Durable.Wal.Always }
            else cfg)
          (fleet ~rows:30 ~horizon 3)
      in
      crash_matrix_case ~cfgs ())
    [ 8; 12 ]

(* --- the shared scheduler's claims ------------------------------------------- *)

(* Four tenants to the horizon three times: independent per-tenant
   ONLINE (no coordination, every tenant flushes alone at full price),
   the shared scheduler (nearly-due tenants piggyback on a forced flush,
   priced with the shared-setup discount), and the shared scheduler at
   discount 0.  Sharing may not cost more in aggregate, nor regress the
   worst tenant's SLO violation rate; without a discount no one is
   invited, so the run is the independent one to the bit. *)
let test_shared_scheduler_no_dearer () =
  let cfgs = fleet ~rows:60 ~horizon:25 4 in
  let run ?discount_factor ~coordinate () =
    let root = scratch () in
    Fun.protect
      ~finally:(fun () -> rmtree root)
      (fun () ->
        run_service ~root (service_cfg ?discount_factor ~coordinate ()) cfgs)
  in
  let indep = run ~coordinate:false () and shared = run ~coordinate:true () in
  check_outcomes_equal "discount 0 vs independent"
    (run ~discount_factor:0.0 ~coordinate:true ())
    indep;
  (* Both runs' aggregates, pinned bit for bit (recorded with the
     co-flush rule still written inline in the scheduler). *)
  checkb "independent aggregate charged pinned" true
    (bits indep.Serve.Service.aggregate_charged = bits 0x1.d04834565c4bp+12);
  checkb "shared aggregate charged pinned" true
    (bits shared.Serve.Service.aggregate_charged = bits 0x1.4205cc3e7aa14p+12);
  checkb "shared aggregate undiscounted pinned" true
    (bits shared.Serve.Service.aggregate_undiscounted
    = bits 0x1.0bfdcb9aa0245p+13);
  checki "shared co-flush joins pinned" 34 shared.Serve.Service.co_flushes;
  checkb "independent run consistent" true (all_consistent indep);
  checkb "shared run consistent" true (all_consistent shared);
  checkb
    (Printf.sprintf "shared charged %.2f <= independent %.2f"
       shared.Serve.Service.aggregate_charged
       indep.Serve.Service.aggregate_charged)
    true
    (shared.Serve.Service.aggregate_charged
    <= indep.Serve.Service.aggregate_charged);
  checkb "worst SLO violation rate not regressed" true
    (shared.Serve.Service.worst_violation_rate
    <= indep.Serve.Service.worst_violation_rate)

(* Grouped-window accounting under [sync = Always]: every busy round
   closes the shared window exactly once, and the only fsyncs beyond one
   per close are the shutdown flush and segment rotation. *)
let test_window_fsync_accounting () =
  let root = scratch () in
  Fun.protect
    ~finally:(fun () -> rmtree root)
    (fun () ->
      let svc =
        Serve.Service.create ~root
          (service_cfg ~coordinate:false ~discount_factor:0.0 ())
      in
      List.iter
        (fun cfg ->
          match Serve.Service.register svc cfg with
          | Ok _ -> ()
          | Error e -> Alcotest.failf "register %s: %s" cfg.Serve.Tenant.name e)
        (fleet ~rows:12 ~horizon:30 6);
      Telemetry.enable ();
      let outcome, fsyncs =
        Fun.protect ~finally:Telemetry.disable (fun () ->
            let outcome = Serve.Service.run svc in
            (outcome, Telemetry.Metrics.value (Telemetry.snapshot ()) "durable.fsyncs"))
      in
      checkb "fleet consistent" true (all_consistent outcome);
      let busy = Serve.Service.rounds svc - Serve.Service.idle_rounds svc in
      let closes = Serve.Service.window_closes svc in
      checki "one window close per busy round" busy closes;
      checkb
        (Printf.sprintf "%.0f fsyncs <= %d closes + 2" fsyncs closes)
        true
        (fsyncs <= float_of_int (closes + 2)))

(* --- queueing and promotion ----------------------------------------------- *)

let test_queue_and_promotion () =
  let cfgs = fleet ~horizon:8 ~rows:40 4 in
  let root = scratch () in
  Fun.protect
    ~finally:(fun () -> rmtree root)
    (fun () ->
      let admission =
        {
          Serve.Admission.max_active = 2;
          max_queued = 4;
          max_delta_entries = max_int;
        }
      in
      let svc = Serve.Service.create ~root (service_cfg ~admission ()) in
      let decisions =
        List.map
          (fun cfg ->
            match Serve.Service.register svc cfg with
            | Ok d -> d
            | Error e -> Alcotest.failf "register: %s" e)
          cfgs
      in
      checki "two admitted" 2
        (List.length
           (List.filter (fun d -> d = Serve.Admission.Admit) decisions));
      checki "two queued" 2
        (List.length
           (List.filter (fun d -> d = Serve.Admission.Queue) decisions));
      (match Serve.Service.register svc (tenant_cfg ~seed:1 "bad/name") with
      | Ok (Serve.Admission.Reject _) -> ()
      | Ok d ->
          Alcotest.failf "expected reject, got %s" (Serve.Admission.describe d)
      | Error e -> Alcotest.failf "register: %s" e);
      let outcome = Serve.Service.run svc in
      checki "all four completed" 4
        (List.length outcome.Serve.Service.tenants);
      checkb "all consistent" true (all_consistent outcome);
      checki "queue peak" 2 outcome.Serve.Service.queued_peak;
      checki "one rejected" 1 outcome.Serve.Service.rejected)

(* Higher-order tenants materialize delta views from the moment they are
   created, so with a 1-entry budget the first registration admits (charge
   is still 0 when it is decided) and every later one must wait for the
   active tenant to finish and release its materialization. *)
let test_delta_budget_queues_higher_order () =
  let cfgs =
    List.init 2 (fun i ->
        tenant_cfg ~rows:40 ~horizon:8 ~order:Ivm.Viewdef.Higher_order
          ~seed:(42 + (10 * i))
          (Printf.sprintf "t%d" i))
  in
  let root = scratch () in
  Fun.protect
    ~finally:(fun () -> rmtree root)
    (fun () ->
      let admission =
        {
          Serve.Admission.max_active = 2;
          max_queued = 4;
          max_delta_entries = 1;
        }
      in
      let svc = Serve.Service.create ~root (service_cfg ~admission ()) in
      let decisions =
        List.map
          (fun cfg ->
            match Serve.Service.register svc cfg with
            | Ok d -> d
            | Error e -> Alcotest.failf "register: %s" e)
          cfgs
      in
      (match decisions with
      | [ Serve.Admission.Admit; Serve.Admission.Queue ] -> ()
      | ds ->
          Alcotest.failf "expected [admit; queue], got [%s]"
            (String.concat "; " (List.map Serve.Admission.describe ds)));
      let outcome = Serve.Service.run svc in
      checki "both completed" 2 (List.length outcome.Serve.Service.tenants);
      checkb "all consistent" true (all_consistent outcome);
      checki "queue peak" 1 outcome.Serve.Service.queued_peak;
      checki "none rejected" 0 outcome.Serve.Service.rejected)

let () =
  Alcotest.run "serve"
    [
      ( "admission",
        [
          Alcotest.test_case "decisions" `Quick test_admission_decisions;
          Alcotest.test_case "delta-view memory budget" `Quick
            test_admission_memory_budget;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "shared no dearer than independent, SLO kept"
            `Quick test_shared_scheduler_no_dearer;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "4-domain pool bit-identical" `Quick
            test_parallel_bit_identical;
          Alcotest.test_case "one materialization per tenant" `Quick
            test_one_materialization_per_tenant;
          Alcotest.test_case "pooled registration, same tenants" `Quick
            test_pooled_registration_same_tenants;
        ] );
      ( "durability",
        [
          Alcotest.test_case "crash early + recover" `Quick
            test_crash_recover_early;
          Alcotest.test_case "crash late + recover" `Quick
            test_crash_recover_late;
          Alcotest.test_case "crash after promotion + recover" `Quick
            test_crash_recover_promoted;
          Alcotest.test_case "finished dir replays in full" `Quick
            test_recovered_wal_replays_full_history;
          Alcotest.test_case "damaged or retired state refused" `Quick
            test_recover_refuses_damage;
          Alcotest.test_case "record past the horizon refused" `Quick
            test_record_past_horizon_refused;
          Alcotest.test_case "create refuses an existing root" `Quick
            test_create_refuses_existing_root;
        ] );
      ( "serve-io",
        [
          Alcotest.test_case "layouts + schedulers bit-identical" `Quick
            test_layouts_and_schedulers_bit_identical;
          Alcotest.test_case "event scheduler skips idle rounds" `Quick
            test_event_scheduler_skips_idle_rounds;
          Alcotest.test_case "tenant sync forces window closes" `Quick
            test_tenant_sync_override_forces_window;
          Alcotest.test_case "param refusals keep their texts" `Quick
            test_params_refusal_texts;
          Alcotest.test_case "tenant sync validated at admission" `Quick
            test_tenant_sync_validated_at_admission;
          Alcotest.test_case "crash matrix: grouped forced closes" `Quick
            test_crash_matrix_grouped_forced;
          Alcotest.test_case "one window close + fsync per busy round" `Quick
            test_window_fsync_accounting;
        ] );
      ( "backpressure",
        [
          Alcotest.test_case "shedding never drops arrivals" `Quick
            test_shedding_never_drops_arrivals;
        ] );
      ( "admission-lifecycle",
        [
          Alcotest.test_case "queue + promotion" `Quick
            test_queue_and_promotion;
          Alcotest.test_case "delta budget queues higher-order" `Quick
            test_delta_budget_queues_higher_order;
        ] );
    ]
