(* `abivm serve run | recover`: the multi-tenant maintenance service. *)

open Cmdliner
open Terms

let print_outcome (o : Serve.Service.outcome) =
  Util.Tablefmt.print
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Left ]
    ~header:
      [ "tenant"; "steps"; "metered"; "charged"; "violations"; "sheds";
        "reanchors"; "consistent" ]
    (List.map
       (fun (t : Serve.Service.tenant_outcome) ->
         [
           t.Serve.Service.tenant;
           string_of_int t.Serve.Service.steps;
           Util.Tablefmt.float_cell t.Serve.Service.metered_cost;
           Util.Tablefmt.float_cell t.Serve.Service.charged_cost;
           string_of_int t.Serve.Service.violations;
           string_of_int t.Serve.Service.sheds;
           string_of_int t.Serve.Service.reanchors;
           string_of_bool t.Serve.Service.consistent;
         ])
       o.Serve.Service.tenants);
  Printf.printf
    "%d round(s); aggregate charged %.2f (undiscounted %.2f, %d co-flush \
     join(s)); worst violation rate %.3f; %d rejected, queue peak %d\n"
    o.Serve.Service.rounds o.Serve.Service.aggregate_charged
    o.Serve.Service.aggregate_undiscounted o.Serve.Service.co_flushes
    o.Serve.Service.worst_violation_rate o.Serve.Service.rejected
    o.Serve.Service.queued_peak;
  if List.exists (fun t -> not t.Serve.Service.consistent) o.Serve.Service.tenants
  then Printf.printf "WARNING: some tenant's view failed its consistency check\n"

let with_pool domains f =
  if domains <= 1 then f None
  else Parallel.Pool.with_pool ~domains (fun p -> f (Some p))

(* [--tenant-sync t3=always] overrides: parsed here, validated against
   the registered tenant names before any registration happens. *)
let parse_tenant_syncs ~tenants specs =
  let known = List.init tenants (Printf.sprintf "t%d") in
  List.fold_left
    (fun acc spec ->
      Result.bind acc (fun acc ->
          match String.index_opt spec '=' with
          | None ->
              Error
                (Printf.sprintf "--tenant-sync %s: expected NAME=POLICY" spec)
          | Some i -> (
              let name = String.sub spec 0 i in
              let policy =
                String.sub spec (i + 1) (String.length spec - i - 1)
              in
              if not (List.mem name known) then
                Error
                  (Printf.sprintf
                     "--tenant-sync %s: no such tenant (run has %s)" spec
                     (String.concat ", " known))
              else
                match Durable.Wal.sync_of_string policy with
                | Ok p -> Ok ((name, p) :: acc)
                | Error e ->
                    Error (Printf.sprintf "--tenant-sync %s: %s" spec e))))
    (Ok []) specs

let run dir tenants rows horizon limit_factor seed streams discount budget
    no_coordinate domains sync tenant_syncs hook trace metrics =
  if List.length streams <> Serve.Tenant.n_tables then
    `Error (false, "need exactly two --stream arguments (tables R and S)")
  else
    match parse_tenant_syncs ~tenants tenant_syncs with
    | Error e -> `Error (false, e)
    | Ok sync_overrides ->
        with_telemetry ~trace ~metrics (fun () ->
            let config =
              {
                Serve.Service.default_config with
                Serve.Service.coordinate = not no_coordinate;
                discount_factor = discount;
                shed_budget = budget;
                sync;
                hook;
              }
            in
            with_pool domains (fun pool ->
                match Serve.Service.create ?pool ~root:dir config with
                | exception (Invalid_argument e | Failure e) ->
                    `Error (false, e)
                | svc ->
                    let ok = ref true in
                    for i = 0 to tenants - 1 do
                      let name = Printf.sprintf "t%d" i in
                      let cfg =
                        {
                          Serve.Tenant.name;
                          seed = seed + (10 * i);
                          rows;
                          horizon;
                          limit_factor;
                          streams;
                          order = Ivm.Viewdef.First_order;
                          sync = List.assoc_opt name sync_overrides;
                        }
                      in
                      match Serve.Service.register svc cfg with
                      | Ok decision ->
                          Printf.printf "register %s: %s\n%!" name
                            (Serve.Admission.describe decision)
                      | Error e ->
                          ok := false;
                          Printf.printf "register %s: ERROR %s\n%!" name e
                    done;
                    if not !ok then `Error (false, "tenant registration failed")
                    else begin
                      or_killed ~group:"serve" ~dir (fun () ->
                          print_outcome (Serve.Service.run svc));
                      `Ok ()
                    end))

let recover dir domains trace metrics =
  with_telemetry ~trace ~metrics (fun () ->
      with_pool domains (fun pool ->
          match Serve.Service.recover ?pool ~root:dir () with
          | Error e -> `Error (false, e)
          | Ok svc ->
              Printf.printf "replayed %d WAL record(s) across tenants\n%!"
                (Serve.Service.total_replayed svc);
              print_outcome (Serve.Service.run svc);
              `Ok ()))

let dir = dir ~doc:"Service root (service manifest, tenant manifests, shared WAL)."

let domains =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Fan per-tenant work of each round out over $(docv) domains \
           (outcome is bit-identical to sequential; default 1).")

let run_cmd =
  let tenants =
    Arg.(
      value & opt int 4
      & info [ "tenants" ] ~docv:"N" ~doc:"Number of tenants (default 4).")
  in
  let rows =
    Arg.(
      value & opt int 120
      & info [ "rows" ] ~docv:"N"
          ~doc:"Rows per synthetic base table per tenant (default 120).")
  in
  let limit_factor =
    Arg.(
      value & opt float 6.0
      & info [ "limit-factor" ] ~docv:"X"
          ~doc:
            "Refresh budget C as a multiple of the dearer table's calibrated \
             single-modification cost (default 6).")
  in
  let discount =
    Arg.(
      value & opt float 0.8
      & info [ "discount" ] ~docv:"F"
          ~doc:
            "Co-flush discount as a fraction of the cheapest participant's \
             single-modification cost (default 0.8; 0 disables).")
  in
  let budget =
    Arg.(
      value
      & opt (some float) None
      & info [ "budget" ] ~docv:"COST"
          ~doc:
            "Model-cost budget per round; optional co-flush joins beyond it \
             are shed (default: unlimited).")
  in
  let no_coordinate =
    Arg.(
      value & flag
      & info [ "no-coordinate" ]
          ~doc:"Run tenants' controllers independently (no piggybacking).")
  in
  let sync =
    sync
      ~doc:
        "Durability cadence: always, never, or interval:N.  The shared \
         group-commit window closes (one fsync for every tenant's commits) \
         every round / never / every N-th round."
  in
  let tenant_sync =
    Arg.(
      value & opt_all string []
      & info [ "tenant-sync" ] ~docv:"NAME=POLICY"
          ~doc:
            "Per-tenant durability override (repeatable), e.g. \
             $(b,--tenant-sync t0=always): a strict tenant forces the \
             shared window closed at its own commits.  Validated against \
             the run's tenant names at startup.")
  in
  let hook =
    kill_hook ~name:"kill-at-round" ~docv:"R"
      ~doc:
        "Simulate a crash: die at the start of scheduler round $(docv) \
         (then try `serve recover`)."
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "run N tenants' maintenance concurrently under the shared SLO \
          scheduler, journaling into a shared group-commit WAL")
    Term.(
      ret
        (const run $ dir $ tenants $ rows
        $ horizon ~doc:"Per-tenant horizon (default 40)." 40
        $ limit_factor $ seed ~doc:"Base PRNG seed." 42 $ stream_texts
        $ discount $ budget $ no_coordinate $ domains $ sync $ tenant_sync
        $ hook $ trace_arg $ metrics_arg))

let recover_cmd =
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "rebuild every tenant from its manifest, replay the WALs \
          (verified bit-exact), and finish the run")
    Term.(ret (const recover $ dir $ domains $ trace_arg $ metrics_arg))

let cmd =
  Cmd.group
    (Cmd.info "serve"
       ~doc:
         "multi-tenant maintenance service: per-tenant ONLINE controllers \
          under a shared SLO scheduler with admission control, co-flush \
          coordination, and one shared group-commit WAL (run / recover)")
    [ run_cmd; recover_cmd ]
