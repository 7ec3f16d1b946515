(* What several `abivm` subcommands share: argument converters, the flags
   they define alike, telemetry set-up, the kill hooks of the crash demos,
   and the TPC-R engine of the paper's §5. *)

open Cmdliner

(* --- converters ------------------------------------------------------------ *)

let conv parse print =
  Arg.conv ((fun text -> Result.map_error (fun msg -> `Msg msg) (parse text)), print)

let cost_conv =
  conv Cost.Func.of_string (fun fmt f ->
      Format.pp_print_string fmt (Cost.Func.name f))

let stream_conv =
  conv Workload.Arrivals.stream_of_string (fun fmt _ ->
      Format.pp_print_string fmt "<stream>")

let strategy_conv =
  conv Abivm.Strategy.of_string (fun fmt s ->
      Format.pp_print_string fmt (Abivm.Strategy.to_string s))

(* A float flag refused while parsing unless [valid] holds. *)
let float_conv ~what ~want valid =
  conv
    (fun text ->
      match Durable.Manifest.float_if valid text with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad %s %S (want %s)" what text want))
    (Arg.conv_printer Arg.float)

(* A response-time limit: a finite number, zero or more — on the command
   line and in a durable run's manifest alike. *)
let valid_limit c = Float.is_finite c && c >= 0.0

let limit_conv = float_conv ~what:"limit" ~want:"a finite number >= 0" valid_limit

(* Calibration batch sizes, K,K,...: none negative, at least one positive
   and at least [distinct] different ones (an affine fit needs two). *)
let sizes_conv ~distinct =
  let sizes = Arg.(list int) in
  conv
    (fun text ->
      let bad why = Error (Printf.sprintf "bad sizes %S (%s)" text why) in
      match Arg.conv_parser sizes text with
      | Error (`Msg msg) -> Error msg
      | Ok ks when List.exists (fun k -> k < 0) ks -> bad "a size is negative"
      | Ok ks when not (List.exists (fun k -> k > 0) ks) -> bad "want a positive size"
      | Ok ks when List.length (List.sort_uniq Int.compare ks) < distinct ->
          bad (Printf.sprintf "want %d different sizes" distinct)
      | Ok ks -> Ok ks)
    (Arg.conv_printer sizes)

let sync_conv =
  conv Durable.Wal.sync_of_string (fun fmt s ->
      Format.pp_print_string fmt (Durable.Wal.sync_to_string s))

(* --- flags several subcommands define alike ---------------------------------- *)

let seed ?(doc = "PRNG seed.") default =
  Arg.(value & opt int default & info [ "seed" ] ~docv:"SEED" ~doc)

let horizon ?doc default =
  let doc =
    Option.value doc ~default:(Printf.sprintf "Refresh time (default %d)." default)
  in
  Arg.(value & opt int default & info [ "horizon"; "T" ] ~docv:"T" ~doc)

let cost_grammar =
  "linear:A, affine:A,B, sqrt:A,B, log:A,B, blocked:C,B, plateau:A,CAP, \
   step:EPS,C."

let stream_grammar =
  "constant:N, burst:P,MU,SIGMA, poisson:M, onoff:ON,OFF,RATE, or ss/su/fs/fu."

(* The two-table stream descriptors of `durable run` and `serve run`,
   kept as text (the manifests persist them so); absent means ss ss. *)
let stream_texts =
  Term.(
    const (function [] -> [ "ss"; "ss" ] | streams -> streams)
    $ Arg.(
        value & opt_all string []
        & info [ "stream" ] ~docv:"STREAM"
            ~doc:("Arrival stream per table, twice (default ss ss): " ^ stream_grammar)))

let dir ~doc =
  Arg.(required & opt (some string) None & info [ "dir" ] ~docv:"DIR" ~doc)

let sync ~doc =
  Arg.(
    value
    & opt sync_conv Durable.Wal.Always
    & info [ "sync" ] ~docv:"POLICY" ~doc)

(* --- the paper's analytic planning instance ------------------------------------ *)

type instance = {
  costs : Cost.Func.t list;
  limit : float;
  horizon : int;
  streams : Workload.Arrivals.stream list;
  seed : int;
}

(* One cost function and one arrival stream per table, a response-time
   limit, a horizon and a seed; the table counts are checked here, so a
   command runs only on a well-formed instance.  [costs]/[streams] say
   what the repeatable --cost/--stream flags describe. *)
let instance ?(costs = "Per-table cost function")
    ?(streams = "Per-table arrival stream") () =
  let repeatable what grammar = what ^ " (repeatable): " ^ grammar in
  let costs =
    Arg.(
      value & opt_all cost_conv []
      & info [ "cost" ] ~docv:"FUNC" ~doc:(repeatable costs cost_grammar))
  in
  let limit =
    Arg.(
      required
      & opt (some limit_conv) None
      & info [ "limit"; "C" ] ~docv:"COST" ~doc:"Response-time constraint $(docv).")
  in
  let streams =
    Arg.(
      value & opt_all stream_conv []
      & info [ "stream" ] ~docv:"STREAM" ~doc:(repeatable streams stream_grammar))
  in
  let check costs limit horizon streams seed =
    if costs = [] then `Error (false, "at least one --cost is required")
    else if List.length streams <> List.length costs then
      `Error (false, "need exactly one --stream per --cost")
    else `Ok { costs; limit; horizon; streams; seed }
  in
  Term.(ret (const check $ costs $ limit $ horizon 500 $ streams $ seed 42))

let spec i =
  let arrivals =
    Workload.Arrivals.generate ~seed:i.seed ~horizon:i.horizon (Array.of_list i.streams)
  in
  Abivm.Spec.make ~costs:(Array.of_list i.costs) ~limit:i.limit ~arrivals

let adapt_t0 =
  Arg.(
    value
    & opt (some int) None
    & info [ "adapt-t0" ] ~docv:"T0"
        ~doc:"Refresh-time estimate used by ADAPT (default T/2).")

(* --- telemetry ---------------------------------------------------------------- *)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE.jsonl"
        ~doc:
          "Write a telemetry trace: one JSON object per finished span, plus \
           a final metrics snapshot line.")

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:"Print the full metrics table when the command finishes.")

let print_metrics () =
  match Telemetry.snapshot () with
  | [] -> ()
  | snap -> Printf.printf "\nmetrics:\n%s" (Telemetry.Metrics.to_table snap)

(* Run [f] with the telemetry collector configured from --trace/--metrics.
   [always] keeps the collector on even without flags (the [run] subcommand
   needs per-action counters for its comparison table).  [f] returns a
   cmdliner [ret] value, so a --trace file that cannot be opened becomes a
   usage error rather than an uncaught [Sys_error]. *)
let with_telemetry ?(always = false) ~trace ~metrics f =
  match Option.map Telemetry.Sink.jsonl_file trace with
  | exception Sys_error e -> `Error (false, "--trace: " ^ e)
  | sink ->
      let sinks = Option.to_list sink in
      if (not always) && sinks = [] && not metrics then f ()
      else begin
        Telemetry.enable ~sinks ();
        Fun.protect
          ~finally:(fun () ->
            if metrics then print_metrics ();
            Telemetry.disable ())
          f
      end

(* --- crash demos ---------------------------------------------------------------- *)

(* A kill flag ([--kill-at-step], [--kill-at-round]) as the hook that
   raises [Durable.Hook.Crash] at the start of the named step. *)
let kill_hook ~name ~docv ~doc =
  let at = Arg.(value & opt (some int) None & info [ name ] ~docv ~doc) in
  let hook = function
    | None -> Durable.Hook.none
    | Some target -> (
        function
        | Durable.Hook.Step_start t when t = target ->
            raise (Durable.Hook.Crash (Printf.sprintf "--%s %d" name target))
        | _ -> ())
  in
  Term.(const hook $ at)

(* Run [f]; a crash a kill hook raised is reported with the command that
   finishes the run. *)
let or_killed ~group ~dir f =
  try f ()
  with Durable.Hook.Crash what ->
    Printf.printf
      "killed at crash point [%s] — `abivm %s recover --dir %s` will finish \
       the run\n"
      what group dir

(* --- the §5 TPC-R engine ---------------------------------------------------------- *)

(* A fresh TPC-R database maintaining the MIN(supplycost) view, its meter
   reset, and the paper's update feeds (seeded [seed + 1]). *)
let tpcr_engine ~scale ~seed =
  let db = Tpcr.Gen.generate ~seed ~scale () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter (Tpcr.Gen.min_supplycost_view db)
  in
  Relation.Meter.reset db.Tpcr.Gen.meter;
  (m, Tpcr.Updates.paper_feeds ~seed:(seed + 1) db)

(* The batch sizes the TPC-R curves are measured at. *)
let tpcr_sizes = [ 1; 5; 10; 20; 50; 100; 200 ]

(* --- printing ---------------------------------------------------------------------- *)

let print_reports spec reports =
  Util.Tablefmt.print
    ~aligns:
      [ Util.Tablefmt.Left; Util.Tablefmt.Right; Util.Tablefmt.Right;
        Util.Tablefmt.Right; Util.Tablefmt.Left ]
    ~header:[ "strategy"; "total cost"; "cost/mod"; "actions"; "valid" ]
    (List.map
       (fun (r : Abivm.Report.t) ->
         [
           Abivm.Report.label r;
           Util.Tablefmt.float_cell r.total_cost;
           Util.Tablefmt.float_cell ~decimals:4
             (Abivm.Report.cost_per_modification spec r);
           string_of_int r.actions;
           string_of_bool r.valid;
         ])
       reports)
