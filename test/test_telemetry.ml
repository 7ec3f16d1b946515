(* Telemetry unit tests (registry semantics, snapshot diff, sinks, spans)
   plus the cross-layer property: a traced Simulate.all emits one
   simulate.action span per plan action and books per-strategy totals that
   match each report's total_cost. *)

let checkb = Alcotest.(check bool)
let checki = Alcotest.(check int)
let checkf msg = Alcotest.(check (float 1e-9)) msg

module M = Telemetry.Metrics

let raises_invalid f =
  try
    ignore (f ());
    false
  with Invalid_argument _ -> true

(* --- registry ------------------------------------------------------------- *)

let test_counter_semantics () =
  let reg = M.create () in
  let c = M.counter reg "work" in
  M.inc c 2.0;
  M.inc1 c;
  checkf "accumulates" 3.0 (M.value (M.snapshot reg) "work");
  checkb "same identity" true (M.counter reg "work" == c);
  checkb "negative raises" true (raises_invalid (fun () -> M.inc c (-1.0)))

let test_gauge_semantics () =
  let reg = M.create () in
  let g = M.gauge reg "depth" in
  M.set g 5.0;
  M.set g 2.0;
  checkf "last set wins" 2.0 (M.value (M.snapshot reg) "depth");
  let p = M.gauge reg "peak" in
  M.set_max p 3.0;
  M.set_max p 1.0;
  M.set_max p 7.0;
  checkf "peak keeps max" 7.0 (M.value (M.snapshot reg) "peak")

let test_histogram_semantics () =
  let reg = M.create () in
  let h = M.histogram reg ~buckets:[| 1.0; 10.0 |] "sizes" in
  List.iter (M.observe h) [ 0.5; 5.0; 100.0 ];
  match M.find (M.snapshot reg) "sizes" with
  | None -> Alcotest.fail "histogram sample missing"
  | Some s ->
      checki "count" 3 s.sample_count;
      checkf "sum" 105.5 s.sample_value;
      checkf "min" 0.5 s.sample_min;
      checkf "max" 100.0 s.sample_max;
      checkb "bucket counts" true
        (s.sample_buckets = [ (1.0, 1); (10.0, 1); (Float.infinity, 1) ])

let test_kind_and_label_collisions () =
  let reg = M.create () in
  ignore (M.counter reg "x");
  checkb "kind collision raises" true
    (raises_invalid (fun () -> M.gauge reg "x"));
  checkb "duplicate label keys raise" true
    (raises_invalid (fun () ->
         M.counter reg ~labels:[ ("k", "1"); ("k", "2") ] "y"));
  (* Same name, different labels: distinct instruments, no collision. *)
  M.inc (M.counter reg ~labels:[ ("t", "0") ] "z") 1.0;
  M.inc (M.counter reg ~labels:[ ("t", "1") ] "z") 2.0;
  checki "two labelled series" 2 (List.length (M.find_all (M.snapshot reg) "z"))

let test_labels_order_insensitive () =
  let reg = M.create () in
  M.inc (M.counter reg ~labels:[ ("a", "1"); ("b", "2") ] "w") 1.0;
  M.inc (M.counter reg ~labels:[ ("b", "2"); ("a", "1") ] "w") 1.0;
  checkf "one series" 2.0
    (M.value (M.snapshot reg) ~labels:[ ("a", "1"); ("b", "2") ] "w")

let test_snapshot_diff () =
  let reg = M.create () in
  let c = M.counter reg "changed" in
  let u = M.counter reg "unchanged" in
  let g = M.gauge reg "level" in
  M.inc c 5.0;
  M.inc u 1.0;
  M.set g 10.0;
  let before = M.snapshot reg in
  M.inc c 3.0;
  M.set g 4.0;
  let d = M.diff (M.snapshot reg) before in
  checkf "counter subtracts" 3.0 (M.value d "changed");
  checkb "unchanged dropped" true (M.find d "unchanged" = None);
  checkf "gauge keeps later value" 4.0 (M.value d "level")

(* --- collector and spans --------------------------------------------------- *)

let with_collector ?sinks f =
  Telemetry.enable ?sinks ();
  Fun.protect ~finally:Telemetry.disable f

let test_disabled_is_noop () =
  Telemetry.disable ();
  checkb "disabled" false (Telemetry.enabled ());
  Telemetry.add "nothing" 1.0;
  Telemetry.observe "nothing.h" 1.0;
  checkb "empty snapshot" true (Telemetry.snapshot () = []);
  checki "with_span is fn" 41 (Telemetry.with_span ~name:"s" (fun () -> 41))

let test_spans_record_nesting_and_deltas () =
  let sink, spans = Telemetry.Sink.memory () in
  with_collector ~sinks:[ sink ] (fun () ->
      Telemetry.with_span ~name:"outer" (fun () ->
          Telemetry.with_span ~name:"inner" (fun () ->
              Telemetry.add "inner.work" 2.0)));
  match spans () with
  | [ (inner : Telemetry.Span.t); (outer : Telemetry.Span.t) ] ->
      (* Spans finish innermost-first. *)
      checkb "order" true (inner.name = "inner" && outer.name = "outer");
      checki "inner depth" 1 inner.depth;
      checki "outer depth" 0 outer.depth;
      checkf "inner delta" 2.0 (M.value inner.metrics "inner.work");
      checkf "outer sees nested delta" 2.0 (M.value outer.metrics "inner.work")
  | other -> Alcotest.failf "expected 2 spans, got %d" (List.length other)

(* Every from-scratch recompute runs inside one span: one
   maintainer.materialize per [Maintainer.create], one maintainer.check
   per [check_consistent], under either maintenance order (the delta
   views' rebuilds nest in them, not beside them). *)
let test_maintainer_recompute_spans () =
  List.iter
    (fun order ->
      let db = Tpcr.Synth.generate ~seed:5 ~r_rows:60 ~s_rows:60 () in
      let sink, spans = Telemetry.Sink.memory () in
      with_collector ~sinks:[ sink ] (fun () ->
          let m = Ivm.Maintainer.create ~order (Tpcr.Synth.join_view db) in
          for _ = 1 to 2 do
            checkb "consistent" true (Ivm.Maintainer.check_consistent m = Ok ())
          done);
      let count name =
        List.length
          (List.filter (fun (s : Telemetry.Span.t) -> s.name = name) (spans ()))
      in
      checki "one materialize span per create" 1 (count "maintainer.materialize");
      checki "one check span per check" 2 (count "maintainer.check"))
    [ Ivm.Viewdef.First_order; Ivm.Viewdef.Higher_order ];
  (* with the collector off the spans are skipped, not recorded *)
  let db = Tpcr.Synth.generate ~seed:5 ~r_rows:20 ~s_rows:20 () in
  let m = Ivm.Maintainer.create (Tpcr.Synth.join_view db) in
  checkb "consistent untraced" true (Ivm.Maintainer.check_consistent m = Ok ());
  checkb "nothing booked" true (Telemetry.snapshot () = [])

let test_span_survives_exception () =
  let sink, spans = Telemetry.Sink.memory () in
  with_collector ~sinks:[ sink ] (fun () ->
      checkb "exception propagates" true
        (try
           Telemetry.with_span ~name:"boom" (fun () -> failwith "boom")
         with Failure _ -> true));
  checki "span recorded" 1 (List.length (spans ()));
  (* Depth unwound: a fresh collector sees depth 0 again. *)
  let sink2, spans2 = Telemetry.Sink.memory () in
  with_collector ~sinks:[ sink2 ] (fun () ->
      Telemetry.with_span ~name:"after" ignore);
  match spans2 () with
  | [ s ] -> checki "depth restored" 0 s.Telemetry.Span.depth
  | _ -> Alcotest.fail "expected one span"

let test_jsonl_sink_format () =
  let path = Filename.temp_file "telemetry" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      with_collector
        ~sinks:[ Telemetry.Sink.jsonl_file path ]
        (fun () ->
          Telemetry.with_span ~name:"unit \"quoted\"" (fun () ->
              Telemetry.add "unit.counter" 1.0));
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      match List.rev !lines with
      | [ span_line; metrics_line ] ->
          checkb "span line" true
            (String.length span_line > 0
            && span_line.[0] = '{'
            && span_line.[String.length span_line - 1] = '}');
          checkb "span type" true
            (String.starts_with ~prefix:"{\"type\":\"span\"" span_line);
          checkb "metrics type" true
            (String.starts_with ~prefix:"{\"type\":\"metrics\"" metrics_line);
          checkb "escaped name" true
            (let sub = {|"unit \"quoted\""|} in
             let n = String.length sub in
             let found = ref false in
             for i = 0 to String.length span_line - n do
               if String.sub span_line i n = sub then found := true
             done;
             !found)
      | other -> Alcotest.failf "expected 2 lines, got %d" (List.length other))

(* --- traced simulation property -------------------------------------------- *)

let gen_spec st =
  let n = 1 + QCheck.Gen.int_bound 1 st in
  let horizon = 2 + QCheck.Gen.int_bound 4 st in
  let costs =
    Array.init n (fun _ ->
        let a = 0.5 +. QCheck.Gen.float_bound_exclusive 3.0 st in
        let b = QCheck.Gen.float_bound_inclusive 5.0 st in
        Cost.Func.affine ~a ~b)
  in
  let arrivals =
    Array.init (horizon + 1) (fun _ ->
        Array.init n (fun _ -> QCheck.Gen.int_bound 2 st))
  in
  let limit = 3.0 +. QCheck.Gen.float_bound_inclusive 10.0 st in
  Abivm.Spec.make ~costs ~limit ~arrivals

let arb_spec =
  QCheck.make
    ~print:(fun spec ->
      Printf.sprintf "n=%d T=%d C=%.2f" (Abivm.Spec.n_tables spec)
        (Abivm.Spec.horizon spec) (Abivm.Spec.limit spec))
    gen_spec

let prop_traced_simulate_consistent =
  QCheck.Test.make ~name:"traced Simulate.all: spans and totals line up"
    ~count:60 arb_spec (fun spec ->
      let sink, spans = Telemetry.Sink.memory () in
      let reports =
        with_collector ~sinks:[ sink ] (fun () -> Abivm.Simulate.all spec)
      in
      let spans = spans () in
      let strategy_spans = List.filter (fun (s : Telemetry.Span.t) -> s.name = "simulate.strategy") spans in
      List.length strategy_spans = List.length reports
      && List.for_all
           (fun (r : Abivm.Report.t) ->
             let name = Abivm.Report.name r in
             let action_spans =
               List.filter
                 (fun (s : Telemetry.Span.t) ->
                   s.name = "simulate.action"
                   && List.assoc_opt "strategy" s.attrs = Some name)
                 spans
             in
             (* One simulate.action span per plan action, and the booked
                per-strategy total matches the report. *)
             List.length action_spans = r.actions
             && Float.abs
                  (M.value r.telemetry
                     ~labels:[ ("strategy", name) ]
                     "simulate.total_cost"
                  -. r.total_cost)
                < 1e-6
             (* The report's telemetry delta also carries the per-action
                counter sum. *)
             && Float.abs
                  (M.value r.telemetry
                     ~labels:[ ("strategy", name) ]
                     "simulate.action_cost"
                  -. r.total_cost)
                < 1e-6)
           reports)

let prop_opt_lgm_reports_astar_counters =
  QCheck.Test.make ~name:"OPT-LGM report telemetry includes astar counters"
    ~count:30 arb_spec (fun spec ->
      let r =
        with_collector (fun () -> Abivm.Simulate.opt_lgm spec)
      in
      M.value r.Abivm.Report.telemetry "astar.expanded" > 0.0)

(* A --trace path that cannot be opened is a clean command-line error —
   a usage exit, not cmdliner's 125 for an uncaught exception — naming
   the option.  The path runs through a regular file, so opening it fails
   even with root privileges. *)
let test_cli_unwritable_trace () =
  let file = Filename.temp_file "abivm-trace" ".txt" in
  let path = Filename.concat file "trace.jsonl" in
  let ((out, inp, err) as proc) =
    Unix.open_process_args_full "../bin/abivm_cli.exe"
      [| "abivm"; "simulate"; "-C"; "50"; "-T"; "5"; "--cost"; "linear:1";
         "--stream"; "constant:1"; "--trace"; path |]
      (Unix.environment ())
  in
  close_out inp;
  ignore (In_channel.input_all out);
  let stderr = In_channel.input_all err in
  let status = Unix.close_process_full proc in
  Sys.remove file;
  match status with
  | Unix.WEXITED code ->
      checkb "non-zero exit" true (code <> 0);
      checkb "not the uncaught-exception exit" true (code <> 125);
      checkb "message names --trace" true
        (String.starts_with ~prefix:"abivm: --trace: " stderr)
  | _ -> Alcotest.fail "abivm killed by a signal"

let () =
  Alcotest.run "telemetry"
    [
      ( "metrics",
        [
          Alcotest.test_case "counter" `Quick test_counter_semantics;
          Alcotest.test_case "gauge" `Quick test_gauge_semantics;
          Alcotest.test_case "histogram" `Quick test_histogram_semantics;
          Alcotest.test_case "collisions" `Quick test_kind_and_label_collisions;
          Alcotest.test_case "label order" `Quick test_labels_order_insensitive;
          Alcotest.test_case "snapshot diff" `Quick test_snapshot_diff;
        ] );
      ( "collector",
        [
          Alcotest.test_case "disabled no-op" `Quick test_disabled_is_noop;
          Alcotest.test_case "spans nest" `Quick test_spans_record_nesting_and_deltas;
          Alcotest.test_case "exception safety" `Quick test_span_survives_exception;
          Alcotest.test_case "maintainer recompute spans" `Quick
            test_maintainer_recompute_spans;
          Alcotest.test_case "jsonl format" `Quick test_jsonl_sink_format;
          Alcotest.test_case "cli --trace unwritable" `Quick
            test_cli_unwritable_trace;
        ] );
      ( "properties",
        [
          QCheck_alcotest.to_alcotest prop_traced_simulate_consistent;
          QCheck_alcotest.to_alcotest prop_opt_lgm_reports_astar_counters;
        ] );
    ]
