(* Tests for the durability subsystem (lib/durable): CRC-framed, tagged
   log records, the group log's segment rotation and torn-tail repair,
   checkpoint and manifest round-trips, and the acceptance scenario —
   the crash matrix: killing the executor at *every* crash point it
   announces, then recovering, must reproduce the uninterrupted run's
   final view contents and total cost bit for bit. *)

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

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
      (Printf.sprintf "abivm-durable-%d-%d" (Unix.getpid ()) !scratch_counter)
  in
  rmtree dir;
  dir

let contains ~sub s =
  let n = String.length sub in
  let rec go i =
    i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
  in
  go 0

(* --- records -------------------------------------------------------------- *)

let sample_change =
  Ivm.Change.Insert [| Relation.Value.Int 7; Relation.Value.Str "x\ty\nz" |]

let test_record_roundtrip () =
  List.iter
    (fun r ->
      let tagged = Durable.Record.Tenant ("t0", r) in
      match Durable.Record.of_tagged_line (Wal_line.line tagged) with
      | Ok tagged' -> checkb "record survives its line" true (tagged = tagged')
      | Error e -> Alcotest.failf "roundtrip failed: %s" e)
    [
      Durable.Record.Arrival { time = 0; table = 1; change = sample_change };
      Durable.Record.Applied { time = 3; table = 0; count = 5; cost = 12.25 };
      Durable.Record.Applied
        { time = 9; table = 1; count = 1; cost = 0.30000000000000004 };
    ]

let test_record_crc_rejects_flips () =
  let line =
    Wal_line.line
      (Durable.Record.Tenant
         ("t0", Durable.Record.Applied { time = 3; table = 0; count = 5; cost = 12.25 }))
  in
  (* Flip one payload byte; the CRC must catch it. *)
  let tampered = Bytes.of_string line in
  Bytes.set tampered (String.length line - 1) '9';
  (match Durable.Record.of_tagged_line (Bytes.to_string tampered) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "tampered payload decoded");
  (* Correctly-framed garbage is rejected by the payload parser. *)
  let body = "t0\tP\t1\t0\t0\t0" in
  let framed = Printf.sprintf "%08lx\t%s" (Durable.Record.crc32 body) body in
  match Durable.Record.of_tagged_line framed with
  | Error _ -> () (* count must be positive *)
  | Ok _ -> Alcotest.fail "zero-count applied record decoded"

(* The buffer encoder against the Printf encoder it replaced
   (test/record_oracle.ml): every value the codec has a case for, the
   float and int edges, strings full of the bytes it escapes, costs with
   the sign bit set, and every record kind. *)
let to_alcotest = QCheck_alcotest.to_alcotest

let edge_floats =
  [
    nan; -.nan; Int64.float_of_bits 0x7FF0000000000123L;
    Int64.float_of_bits 0xFFF4000000000000L; 0.; -0.; infinity; neg_infinity;
    5e-324; -5e-324; Int64.float_of_bits 0x000FFFFFFFFFFFFFL; min_float;
    max_float; 1.5; -2.25; 0.1;
  ]

let gen_float =
  QCheck.Gen.(
    frequency
      [ (2, oneofl edge_floats); (1, float); (1, map Int64.float_of_bits int64) ])

let gen_value =
  let open QCheck.Gen in
  let nasty = oneofl [ '\t'; '\n'; '\r'; '\\'; ':'; ','; '>'; '-'; 'a'; '0' ] in
  frequency
    [
      (3, map (fun x -> Relation.Value.Int x)
           (oneof [ oneofl [ min_int; max_int; 0; -1; 1; -10 ]; int ]));
      (3, map (fun x -> Relation.Value.Float x) gen_float);
      (3, map (fun s -> Relation.Value.Str s)
           (oneof [ string_size ~gen:nasty (int_range 0 8); oneofl [ ""; "->"; "()" ] ]));
      (1, map (fun b -> Relation.Value.Bool b) bool);
      (1, return Relation.Value.Null);
    ]

let gen_tuple = QCheck.Gen.(array_size (int_range 0 4) gen_value)

let gen_change =
  QCheck.Gen.(
    oneof
      [
        map (fun t -> Ivm.Change.Insert t) gen_tuple;
        map (fun t -> Ivm.Change.Delete t) gen_tuple;
        map2 (fun before after -> Ivm.Change.Update { before; after }) gen_tuple gen_tuple;
      ])

let gen_record =
  let open QCheck.Gen in
  let small = oneof [ int_range 0 20; oneofl [ 0; max_int ]; nat ] in
  oneof
    [
      map2
        (fun (time, table) change -> Durable.Record.Arrival { time; table; change })
        (pair small small) gen_change;
      map2
        (fun (time, table, count) cost ->
          Durable.Record.Applied { time; table; count; cost })
        (triple small small (map succ small)) gen_float;
    ]

let gen_tagged =
  let open QCheck.Gen in
  let coflush =
    map2
      (fun round rows -> Durable.Record.Coflush { round; rows })
      nat
      (list_size (int_range 1 3)
         (pair (oneofl [ "t0"; "t-1"; "fleet.a" ])
            (array_size (int_range 0 3) (oneof [ nat; oneofl [ 0; max_int ] ]))))
  in
  frequency
    [
      (4, map2 (fun tag r -> Durable.Record.Tenant (tag, r))
           (oneofl [ "t0"; "exec"; "tenant_07" ]) gen_record);
      (1, coflush);
    ]

let add_line_bytes tagged =
  let buf = Buffer.create 16 in
  Durable.Record.add_line buf tagged;
  Buffer.contents buf

let prop_line_matches_oracle =
  QCheck.Test.make ~count:2000 ~name:"add_line = the Printf encoder, byte for byte"
    (QCheck.make
       ~print:(fun t -> String.escaped (Record_oracle.to_tagged_line t))
       gen_tagged)
    (fun tagged ->
      add_line_bytes tagged = Record_oracle.to_tagged_line tagged ^ "\n")

(* A record and a near miss: the same record rebuilt, or one field moved
   by the least the encoding can still see (a sign bit, an ulp, another
   NaN, an int for a float, a kind). *)
let gen_pair =
  let open QCheck.Gen in
  let near_float x =
    oneofl
      [
        x; -.x; Float.succ x; Float.pred x; nan; -.nan;
        Int64.float_of_bits (Int64.logxor (Int64.bits_of_float x) 1L);
      ]
  in
  let near_value (v : Relation.Value.t) =
    match v with
    | Float x -> oneof [ map (fun y -> Relation.Value.Float y) (near_float x);
                         return (Relation.Value.Int (Float.to_int x)) ]
    | Int x ->
        oneofl [ v; Relation.Value.Int (x + 1); Relation.Value.Float (float_of_int x) ]
    | Str s ->
        oneofl [ v; Relation.Value.Str (s ^ "\r"); Relation.Value.Str (String.escaped s) ]
    | Bool b ->
        oneofl [ v; Relation.Value.Bool (not b); Relation.Value.Str (string_of_bool b) ]
    | Null -> oneofl [ v; Relation.Value.Str "null" ]
  in
  let near_tuple t =
    if Array.length t = 0 then oneofl [ t; [| Relation.Value.Null |] ]
    else
      int_bound (Array.length t - 1) >>= fun i ->
      near_value t.(i) >|= fun v ->
      let t' = Array.copy t in
      t'.(i) <- v;
      t'
  in
  let near (r : Durable.Record.t) =
    match r with
    | Arrival ({ change; _ } as a) ->
        let change' =
          match change with
          | Insert t -> oneof [ map (fun t -> Ivm.Change.Insert t) (near_tuple t);
                                return (Ivm.Change.Delete t) ]
          | Delete t -> map (fun t -> Ivm.Change.Delete t) (near_tuple t)
          | Update { before; after } ->
              oneof
                [
                  map
                    (fun before -> Ivm.Change.Update { before; after })
                    (near_tuple before);
                  return (Ivm.Change.Update { before = after; after = before });
                ]
        in
        oneof
          [
            map (fun change -> Durable.Record.Arrival { a with change }) change';
            return (Durable.Record.Arrival { a with time = a.time + 1 });
          ]
    | Applied p ->
        oneof
          [
            map (fun cost -> Durable.Record.Applied { p with cost }) (near_float p.cost);
            return (Durable.Record.Applied { p with count = p.count + 1 });
            return (Durable.Record.Arrival { time = p.time; table = p.table;
                                             change = Insert [||] });
          ]
  in
  gen_record >>= fun a -> near a >|= fun b -> (a, b)

let prop_equal_is_payload_equality =
  QCheck.Test.make ~count:3000 ~name:"Record.equal = payload equality"
    (QCheck.make
       ~print:(fun (a, b) ->
         String.escaped (Record_oracle.payload a) ^ " / "
         ^ String.escaped (Record_oracle.payload b))
       gen_pair)
    (fun (a, b) ->
      Durable.Record.equal a b = (Wal_line.payload a = Wal_line.payload b))

(* Every pair of edge floats, as a value and as a cost: NaNs of one sign
   encode alike as values but not as costs, and [0.] is not [-0.]. *)
let test_equal_on_float_edges () =
  let arrival x =
    Durable.Record.Arrival
      { time = 0; table = 0; change = Insert [| Relation.Value.Float x |] }
  and applied cost = Durable.Record.Applied { time = 0; table = 0; count = 1; cost } in
  List.iter
    (fun x ->
      List.iter
        (fun y ->
          List.iter
            (fun make ->
              let a = make x and b = make y in
              if
                Durable.Record.equal a b
                <> (Wal_line.payload a = Wal_line.payload b)
              then
                Alcotest.failf "equal disagrees with the payloads %S and %S"
                  (Wal_line.payload a) (Wal_line.payload b))
            [ arrival; applied ])
        edge_floats)
    edge_floats

(* A 3-column Synth arrival, the serve fleet's commonest record: the
   Printf encoder took 285 minor words a line. *)
let test_line_minor_words () =
  let tagged =
    Durable.Record.Tenant
      ( "t3",
        Durable.Record.Arrival
          {
            time = 1234;
            table = 1;
            change =
              Ivm.Change.Insert
                [| Relation.Value.Int 1_000_000_017; Relation.Value.Int 4321;
                   Relation.Value.Float 57.123456789 |];
          } )
  in
  let buf = Buffer.create 256 in
  Durable.Record.add_line buf tagged;
  let lines = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to lines do
    Buffer.clear buf;
    Durable.Record.add_line buf tagged
  done;
  let per_line = (Gc.minor_words () -. w0) /. float_of_int lines in
  if per_line > 40. then
    Alcotest.failf "a 3-column arrival line allocated %.1f minor words" per_line

(* --- WAL ------------------------------------------------------------------ *)

let arrival t i k =
  Durable.Record.Arrival
    { time = t; table = i; change = Ivm.Change.Insert [| Relation.Value.Int k |] }

(* The log's segment rules, driven through one tenant's handle. *)
let read_ok ~dir ~from_lsn =
  match Durable.Groupwal.read ~dir ~from_lsn with
  | Ok { Durable.Groupwal.tenants = [ ("t0", records) ]; coflushes = [] } -> records
  | Ok { Durable.Groupwal.tenants = []; coflushes = [] } -> []
  | Ok _ -> Alcotest.fail "Groupwal.read: unexpected tags"
  | Error e -> Alcotest.failf "Groupwal.read: %s" e

(* The log at [dir], opened from genesis; a refusal fails the test. *)
let open_log ?segment_bytes ?hook dir =
  match Durable.Groupwal.open_ ~dir ?segment_bytes ?hook ~from_lsn:0 () with
  | Ok (gw, _) -> gw
  | Error e -> Alcotest.failf "Groupwal.open_: %s" e

(* A one-tenant log at [dir]: the log and a "t0" handle on it. *)
let open_t0 ?segment_bytes ?hook ?policy dir =
  let gw = open_log ?segment_bytes ?hook dir in
  (gw, Durable.Groupwal.attach gw ~tenant:"t0" ?policy ())

(* Commit one arrival per step [t] in [from..upto], table 0, then close
   the window. *)
let commit_steps_open ?(from = 0) h upto =
  for t = from to upto do
    Durable.Groupwal.append h (arrival t 0 t);
    Durable.Groupwal.commit h
  done

let commit_steps ?from (gw, h) upto =
  commit_steps_open ?from h upto;
  ignore (Durable.Groupwal.close_window gw)

let segment_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".seg")
  |> List.sort compare |> List.map (Filename.concat dir)

let last_segment dir = List.hd (List.rev (segment_files dir))

let test_wal_roundtrip_rotation () =
  let dir = scratch () in
  let gw, h = open_t0 ~segment_bytes:256 dir in
  for t = 0 to 19 do
    Durable.Groupwal.append h (arrival t 0 t);
    Durable.Groupwal.append h (arrival t 1 t);
    Durable.Groupwal.commit h
  done;
  checki "lsn counts committed records" 40 (Durable.Groupwal.lsn gw);
  Durable.Groupwal.close gw;
  (* A clean close flushes the open window. *)
  checki "all records read back" 40 (List.length (read_ok ~dir ~from_lsn:0));
  checki "from_lsn filters globally" 5 (List.length (read_ok ~dir ~from_lsn:35));
  checkb "256-byte budget forced rotations" true
    (List.length (segment_files dir) > 1);
  let gw2 = open_log dir in
  checki "reopen continues at the same lsn" 40 (Durable.Groupwal.lsn gw2);
  Durable.Groupwal.close gw2;
  rmtree dir

let test_wal_group_commit_window () =
  (* Under Interval 3, commits 1-3 are written at the third commit;
     commit 4 sits in the open window.  Abandoning the log (= crash) must
     lose exactly the unflushed window. *)
  let dir = scratch () in
  let gw, h = open_t0 ~policy:(Durable.Wal.Interval 3) dir in
  for t = 0 to 3 do
    Durable.Groupwal.append h (arrival t 0 t);
    Durable.Groupwal.commit h
  done;
  checki "handle lsn includes the in-memory tail" 4 (Durable.Groupwal.lsn gw);
  Durable.Groupwal.abandon gw;
  checki "only the fsynced prefix survives" 3
    (List.length (read_ok ~dir ~from_lsn:0));
  let gw2 = open_log dir in
  checki "reopen sees the surviving prefix" 3 (Durable.Groupwal.lsn gw2);
  Durable.Groupwal.close gw2;
  rmtree dir

let test_wal_torn_tail_repair () =
  let dir = scratch () in
  let gw, h = open_t0 dir in
  commit_steps (gw, h) 4;
  Durable.Groupwal.close gw;
  let seg = last_segment dir in
  let intact_size = (Unix.stat seg).Unix.st_size in
  (* A torn final write: half a record, no trailing newline. *)
  let oc = open_out_gen [ Open_append ] 0o644 seg in
  output_string oc "deadbeef\tt0\tA\t9\t0\ti:4";
  close_out oc;
  checki "read tolerates the torn tail" 5 (List.length (read_ok ~dir ~from_lsn:0));
  let truncations = ref [] in
  let gw2 =
    open_log dir
      ~hook:(function
        | Durable.Hook.Truncated { upto } -> truncations := upto :: !truncations
        | _ -> ())
  in
  checki "repair keeps every intact record" 5 (Durable.Groupwal.lsn gw2);
  Durable.Groupwal.close gw2;
  checkb "repair fired Truncated" true (!truncations = [ 5 ]);
  checki "torn bytes physically removed" intact_size
    (Unix.stat seg).Unix.st_size;
  rmtree dir

let test_wal_tail_missing_newline () =
  let dir = scratch () in
  let gw, h = open_t0 dir in
  commit_steps (gw, h) 4;
  Durable.Groupwal.close gw;
  (* A tear that swallows exactly the terminating newline: the final
     record still decodes, so no truncation is due — but reopening for
     append must not merge the next record onto the same line. *)
  let seg = last_segment dir in
  let size = (Unix.stat seg).Unix.st_size in
  let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - 1);
  Unix.close fd;
  let gw2, h2 = open_t0 dir in
  checki "unterminated final record still counts" 5 (Durable.Groupwal.lsn gw2);
  commit_steps ~from:5 (gw2, h2) 5;
  Durable.Groupwal.close gw2;
  checki "repaired tail keeps records apart" 6
    (List.length (read_ok ~dir ~from_lsn:0));
  let gw3 = open_log dir in
  checki "reopen agrees" 6 (Durable.Groupwal.lsn gw3);
  Durable.Groupwal.close gw3;
  rmtree dir

let test_wal_gap_refused () =
  let dir = scratch () in
  let gw, h = open_t0 ~segment_bytes:128 dir in
  commit_steps (gw, h) 11;
  (* Drop the oldest segments, then ask for records from before the
     surviving ones: the gap must be an error, not a silent skip. *)
  Durable.Groupwal.truncate_before gw 8;
  Durable.Groupwal.close gw;
  (match Durable.Groupwal.read ~dir ~from_lsn:0 with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "read silently skipped a truncated gap");
  checki "reads past the gap still work" 1
    (List.length (read_ok ~dir ~from_lsn:11));
  rmtree dir

(* Every file of [dir] with its bytes, by name. *)
let snapshot dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.map (fun f ->
         let path = Filename.concat dir f in
         let ic = open_in_bin path in
         let bytes = really_input_string ic (in_channel_length ic) in
         close_in ic;
         (f, bytes))

(* [read] and [open_] run one chain scan, so on every kind of damage they
   must agree: the same records, or an [Error] from both.  A refused
   [open_] must leave every segment byte for byte as it found it. *)
let test_wal_mid_log_corruption_refused () =
  let overwrite path ~at text =
    let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
    ignore (Unix.lseek fd at Unix.SEEK_SET);
    ignore (Unix.write_substring fd text 0 (String.length text));
    Unix.close fd
  in
  let tear dir =
    let oc = open_out_gen [ Open_append ] 0o644 (last_segment dir) in
    output_string oc "deadbeef\tt0\tA\t9\t0\ti:4";
    close_out oc
  in
  let cases =
    [
      ("torn last line", true, tear);
      ( "last record missing its newline",
        true,
        fun dir ->
          let seg = last_segment dir in
          let size = (Unix.stat seg).Unix.st_size in
          let fd = Unix.openfile seg [ Unix.O_WRONLY ] 0o644 in
          Unix.ftruncate fd (size - 1);
          Unix.close fd );
      ( "bad CRC mid-log",
        false,
        fun dir -> overwrite (List.hd (segment_files dir)) ~at:3 "X" );
      (* The torn tail must not be cut before the chain is refused. *)
      ( "bad CRC mid-log and a torn last line",
        false,
        fun dir ->
          overwrite (List.hd (segment_files dir)) ~at:3 "X";
          tear dir );
      ( "broken chain",
        false,
        fun dir -> Sys.remove (List.nth (segment_files dir) 1) );
      ( "from_lsn gap",
        false,
        fun dir ->
          let gw = open_log ~segment_bytes:128 dir in
          Durable.Groupwal.truncate_before gw 8;
          Durable.Groupwal.close gw );
    ]
  in
  List.iter
    (fun (what, accepted, damage) ->
      let dir = scratch () in
      let gw, h = open_t0 ~segment_bytes:128 dir in
      commit_steps (gw, h) 12;
      Durable.Groupwal.close gw;
      checkb (what ^ ": several segments, the last one not empty") true
        (List.length (segment_files dir) > 2
        && (Unix.stat (last_segment dir)).Unix.st_size > 0);
      damage dir;
      let before = snapshot dir in
      let read = Durable.Groupwal.read ~dir ~from_lsn:0 in
      checkb (what ^ ": read leaves the files alone") true
        (snapshot dir = before);
      (match (read, Durable.Groupwal.open_ ~dir ~from_lsn:0 ()) with
      | Ok contents, Ok (gw, opened) ->
          checki (what ^ ": every intact record kept") 13
            (Durable.Groupwal.lsn gw);
          Durable.Groupwal.close gw;
          checkb (what ^ ": accepted") true accepted;
          checkb (what ^ ": open_ returns what read returns") true
            (contents = opened)
      | Error e, Error e' ->
          checkb (what ^ ": refused") false accepted;
          checks (what ^ ": the same error") e e';
          checkb (what ^ ": a refused open_ leaves every byte") true
            (snapshot dir = before)
      | Ok _, Error e -> Alcotest.failf "%s: only open_ refused: %s" what e
      | Error e, Ok (gw, _) ->
          Durable.Groupwal.close gw;
          Alcotest.failf "%s: only read refused: %s" what e);
      rmtree dir)
    cases

(* --- shared group-commit log ---------------------------------------------- *)

let group_contents_ok ~dir =
  match Durable.Groupwal.read ~dir ~from_lsn:0 with
  | Ok contents -> contents
  | Error e -> Alcotest.failf "Groupwal.read: %s" e

let group_read_ok ~dir = (group_contents_ok ~dir).Durable.Groupwal.tenants

let group_total per_tenant =
  List.fold_left (fun acc (_, rs) -> acc + List.length rs) 0 per_tenant

let test_groupwal_demux_roundtrip () =
  let dir = scratch () in
  let gw = open_log dir in
  let a = Durable.Groupwal.attach gw ~tenant:"t0" () in
  let b = Durable.Groupwal.attach gw ~tenant:"t1" () in
  (* Interleave the two tenants' commits inside one window — each
     tenant's own order must survive the physical interleaving, and one
     window close makes all ten commits durable at once. *)
  let coflush =
    {
      Durable.Record.round = 3;
      rows = [ ("t0", [| 2; 0 |]); ("t1", [| 1; 4 |]) ];
    }
  in
  for t = 0 to 4 do
    Durable.Groupwal.append a (arrival t 0 t);
    Durable.Groupwal.append b (arrival t 1 (100 + t));
    Durable.Groupwal.commit b;
    (* b commits first: demux order is first physical appearance *)
    Durable.Groupwal.commit a;
    (* A service record rides the same window, under its own tag. *)
    if t = 3 then Durable.Groupwal.commit_coflush gw coflush
  done;
  checkb "window close reports an fsync" true (Durable.Groupwal.close_window gw);
  checkb "closing an empty window is free" false
    (Durable.Groupwal.close_window gw);
  checki "one fsync for ten commits" 1 (Durable.Groupwal.window_closes gw);
  checki "nothing was forced" 0 (Durable.Groupwal.forced_closes gw);
  Durable.Groupwal.close gw;
  let expect table base = List.init 5 (fun t -> arrival t table (base + t)) in
  (match group_read_ok ~dir with
  | [ (n1, r1); (n0, r0) ] ->
      checks "first-appearance tenant order" "t1" n1;
      checks "second tenant" "t0" n0;
      checkb "t1 records in commit order" true (r1 = expect 1 100);
      checkb "t0 records in commit order" true (r0 = expect 0 0)
  | per ->
      Alcotest.failf "unexpected demux shape (%d tenants)" (List.length per));
  checkb "service record demuxed apart" true
    ((group_contents_ok ~dir).Durable.Groupwal.coflushes = [ coflush ]);
  rmtree dir

let test_groupwal_abandon_loses_window () =
  let dir = scratch () in
  let gw = open_log dir in
  let a = Durable.Groupwal.attach gw ~tenant:"t0" () in
  let b = Durable.Groupwal.attach gw ~tenant:"t1" () in
  Durable.Groupwal.append a (arrival 0 0 1);
  Durable.Groupwal.commit a;
  Durable.Groupwal.append b (arrival 0 1 2);
  Durable.Groupwal.commit b;
  ignore (Durable.Groupwal.close_window gw);
  (* A second window accumulates commits from both tenants, then the
     process dies: every tenant loses exactly its tail of the open
     window, nothing more. *)
  Durable.Groupwal.append a (arrival 1 0 3);
  Durable.Groupwal.commit a;
  Durable.Groupwal.append b (arrival 1 1 4);
  Durable.Groupwal.commit b;
  checki "handle lsn counts the open window" 4 (Durable.Groupwal.lsn gw);
  Durable.Groupwal.abandon gw;
  let per = group_read_ok ~dir in
  checki "both tenants present" 2 (List.length per);
  List.iter
    (fun (n, rs) ->
      checki (n ^ " keeps only the closed window") 1 (List.length rs))
    per;
  rmtree dir

let test_groupwal_forced_close_policy () =
  let dir = scratch () in
  let gw = open_log dir in
  let lax = Durable.Groupwal.attach gw ~tenant:"lax" () in
  let strict =
    Durable.Groupwal.attach gw ~tenant:"strict" ~policy:Durable.Wal.Always ()
  in
  (* The lax tenant's pending commit rides the strict tenant's forced
     fsync: abandoning right after must lose neither. *)
  Durable.Groupwal.append lax (arrival 0 0 1);
  Durable.Groupwal.commit lax;
  Durable.Groupwal.append strict (arrival 0 1 2);
  Durable.Groupwal.commit strict;
  checki "strict commit forced the close" 1 (Durable.Groupwal.forced_closes gw);
  checki "forced closes count as window closes" 1
    (Durable.Groupwal.window_closes gw);
  Durable.Groupwal.abandon gw;
  checki "both records rode the forced fsync" 2 (group_total (group_read_ok ~dir));
  rmtree dir;
  (* Interval k forces every k-th commit of that tenant only. *)
  let dir = scratch () in
  let gw = open_log dir in
  let every2 =
    Durable.Groupwal.attach gw ~tenant:"t0" ~policy:(Durable.Wal.Interval 2) ()
  in
  for t = 0 to 5 do
    Durable.Groupwal.append every2 (arrival t 0 t);
    Durable.Groupwal.commit every2
  done;
  checki "every second commit forces" 3 (Durable.Groupwal.forced_closes gw);
  (* A seventh commit waits for the eighth: a crash keeps the six the
     forced closes covered. *)
  commit_steps_open ~from:6 every2 6;
  Durable.Groupwal.abandon gw;
  checki "a crash keeps the forced prefix" 6 (group_total (group_read_ok ~dir));
  let gw = open_log dir in
  (match Durable.Groupwal.attach gw ~tenant:"t1" ~policy:(Durable.Wal.Interval 0) () with
  | _ -> Alcotest.fail "Interval 0 accepted at attach"
  | exception Invalid_argument _ -> ());
  (match Durable.Groupwal.attach gw ~tenant:"no/slashes here" () with
  | _ -> Alcotest.fail "invalid tenant name accepted"
  | exception Invalid_argument _ -> ());
  Durable.Groupwal.close gw;
  rmtree dir

let test_groupwal_torn_tail_and_rehoming () =
  let dir = scratch () in
  (* Small segments force rotation: tag-tampering below must land in a
     non-final segment, where damage is corruption (refused), not a torn
     tail (repaired). *)
  let gw = open_log ~segment_bytes:256 dir in
  let a = Durable.Groupwal.attach gw ~tenant:"t0" () in
  let b = Durable.Groupwal.attach gw ~tenant:"t1" () in
  for t = 0 to 7 do
    Durable.Groupwal.append a (arrival t 0 t);
    Durable.Groupwal.commit a;
    Durable.Groupwal.append b (arrival t 1 t);
    Durable.Groupwal.commit b;
    if t = 0 then
      Durable.Groupwal.commit_coflush gw
        { Durable.Record.round = 0; rows = [ ("t0", [| 1; 1 |]) ] }
  done;
  ignore (Durable.Groupwal.close_window gw);
  Durable.Groupwal.close gw;
  (* A torn final write (half a tagged record, no newline) must not cost
     any intact record of any tenant. *)
  let last_seg = last_segment dir in
  let oc = open_out_gen [ Open_append ] 0o644 last_seg in
  output_string oc "deadbeef\tt0\tA\t9";
  close_out oc;
  checki "torn tail tolerated, all records kept" 16
    (group_total (group_read_ok ~dir));
  (* Re-homing: flip one record's tenant tag to another (valid) tenant.
     The CRC covers the tag, so the tampered line must be refused
     outright — a record can never silently migrate between tenants. *)
  let first_seg = List.hd (segment_files dir) in
  checkb "setup produced multiple segments" true (first_seg <> last_seg);
  let ic = open_in_bin first_seg in
  let content = really_input_string ic (in_channel_length ic) in
  close_in ic;
  (* Each tamper edits the intact segment afresh: the key is an
     occurrence to find, then the bytes to write over it. *)
  let tamper ~what key replacement =
    let bytes = Bytes.of_string content in
    let n = String.length key in
    let rec find i =
      if i + n > Bytes.length bytes then
        Alcotest.failf "%s: no %S in the segment" what key
      else if Bytes.sub_string bytes i n = key then i
      else find (i + 1)
    in
    Bytes.blit_string replacement 0 bytes (find 0) (String.length replacement);
    let oc = open_out_bin first_seg in
    output_bytes oc bytes;
    close_out oc;
    match Durable.Groupwal.read ~dir ~from_lsn:0 with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s replayed as Ok" what
  in
  tamper ~what:"re-homed tenant tag" "\tt0\t" "\tt1\t";
  (* The service tag is under the CRC too: a co-flush record cannot pose
     as a tenant's. *)
  tamper ~what:"service record re-homed to a tenant" "\t@service\t"
    "\tservice0\t";
  rmtree dir

(* [read ~from_lsn] after a truncation returns exactly the records from
   [from_lsn] on when the first surviving segment starts at or below it,
   and refuses anything below that segment. *)
let test_groupwal_read_after_truncation () =
  let dir = scratch () in
  let gw, h = open_t0 ~segment_bytes:128 dir in
  commit_steps (gw, h) 19;
  Durable.Groupwal.truncate_before gw 12;
  let first =
    match segment_files dir with
    | seg :: _ :: _ -> int_of_string (String.sub (Filename.basename seg) 4 12)
    | _ -> Alcotest.fail "truncation left fewer than two segments"
  in
  checkb "truncation dropped a segment" true (first > 0 && first <= 12);
  Durable.Groupwal.close gw;
  List.iter
    (fun from_lsn ->
      checkb
        (Printf.sprintf "tail from %d" from_lsn)
        true
        (read_ok ~dir ~from_lsn
        = List.init (20 - from_lsn) (fun i ->
              arrival (from_lsn + i) 0 (from_lsn + i))))
    [ first; 12; 19; 20 ];
  (match Durable.Groupwal.read ~dir ~from_lsn:(first - 1) with
  | Error e -> checkb "the error names the gap" true (contains ~sub:"gap" e)
  | Ok _ -> Alcotest.fail "read below the first surviving segment");
  rmtree dir

(* --- checkpoint + manifest ------------------------------------------------ *)

let small_maintainer () =
  let db = Tpcr.Synth.generate ~seed:3 ~r_rows:40 ~s_rows:40 () in
  let m =
    Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter (Tpcr.Synth.join_view db)
  in
  Relation.Meter.reset db.Tpcr.Synth.meter;
  (m, Tpcr.Synth.insert_feeds ~seed:4 db)

let sorted_rows rows = List.sort Relation.Tuple.compare rows

(* A one-table maintainer over every column type: tombstones, NULLs,
   repeated strings, ints in the float column (one past 2^53, which only
   the exact side table holds), and hash indexes on [k] and [s]. *)
let mixed_schema =
  Relation.Schema.make
    [
      ("k", Relation.Datatype.TInt);
      ("f", Relation.Datatype.TFloat);
      ("s", Relation.Datatype.TString);
      ("b", Relation.Datatype.TBool);
    ]

let mixed_row i =
  let open Relation.Value in
  [|
    (if i mod 11 = 5 then Null else Int i);
    (match i mod 4 with
    | 0 -> Float (float_of_int i /. 8.)
    | 1 -> Int i
    | 2 -> Null
    | _ -> Int ((1 lsl 60) + i));
    (if i mod 9 = 4 then Null else Str (Printf.sprintf "s%d" (i mod 5)));
    (if i mod 6 = 1 then Null else Bool (i mod 3 = 0));
  |]

let mixed_maintainer ~rows =
  let tbl = Relation.Table.create ~name:"mixed" ~schema:mixed_schema () in
  for i = 0 to rows - 1 do
    ignore (Relation.Table.insert tbl (mixed_row i))
  done;
  for row = 0 to rows - 1 do
    if row mod 7 = 3 then ignore (Relation.Table.delete_row tbl row)
  done;
  Relation.Table.create_index tbl "k";
  Relation.Table.create_index tbl "s";
  let view =
    Ivm.Viewdef.make ~name:"mixed_count" ~tables:[| tbl |] ~join:[]
      ~aggs:[ Relation.Agg.count "n" ] ()
  in
  let m = Ivm.Maintainer.create ~meter:(Relation.Table.meter tbl) view in
  Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert (mixed_row 1000));
  (m, tbl)

let capture_of m =
  Durable.Checkpoint.capture ~lsn:4 ~next_step:3 ~cost:1.5 ~draws:[| 3 |]
    ~params:[ ("note", "tabs\tand\nnewlines") ] m

let load_ok path =
  match Durable.Checkpoint.load path with
  | Ok t -> t
  | Error e -> Alcotest.failf "load %s: %s" path e

(* Two tables agree row by row, id by id, and index by index. *)
let check_same_table label (want : Relation.Table.t) (got : Relation.Table.t) =
  checki (label ^ ": live rows") (Relation.Table.row_count want)
    (Relation.Table.row_count got);
  for row = 0 to Relation.Table.row_count want do
    if Relation.Table.get_row want row <> Relation.Table.get_row got row then
      Alcotest.failf "%s: row id %d differs" label row
  done;
  Array.iteri
    (fun pos (c : Relation.Schema.column) ->
      let name = c.Relation.Schema.name in
      checkb (label ^ ": index on " ^ name) (Relation.Table.has_index want name)
        (Relation.Table.has_index got name);
      (* Every key's bucket: the same row ids, in the same order. *)
      if Relation.Table.has_index want name then
        List.iter
          (fun row ->
            let key = Relation.Tuple.get row pos in
            let bucket t =
              let ids = ref [] in
              Relation.Table.iter_ids t name key (fun id -> ids := id :: !ids);
              List.rev !ids
            in
            if bucket want <> bucket got then
              Alcotest.failf "%s: index on %s, bucket of %s differs" label name
                (Relation.Value.to_string key))
          (Relation.Table.to_list_unmetered want))
    (Relation.Schema.columns (Relation.Table.schema want))

(* The table a row-by-row reload of [tbl]'s live rows builds. *)
let reinserted tbl =
  let copy =
    Relation.Table.create ~name:(Relation.Table.name tbl)
      ~schema:(Relation.Table.schema tbl) ()
  in
  List.iter
    (fun row -> ignore (Relation.Table.insert copy row))
    (Relation.Table.to_list_unmetered tbl);
  Array.iter
    (fun (c : Relation.Schema.column) ->
      if Relation.Table.has_index tbl c.Relation.Schema.name then
        Relation.Table.create_index copy c.Relation.Schema.name)
    (Relation.Schema.columns (Relation.Table.schema tbl));
  copy

let test_checkpoint_roundtrip () =
  let m, feeds = small_maintainer () in
  (* Leave a non-trivial state: queued deltas on both tables, some
     already processed. *)
  for _ = 1 to 6 do
    Ivm.Maintainer.on_arrive m 0 (feeds.Tpcr.Updates.next 0);
    Ivm.Maintainer.on_arrive m 1 (feeds.Tpcr.Updates.next 1)
  done;
  ignore (Ivm.Maintainer.process m 0 4);
  let params = [ ("seed", "3"); ("note", "tabs\tand\nnewlines") ] in
  let t =
    Durable.Checkpoint.capture ~lsn:17 ~next_step:5 ~cost:123.456
      ~draws:[| 6; 6 |] ~params m
  in
  let dir = scratch () in
  Unix.mkdir dir 0o755;
  let name = Durable.Checkpoint.write ~dir t in
  checks "filename embeds the lsn" "ckpt-000000000017.ckpt" name;
  let t' = load_ok (Filename.concat dir name) in
  checki "lsn" t.Durable.Checkpoint.lsn t'.Durable.Checkpoint.lsn;
  checki "next_step" t.Durable.Checkpoint.next_step t'.Durable.Checkpoint.next_step;
  checkb "cost bits exact" true
    (Int64.bits_of_float t.Durable.Checkpoint.cost
    = Int64.bits_of_float t'.Durable.Checkpoint.cost);
  checkb "draws" true (t.Durable.Checkpoint.draws = t'.Durable.Checkpoint.draws);
  checkb "params (with escapes)" true
    (t.Durable.Checkpoint.params = t'.Durable.Checkpoint.params);
  checkb "pending queues" true
    (t.Durable.Checkpoint.pending = t'.Durable.Checkpoint.pending);
  checkb "view rows" true
    (t.Durable.Checkpoint.view_rows = t'.Durable.Checkpoint.view_rows);
  let live = Ivm.Viewdef.tables (Ivm.Maintainer.view m) in
  let tables = Durable.Checkpoint.restore_tables t' in
  checki "tables restored" 2 (Array.length tables);
  (* Synth indexes r.jk; the restored table must agree. *)
  checkb "hash index restored" true (Relation.Table.has_index tables.(0) "jk");
  Array.iteri
    (fun i tbl -> check_same_table (Printf.sprintf "table %d" i) (reinserted live.(i)) tbl)
    tables;
  rmtree dir

(* The bulk load builds exactly the table a row-by-row reload builds —
   dense row ids, dictionary order, exact ints, indexes — whether the
   image was just captured or written and read back. *)
let test_bulk_restore_matches_reinsert () =
  let m, tbl = mixed_maintainer ~rows:300 in
  let want = reinserted tbl in
  let t = capture_of m in
  check_same_table "from the capture" want (Durable.Checkpoint.restore_tables t).(0);
  let dir = scratch () in
  Unix.mkdir dir 0o755;
  let t' = load_ok (Filename.concat dir (Durable.Checkpoint.write ~dir t)) in
  check_same_table "from the file" want (Durable.Checkpoint.restore_tables t').(0);
  checkb "an int past 2^53 survives in the float column" true
    (List.exists
       (fun row -> row.(1) = Relation.Value.Int ((1 lsl 60) + 7))
       (Relation.Table.to_list_unmetered (Durable.Checkpoint.restore_tables t').(0)));
  rmtree dir

(* Capture, write and restore build no tuple per base row: the minor heap
   sees a bounded number of words however many rows the table holds (a
   boxed row costs at least its arity plus a header).  The table has no
   index, whose build allocates per row by design. *)
let test_checkpoint_allocates_no_rows () =
  let rows = 20_000 in
  let tbl = Relation.Table.create ~name:"plain" ~schema:mixed_schema () in
  for i = 0 to rows - 1 do
    let open Relation.Value in
    ignore
      (Relation.Table.insert tbl
         [| Int i; Float (float_of_int i); Str (Printf.sprintf "s%d" (i mod 5)); Bool true |])
  done;
  let m =
    Ivm.Maintainer.create ~meter:(Relation.Table.meter tbl)
      (Ivm.Viewdef.make ~name:"plain_count" ~tables:[| tbl |] ~join:[]
         ~aggs:[ Relation.Agg.count "n" ] ())
  in
  let dir = scratch () in
  Unix.mkdir dir 0o755;
  let words what f =
    let w0 = Gc.minor_words () in
    let v = f () in
    let w = Gc.minor_words () -. w0 in
    if w > float_of_int rows then
      Alcotest.failf "%s allocated %.0f minor words for %d rows" what w rows;
    v
  in
  let t = words "capture" (fun () -> capture_of m) in
  let file = words "write" (fun () -> Durable.Checkpoint.write ~dir t) in
  let t' = words "load" (fun () -> load_ok (Filename.concat dir file)) in
  let tables = words "restore" (fun () -> Durable.Checkpoint.restore_tables t') in
  checkb "rows restored" true
    (Relation.Table.to_list_unmetered tables.(0) = Relation.Table.to_list_unmetered tbl);
  rmtree dir

(* The image [capture] takes is the tables as they were: deletes, inserts
   past a column's growth boundary, new dictionary strings and an int
   past 2^53 in the float column, made after the capture and while the
   write runs on a worker domain, do not show in the file. *)
let test_capture_then_mutate () =
  let m, tbl = mixed_maintainer ~rows:100 in
  let before = Relation.Table.to_list_unmetered tbl in
  let t = capture_of m in
  let mutate lo hi =
    for row = lo to hi - 1 do
      if row mod 3 = 0 then ignore (Relation.Table.delete_row tbl row)
    done;
    for i = lo to hi - 1 do
      let open Relation.Value in
      ignore
        (Relation.Table.insert tbl
           [| Int i; Int ((1 lsl 58) + i); Str (Printf.sprintf "new%d" i); Bool true |])
    done
  in
  let dir = scratch () in
  Unix.mkdir dir 0o755;
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      (* 100 rows fill a 128-slot column; 200 more cross it, and 256 *)
      mutate 0 40;
      let p = Durable.Checkpoint.write_async ~dir ~pool ~commit:Fun.id t in
      mutate 40 300;
      let file = Durable.Checkpoint.await p in
      let t' = load_ok (Filename.concat dir file) in
      let restored = (Durable.Checkpoint.restore_tables t').(0) in
      checkb "the table did change" true (Relation.Table.to_list_unmetered tbl <> before);
      checkb "the checkpoint holds the rows at capture time" true
        (Relation.Table.to_list_unmetered restored = before);
      checkb "the capture itself is unchanged" true
        (Relation.Table.to_list_unmetered (Durable.Checkpoint.restore_tables t).(0)
        = before));
  rmtree dir

(* --- the version-2 byte layout, as the tests below forge it ------------ *)

let version_line = "abivm-ckpt\t2"

(* The payload of a checkpoint file: its frames' bytes, joined. *)
let payload_of data =
  let head = String.index data '\n' + 1 in
  let buf = Buffer.create (String.length data) in
  let rec go at =
    if at < String.length data then begin
      let len = Int32.to_int (String.get_int32_le data at) in
      Buffer.add_string buf (String.sub data (at + 8) len);
      go (at + 8 + len)
    end
  in
  go head;
  Buffer.contents buf

(* A file holding [payload] in one well-formed frame. *)
let framed ?(head = version_line) payload =
  let frame = Bytes.create 8 in
  Bytes.set_int32_le frame 0 (Int32.of_int (String.length payload));
  Bytes.set_int32_le frame 4 (Durable.Record.crc32 payload);
  head ^ "\n" ^ Bytes.to_string frame ^ payload

let write_file path data =
  Out_channel.with_open_bin path (fun oc -> output_string oc data)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_error label path =
  match Durable.Checkpoint.load path with
  | Ok _ -> Alcotest.failf "%s: loaded as Ok" label
  | Error e -> e
  | exception e -> Alcotest.failf "%s: raised %s" label (Printexc.to_string e)

(* Corrupt checkpoints come back as [Error], never as an exception: a
   field-less lsn/step line, negative counts, and a table count larger
   than the file could hold — each with every frame's CRC intact. *)
let test_checkpoint_corrupt () =
  let m, tbl = mixed_maintainer ~rows:20 in
  let dir = scratch () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir (Durable.Checkpoint.write ~dir (capture_of m)) in
  let payload = payload_of (read_file path) in
  checkb "the forged framing reads back" true
    (Result.is_ok
       (write_file path (framed payload);
        Durable.Checkpoint.load path));
  (* The payload with its first [line] replaced.  Lines are matched
     whole: the line after a column image follows binary bytes, not a
     newline. *)
  let replace line by =
    let rec find i =
      if i + String.length line > String.length payload then
        Alcotest.failf "no line %S in the payload" line
      else if String.sub payload i (String.length line) = line then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub payload 0 i ^ by
    ^ String.sub payload (i + String.length line) (String.length payload - i - String.length line)
  in
  let table fields = String.concat "\t" ("table" :: "0" :: Ivm.Codec.value_to_string (Relation.Value.Str "mixed") :: fields) ^ "\n" in
  let live = string_of_int (Relation.Table.row_count tbl) in
  List.iter
    (fun (label, line, by) ->
      write_file path (framed (replace line by));
      ignore (load_error label path))
    [
      ("lsn without value", "lsn\t4\n", "lsn\n");
      ("step without value", "step\t3\n", "step\n");
      ("negative table count", "tables\t1\n", "tables\t-1\n");
      ("oversized table count", "tables\t1\n", Printf.sprintf "tables\t%d\n" max_int);
      ("negative col count", table [ "4"; live ], table [ "-1"; live ]);
      ("negative row count", table [ "4"; live ], table [ "4"; "-1" ]);
      ("negative pending count", "pending\t0\t1\n", "pending\t0\t-1\n");
      ("negative view count", "view\t1\n", "view\t-1\n");
    ];
  rmtree dir

(* Every truncation and every single-byte flip of a small checkpoint
   loads as an [Error] or as the very same checkpoint, and never raises. *)
let test_checkpoint_byte_sweep () =
  let m, _ = mixed_maintainer ~rows:20 in
  let dir = scratch () in
  Unix.mkdir dir 0o755;
  let path = Filename.concat dir (Durable.Checkpoint.write ~dir (capture_of m)) in
  let good = read_file path in
  let probe = Filename.concat dir "probe.ckpt" in
  let same_as_good t =
    let again = Filename.concat dir "again" in
    Unix.mkdir again 0o755;
    let equal = read_file (Filename.concat again (Durable.Checkpoint.write ~dir:again t)) = good in
    rmtree again;
    equal
  in
  let check label data =
    write_file probe data;
    match Durable.Checkpoint.load probe with
    | Error _ -> ()
    | Ok t -> if not (same_as_good t) then Alcotest.failf "%s loaded as another checkpoint" label
    | exception e -> Alcotest.failf "%s raised %s" label (Printexc.to_string e)
  in
  let n = String.length good in
  for len = 0 to n - 1 do
    check (Printf.sprintf "truncation to %d of %d bytes" len n) (String.sub good 0 len)
  done;
  for i = 0 to n - 1 do
    List.iter
      (fun mask ->
        let b = Bytes.of_string good in
        Bytes.set b i (Char.chr (Char.code good.[i] lxor mask));
        check (Printf.sprintf "byte %d xor 0x%02x" i mask) (Bytes.to_string b))
      [ 0x01; 0x80; 0xFF ]
  done;
  rmtree dir

(* A version-1 (text rows) checkpoint is refused by its version, by
   [load] and by a recovery whose manifest lists it. *)
let test_checkpoint_v1_refused () =
  let dir = scratch () in
  Unix.mkdir dir 0o755;
  let file = Durable.Checkpoint.filename ~lsn:4 in
  write_file (Filename.concat dir file)
    (String.concat "\n"
       [
         "abivm-ckpt\t1"; "lsn\t4"; "step\t3"; "cost\t3ff8000000000000"; "draws\t3";
         "tables\t1";
         "table\t0\t" ^ Ivm.Codec.value_to_string (Relation.Value.Str "t") ^ "\t1\t1";
         "col\t" ^ Ivm.Codec.value_to_string (Relation.Value.Str "k") ^ "\tint\t1\t0";
         "row\t" ^ Ivm.Codec.tuple_to_string [| Relation.Value.Int 1 |];
         "pending\t0\t0"; "view\t0"; "end"; "";
       ]);
  let e = load_error "version 1" (Filename.concat dir file) in
  checkb "the error names version 1" true (contains ~sub:"version 1" e);
  Durable.Manifest.save ~dir
    { (Durable.Manifest.empty ~params:[]) with checkpoint = Some (4, file) };
  (match
     Durable.Recovery.recover ~dir
       ~view_of:(fun _ -> Alcotest.fail "view built over a version-1 checkpoint")
       ~fresh:(fun () -> Alcotest.fail "genesis built instead of the checkpoint")
   with
  | Ok _ -> Alcotest.fail "recovered from a version-1 checkpoint"
  | Error e -> checkb "recovery names version 1" true (contains ~sub:"version 1" e));
  rmtree dir

(* --- crash-recoverable execution ------------------------------------------ *)

(* A drifted scenario (Robust.Inject) executed durably: the fault
   injection of the robustness loop composes with the crash points of
   the durability loop.  The executed spec is the drifted world's truth. *)
let make_env ~seed ~rows ~horizon () =
  let arrivals =
    Workload.Arrivals.generate ~seed:(seed + 2) ~horizon
      [| Workload.Arrivals.slow_stable; Workload.Arrivals.slow_unstable |]
  in
  let costs =
    [| Cost.Func.affine ~a:1.0 ~b:5.0; Cost.Func.affine ~a:1.0 ~b:5.0 |]
  in
  let model = Abivm.Spec.make ~costs ~limit:40.0 ~arrivals in
  let sc = Robust.Inject.drifted model in
  let actual = sc.Robust.Inject.actual in
  let plan = Abivm.Online.plan actual in
  let fresh () =
    let db = Tpcr.Synth.generate ~seed ~r_rows:rows ~s_rows:rows () in
    let m =
      Ivm.Maintainer.create ~meter:db.Tpcr.Synth.meter (Tpcr.Synth.join_view db)
    in
    Relation.Meter.reset db.Tpcr.Synth.meter;
    (m, Tpcr.Synth.insert_feeds ~seed:(seed + 1) db)
  in
  let view_of = Tpcr.Synth.view_over in
  { Durable.Exec.fresh; view_of; spec = actual; plan; params = [ ("kind", "test") ] }

(* Tight budgets so a short horizon still exercises rotation,
   checkpointing, truncation and group commit inside the matrix. *)
let matrix_config ?pool ~dir ~hook () =
  {
    Durable.Exec.dir;
    segment_bytes = 2048;
    ckpt_actions = 4;
    ckpt_bytes = 8192;
    sync = Durable.Wal.Interval 3;
    hook;
    pool;
  }

(* A manifest names one checkpoint: it round-trips, a file listing two
   is refused, and a finished run that checkpointed several times keeps
   only the image its manifest names (each superseded one is pruned). *)
let test_manifest_roundtrip_prune () =
  let dir = scratch () in
  Unix.mkdir dir 0o755;
  (match Durable.Manifest.load ~dir with
  | Ok None -> ()
  | Ok (Some _) -> Alcotest.fail "manifest in an empty dir"
  | Error e -> Alcotest.failf "load empty: %s" e);
  let m =
    {
      (Durable.Manifest.empty ~params:[ ("seed", "11"); ("k", "v\twith tab") ]) with
      checkpoint = Some (14, "ckpt-000000000014.ckpt");
    }
  in
  Durable.Manifest.save ~dir m;
  (match Durable.Manifest.load ~dir with
  | Ok (Some m') -> checkb "manifest survives" true (m' = m)
  | Ok None -> Alcotest.fail "saved manifest not found"
  | Error e -> Alcotest.failf "reload: %s" e);
  let path = Filename.concat dir "MANIFEST" in
  let text = In_channel.with_open_bin path In_channel.input_all in
  let ckpt_line =
    List.find (String.starts_with ~prefix:"ckpt\t") (String.split_on_char '\n' text)
  in
  write_file path
    (String.concat "\n"
       (List.concat_map
          (fun line -> if line = ckpt_line then [ line; line ] else [ line ])
          (String.split_on_char '\n' text)));
  (match Durable.Manifest.load ~dir with
  | Error e ->
      checkb "the error names the second checkpoint" true
        (contains ~sub:"more than one checkpoint" e)
  | Ok _ -> Alcotest.fail "a manifest with two checkpoints loaded");
  rmtree dir;
  let env = make_env ~seed:11 ~rows:120 ~horizon:12 () in
  let dir = scratch () in
  let o = Durable.Exec.run (matrix_config ~dir ~hook:Durable.Hook.none ()) env in
  checkb "the run checkpointed more than once" true (o.Durable.Exec.checkpoints > 1);
  let images =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".ckpt")
  in
  (match Durable.Manifest.load ~dir with
  | Ok (Some { checkpoint = Some (_, file); _ }) ->
      checkb "only the manifest's image is left" true (images = [ file ])
  | _ -> Alcotest.fail "finished run has no checkpoint in its manifest");
  rmtree dir

(* A finished run's newest checkpoint with one view row edited still
   loads, but the view re-materialized from its tables no longer
   matches the recorded rows: recovery must refuse it. *)
let test_checkpoint_vrow_edit_refused () =
  let env = make_env ~seed:11 ~rows:120 ~horizon:12 () in
  let dir = scratch () in
  let o = Durable.Exec.run (matrix_config ~dir ~hook:Durable.Hook.none ()) env in
  checkb "finished consistent" true o.Durable.Exec.consistent;
  let recover () =
    Durable.Recovery.recover ~dir ~view_of:env.Durable.Exec.view_of
      ~fresh:(fun () -> fst (env.Durable.Exec.fresh ()))
  in
  (match recover () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "untouched recover: %s" e);
  let newest =
    match Durable.Manifest.load ~dir with
    | Ok (Some m) -> (
        match m.Durable.Manifest.checkpoint with
        | Some (_, file) -> Filename.concat dir file
        | None -> Alcotest.fail "no checkpoint in the manifest")
    | _ -> Alcotest.fail "no manifest"
  in
  (* Rewritten through the writer, so every frame's CRC holds: only the
     row check can catch the edit. *)
  let c = load_ok newest in
  let edited =
    match c.Durable.Checkpoint.view_rows with
    | [| Relation.Value.Int pairs |] :: rest -> [| Relation.Value.Int (pairs + 1) |] :: rest
    | _ -> Alcotest.fail "unexpected view rows"
  in
  ignore
    (Durable.Checkpoint.write ~dir:(Filename.dirname newest)
       { c with Durable.Checkpoint.view_rows = edited });
  (match recover () with
  | Ok _ -> Alcotest.fail "recovered from a checkpoint with an edited view row"
  | Error e ->
      checkb "refused by the row check" true
        (String.starts_with ~prefix:"checkpoint verification failed" e));
  rmtree dir

let test_crash_matrix () =
  let env = make_env ~seed:11 ~rows:120 ~horizon:12 () in
  let base_dir = scratch () in
  let record, points = Durable.Hook.counting () in
  let baseline = Durable.Exec.run (matrix_config ~dir:base_dir ~hook:record ()) env in
  rmtree base_dir;
  checkb "baseline consistent" true baseline.Durable.Exec.consistent;
  checkb "baseline wrote checkpoints" true
    (baseline.Durable.Exec.checkpoints > 1);
  let pts = Array.of_list (points ()) in
  checkb "matrix covers a real surface" true (Array.length pts > 20);
  checkb "matrix crashes at window closes" true
    (Array.exists (function Durable.Hook.Window_closed _ -> true | _ -> false) pts);
  let base_bits = Int64.bits_of_float baseline.Durable.Exec.total_cost in
  let base_rows = sorted_rows baseline.Durable.Exec.rows in
  Array.iteri
    (fun k point ->
      let dir = scratch () in
      (match
         Durable.Exec.run
           (matrix_config ~dir ~hook:(Durable.Hook.crash_after ~n:k) ())
           env
       with
      | _ ->
          Alcotest.failf "crash point %d [%s] did not fire" k
            (Durable.Hook.describe point)
      | exception Durable.Hook.Crash _ -> ());
      (* [verify] replays the same tail read-only, before [resume] runs on. *)
      let verified =
        match
          Durable.Exec.verify (matrix_config ~dir ~hook:Durable.Hook.none ()) env
        with
        | Ok st -> st.Durable.Recovery.replayed
        | Error e ->
            Alcotest.failf "crash point %d [%s]: verify failed: %s" k
              (Durable.Hook.describe point) e
      in
      (match
         Durable.Exec.resume (matrix_config ~dir ~hook:Durable.Hook.none ()) env
       with
      | Error e ->
          Alcotest.failf "crash point %d [%s]: resume failed: %s" k
            (Durable.Hook.describe point) e
      | Ok o ->
          if o.Durable.Exec.replayed <> verified then
            Alcotest.failf "crash point %d [%s]: resume replayed %d, verify %d" k
              (Durable.Hook.describe point) o.Durable.Exec.replayed verified;
          if Int64.bits_of_float o.Durable.Exec.total_cost <> base_bits then
            Alcotest.failf
              "crash point %d [%s]: recovered cost %.17g <> baseline %.17g" k
              (Durable.Hook.describe point) o.Durable.Exec.total_cost
              baseline.Durable.Exec.total_cost;
          if sorted_rows o.Durable.Exec.rows <> base_rows then
            Alcotest.failf "crash point %d [%s]: recovered view differs" k
              (Durable.Hook.describe point);
          if not o.Durable.Exec.consistent then
            Alcotest.failf "crash point %d [%s]: recovered view inconsistent" k
              (Durable.Hook.describe point));
      rmtree dir)
    pts

let test_async_checkpoint_matrix () =
  (* Background (off-thread) checkpoints must not change a single bit of
     the outcome, and a crash at any boundary of the background job —
     after serialization but before the rename, after the data fsync and
     rename but before the manifest update, or after the job's manifest
     update but before the maintenance thread adopts it — must recover
     to the uninterrupted run exactly (ARIES ordering: the manifest may
     only reference a checkpoint whose data fsync already returned). *)
  let env = make_env ~seed:11 ~rows:120 ~horizon:12 () in
  let sync_dir = scratch () in
  let sync_o =
    Durable.Exec.run (matrix_config ~dir:sync_dir ~hook:Durable.Hook.none ()) env
  in
  rmtree sync_dir;
  let sync_bits = Int64.bits_of_float sync_o.Durable.Exec.total_cost in
  let sync_rows = sorted_rows sync_o.Durable.Exec.rows in
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      let async_dir = scratch () in
      let async_o =
        Durable.Exec.run
          (matrix_config ~pool ~dir:async_dir ~hook:Durable.Hook.none ())
          env
      in
      rmtree async_dir;
      checkb "off-thread checkpoints leave the cost bits unchanged" true
        (Int64.bits_of_float async_o.Durable.Exec.total_cost = sync_bits);
      checkb "off-thread checkpoints leave the view unchanged" true
        (sorted_rows async_o.Durable.Exec.rows = sync_rows);
      checkb "the async run actually checkpointed in the background" true
        (async_o.Durable.Exec.checkpoints > 1);
      (* Targeted crashes at the two background-job boundaries.  The
         selector keys on the point kind, not a global index, because
         the job's points fire on a worker domain concurrently with the
         maintenance thread's own. *)
      List.iter
        (fun (label, selector) ->
          let dir = scratch () in
          let selects = selector () in
          let fired = Atomic.make false in
          let hook p =
            if (not (Atomic.get fired)) && selects p then begin
              Atomic.set fired true;
              raise (Durable.Hook.Crash label)
            end
          in
          (match Durable.Exec.run (matrix_config ~pool ~dir ~hook ()) env with
          | _ -> Alcotest.failf "%s: the injected crash did not surface" label
          | exception Durable.Hook.Crash _ -> ());
          checkb (label ^ ": crash point reached") true (Atomic.get fired);
          (match
             Durable.Exec.resume
               (matrix_config ~dir ~hook:Durable.Hook.none ())
               env
           with
          | Error e -> Alcotest.failf "%s: resume failed: %s" label e
          | Ok o ->
              checkb (label ^ ": recovered cost bits identical") true
                (Int64.bits_of_float o.Durable.Exec.total_cost = sync_bits);
              checkb (label ^ ": recovered view identical") true
                (sorted_rows o.Durable.Exec.rows = sync_rows);
              checkb (label ^ ": recovered view consistent") true
                o.Durable.Exec.consistent);
          rmtree dir)
        [
          ( "crash mid-serialization (temp written, never renamed)",
            fun () -> function Durable.Hook.Ckpt_temp _ -> true | _ -> false );
          ( "crash between checkpoint fsync and manifest update",
            fun () -> function Durable.Hook.Ckpt_done _ -> true | _ -> false );
          ( "crash after the job's manifest update, before it settles",
            (* [run]'s own first manifest save precedes every checkpoint:
               select the first update after a checkpoint's rename *)
            fun () ->
              let renamed = Atomic.make false in
              function
              | Durable.Hook.Ckpt_done _ ->
                  Atomic.set renamed true;
                  false
              | Durable.Hook.Manifest_updated -> Atomic.get renamed
              | _ -> false );
        ])

let test_genesis_recovery_and_refusal () =
  let env = make_env ~seed:11 ~rows:120 ~horizon:12 () in
  let dir = scratch () in
  let config = matrix_config ~dir ~hook:Durable.Hook.none () in
  (* Die at the very first crash point: manifest exists, no checkpoint,
     empty log — the genesis path. *)
  (match
     Durable.Exec.run
       (matrix_config ~dir ~hook:(Durable.Hook.crash_after ~n:0) ())
       env
   with
  | _ -> Alcotest.fail "expected the injected crash"
  | exception Durable.Hook.Crash _ -> ());
  (match Durable.Exec.verify config env with
  | Error e -> Alcotest.failf "genesis verify: %s" e
  | Ok st ->
      checki "no checkpoint yet" (-1) st.Durable.Recovery.checkpoint_lsn;
      checki "nothing to replay" 0 st.Durable.Recovery.replayed;
      checkb "manifest params recovered" true
        (st.Durable.Recovery.manifest.Durable.Manifest.params
         = env.Durable.Exec.params));
  (match Durable.Exec.resume config env with
  | Error e -> Alcotest.failf "genesis resume: %s" e
  | Ok o ->
      checkb "genesis resume completes" true o.Durable.Exec.consistent;
      checkb "it recovered" true o.Durable.Exec.recovered;
      (* A finished directory refuses a fresh run... *)
      (match Durable.Exec.run config env with
      | _ -> Alcotest.fail "run over an existing directory must refuse"
      | exception Failure _ -> ());
      (* ...but resuming again is an idempotent no-op, and stays one no
         matter how often it happens: repeated resumes once duplicated
         the final manifest entry until pruning deleted the live
         checkpoint file. *)
      for attempt = 2 to 4 do
        match Durable.Exec.resume config env with
        | Error e -> Alcotest.failf "resume #%d: %s" attempt e
        | Ok o2 ->
            checki "nothing left to execute" 0 o2.Durable.Exec.steps_run;
            checkb "same cost bits" true
              (Int64.bits_of_float o2.Durable.Exec.total_cost
              = Int64.bits_of_float o.Durable.Exec.total_cost)
      done;
      match Durable.Exec.verify config env with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "verify after repeated resumes: %s" e);
  rmtree dir

(* Copy directory [src] to [dst] in name order, passing every line of
   every log segment through [line]: segments go oldest first, so [line]
   sees the log's records in LSN order. *)
let rec copy_dir ?(line = Fun.id) src dst =
  Unix.mkdir dst 0o755;
  Array.iter
    (fun name ->
      let src = Filename.concat src name and dst = Filename.concat dst name in
      if Sys.is_directory src then copy_dir ~line src dst
      else
        let text = In_channel.with_open_bin src In_channel.input_all in
        let text =
          if Filename.check_suffix name ".seg" then
            String.split_on_char '\n' text |> List.map line |> String.concat "\n"
          else text
        in
        Out_channel.with_open_bin dst (fun oc -> output_string oc text))
    (let names = Sys.readdir src in
     Array.sort compare names;
     names)

(* A run killed at the start of step 8, before any checkpoint, under a
   synchronous log: its directory holds every record committed so far. *)
let crashed_at_8 env =
  let dir = scratch () in
  let config =
    {
      (matrix_config ~dir
         ~hook:(function
           | Durable.Hook.Step_start 8 -> raise (Durable.Hook.Crash "t=8")
           | _ -> ())
         ())
      with
      Durable.Exec.ckpt_actions = max_int;
      ckpt_bytes = max_int;
      sync = Durable.Wal.Always;
    }
  in
  (match Durable.Exec.run config env with
  | _ -> Alcotest.fail "expected the injected crash"
  | exception Durable.Hook.Crash _ -> ());
  dir

(* Every way in to a directory's recovery: [Recovery.recover], [resume]
   and [verify] all refuse it with an error containing [sub]. *)
let refused_everywhere what ~sub env dir =
  let config = matrix_config ~dir ~hook:Durable.Hook.none () in
  let check how = function
    | Ok _ -> Alcotest.failf "%s: %s accepted it" what how
    | Error e ->
        checkb (Printf.sprintf "%s: %s error %S names %S" what how e sub) true
          (contains ~sub e)
  in
  check "recover"
    (Durable.Recovery.recover ~dir ~view_of:env.Durable.Exec.view_of
       ~fresh:(fun () -> fst (env.Durable.Exec.fresh ())));
  check "resume" (Durable.Exec.resume config env);
  check "verify" (Durable.Exec.verify config env)

(* The group log of an Exec directory is a plan's log: a record under
   another tenant's tag, or a serve co-flush record, is refused. *)
let test_foreign_records_refused () =
  let env = make_env ~seed:11 ~rows:120 ~horizon:12 () in
  let pristine = crashed_at_8 env in
  let with_line what ~sub edit =
    let dir = scratch () in
    let done_ = ref false in
    copy_dir pristine dir ~line:(fun line ->
        match Durable.Record.of_tagged_line line with
        | Ok (Durable.Record.Tenant (_, r)) when not !done_ ->
            done_ := true;
            edit line r
        | _ -> line);
    checkb (what ^ ": the log was edited") true !done_;
    refused_everywhere what ~sub env dir;
    rmtree dir
  in
  with_line "a foreign tenant's record" ~sub:"\"t9\"" (fun _ r ->
      Wal_line.line (Durable.Record.Tenant ("t9", r)));
  with_line "a co-flush record" ~sub:"co-flush" (fun _ _ ->
      Wal_line.line
        (Durable.Record.Coflush { round = 0; rows = [ ("t0", [| 1; 1 |]) ] }));
  rmtree pristine

(* Before the group log, Exec wrote untagged [wal-*.seg] segments directly
   into its directory; such a directory is refused by name. *)
let test_old_layout_refused () =
  let env = make_env ~seed:11 ~rows:120 ~horizon:12 () in
  let dir = crashed_at_8 env in
  let log = Durable.Fsutil.group_dir dir in
  Array.iter
    (fun seg -> Sys.rename (Filename.concat log seg) (Filename.concat dir seg))
    (Sys.readdir log);
  Sys.rmdir log;
  refused_everywhere "old layout" ~sub:"old durable layout" env dir;
  rmtree dir

(* [pristine] copied with the [nth] (0-based) of its Exec records for
   which [edit] answers [Some] re-encoded as that answer, every CRC valid;
   the copy and the edited record's step. *)
let forge pristine ~nth edit =
  let dir = scratch () in
  let seen = ref 0 and step = ref None in
  copy_dir pristine dir ~line:(fun line ->
      match Durable.Record.of_tagged_line line with
      | Ok (Durable.Record.Tenant (tag, r)) when !step = None -> (
          match edit r with
          | Some forged when !seen = nth ->
              step :=
                Some
                  (match r with
                  | Durable.Record.Arrival { time; _ }
                  | Durable.Record.Applied { time; _ } ->
                      time);
              Wal_line.line (Durable.Record.Tenant (tag, forged))
          | Some _ ->
              incr seen;
              line
          | None -> line)
      | _ -> line);
  match !step with
  | Some step -> (dir, step)
  | None -> Alcotest.failf "no record %d to forge" nth

(* [resume] and [verify] both refuse [dir] with a typed [Error] naming
   step [step] and [cause], never an exception. *)
let refused_by_replay what ~cause ~step env dir =
  let config = matrix_config ~dir ~hook:Durable.Hook.none () in
  let check how r =
    match r () with
    | Ok _ -> Alcotest.failf "%s: %s accepted it" what how
    | Error e ->
        let at = Printf.sprintf "WAL replay at t=%d" step in
        checkb
          (Printf.sprintf "%s: %s error %S names %S and %S" what how e at cause)
          true
          (contains ~sub:at e && contains ~sub:cause e)
    | exception exn ->
        Alcotest.failf "%s: %s raised %s" what how (Printexc.to_string exn)
  in
  check "verify" (fun () -> Durable.Exec.verify config env);
  check "resume" (fun () -> Durable.Exec.resume config env)

(* A CRC-valid record that lies — an [Applied] count other than the
   plan's batch or a cost one float off, an [Arrival] deleting a row the
   feed inserted — must come back from replay as a typed [Error]. *)
let test_forged_applied_refused () =
  let env = make_env ~seed:11 ~rows:120 ~horizon:12 () in
  (* No checkpoint and a synchronous log: the replay runs every record
     written before the crash. *)
  let pristine = crashed_at_8 env in
  let forged what ~cause edit =
    let dir, step = forge pristine ~nth:0 edit in
    refused_by_replay what ~cause ~step env dir;
    rmtree dir
  in
  forged "count + 1000" ~cause:"does not match the batch" (function
    | Durable.Record.Applied a ->
        Some (Durable.Record.Applied { a with count = a.count + 1000 })
    | _ -> None);
  forged "cost one float up" ~cause:"non-deterministic replay" (function
    | Durable.Record.Applied a ->
        let up = Int64.succ (Int64.bits_of_float a.cost) in
        Some (Durable.Record.Applied { a with cost = Int64.float_of_bits up })
    | _ -> None);
  (* An insert journalled as a delete of the same, never-present row. *)
  forged "delete of a missing row" ~cause:"differs from the deterministic feed"
    (function
    | Durable.Record.Arrival ({ change = Ivm.Change.Insert row; _ } as a) ->
        Some (Durable.Record.Arrival { a with change = Ivm.Change.Delete row })
    | _ -> None);
  (match
     Durable.Exec.resume (matrix_config ~dir:pristine ~hook:Durable.Hook.none ()) env
   with
  | Ok o -> checkb "the pristine log resumes" true o.Durable.Exec.consistent
  | Error e -> Alcotest.failf "pristine resume: %s" e);
  rmtree pristine;
  (* A record committed after a finished run's final checkpoint: no step
     of the plan is left to make it. *)
  let dir = scratch () in
  let o = Durable.Exec.run (matrix_config ~dir ~hook:Durable.Hook.none ()) env in
  (match
     Durable.Groupwal.open_ ~dir:(Durable.Fsutil.group_dir dir)
       ~from_lsn:o.Durable.Exec.lsn ()
   with
  | Error e -> Alcotest.failf "open: %s" e
  | Ok (log, _) ->
      let h = Durable.Groupwal.attach log ~tenant:Durable.Recovery.tenant () in
      Durable.Groupwal.append h
        (Durable.Record.Arrival { time = 12; table = 0; change = sample_change });
      Durable.Groupwal.commit h;
      Durable.Groupwal.close log);
  refused_by_replay "a record past the horizon"
    ~cause:"1 WAL record(s) past the plan's last step" ~step:12 env dir;
  rmtree dir

(* An [Arrival] re-encoded with another row (its last column one up) is
   a row the run never drew: replay checks every journalled arrival
   against the deterministic feed, wherever it lies in the tail. *)
let test_forged_arrival_refused () =
  let env = make_env ~seed:11 ~rows:120 ~horizon:12 () in
  let pristine = crashed_at_8 env in
  let bump row =
    let row = Array.copy row and last = Array.length row - 1 in
    row.(last) <-
      (match row.(last) with
      | Relation.Value.Int n -> Relation.Value.Int (n + 1)
      | Relation.Value.Float f -> Relation.Value.Float (f +. 1.0)
      | v -> Alcotest.failf "unexpected column %s" (Relation.Value.to_string v));
    row
  in
  List.iter
    (fun nth ->
      let dir, step =
        forge pristine ~nth (function
          | Durable.Record.Arrival ({ change = Ivm.Change.Insert row; _ } as a) ->
              Some
                (Durable.Record.Arrival { a with change = Ivm.Change.Insert (bump row) })
          | _ -> None)
      in
      refused_by_replay
        (Printf.sprintf "arrival %d one up" (nth + 1))
        ~cause:"differs from the deterministic feed" ~step env dir;
      rmtree dir)
    [ 0; 4; 19 ];
  rmtree pristine

(* [Recovery.recover] is the state of a directory with nothing to replay:
   a finished run gives back its outcome's cost bits and rows (what
   perfbench's restart probe checks), and a crashed run's tail is
   refused, its record count named. *)
let test_recover_needs_empty_tail () =
  let env = make_env ~seed:11 ~rows:120 ~horizon:12 () in
  let recover dir =
    Durable.Recovery.recover ~dir ~view_of:env.Durable.Exec.view_of
      ~fresh:(fun () -> fst (env.Durable.Exec.fresh ()))
  in
  let dir = scratch () in
  let o = Durable.Exec.run (matrix_config ~dir ~hook:Durable.Hook.none ()) env in
  (match recover dir with
  | Error e -> Alcotest.failf "recover of a finished run: %s" e
  | Ok st ->
      checkb "the outcome's cost bits" true
        (Int64.bits_of_float st.Durable.Recovery.cost
        = Int64.bits_of_float o.Durable.Exec.total_cost);
      checkb "the outcome's rows" true
        (List.equal Relation.Tuple.equal
           (Ivm.Maintainer.rows st.Durable.Recovery.maintainer)
           o.Durable.Exec.rows);
      checki "nothing replayed" 0 st.Durable.Recovery.replayed;
      checki "the outcome's lsn" o.Durable.Exec.lsn st.Durable.Recovery.lsn);
  rmtree dir;
  let dir = crashed_at_8 env in
  let records =
    match Durable.Groupwal.read ~dir:(Durable.Fsutil.group_dir dir) ~from_lsn:0 with
    | Ok { Durable.Groupwal.tenants = [ (_, records) ]; _ } -> List.length records
    | Ok _ -> Alcotest.fail "expected one tenant's records"
    | Error e -> Alcotest.failf "read: %s" e
  in
  checkb "the crashed run left a tail" true (records > 0);
  (match recover dir with
  | Ok _ -> Alcotest.fail "recovered a crashed run without its plan"
  | Error e ->
      let count = Printf.sprintf "%d WAL record(s)" records in
      checkb
        (Printf.sprintf "error %S names %S and durable verify" e count)
        true
        (contains ~sub:count e && contains ~sub:"abivm durable verify" e));
  rmtree dir

(* A plan the executor refuses is refused before anything is written:
   a [run] that died after its MANIFEST would leave a directory every
   later [run] refuses as started. *)
let test_bad_plan_refused_before_writing () =
  let base = make_env ~seed:11 ~rows:120 ~horizon:12 () in
  let written dir =
    Sys.file_exists dir
    && Array.exists
         (fun f -> f = "MANIFEST" || f = "groupwal" || Filename.check_suffix f ".seg")
         (Sys.readdir dir)
  in
  let refused what env =
    let dir = scratch () in
    (match Durable.Exec.run (matrix_config ~dir ~hook:Durable.Hook.none ()) env with
    | _ -> Alcotest.failf "%s: run accepted" what
    | exception Invalid_argument _ -> ());
    checkb (what ^ ": nothing written") false (written dir);
    rmtree dir
  in
  let steady n =
    Abivm.Spec.make
      ~costs:(Array.make n (Cost.Func.affine ~a:1.0 ~b:5.0))
      ~limit:40.0
      ~arrivals:(Array.init 13 (fun _ -> Array.make n 1))
  in
  let spec = steady 2 in
  refused "100 at t=5"
    { base with spec; plan = Abivm.Plan.of_actions [ (5, [| 100; 0 |]) ] };
  refused "an action after the horizon"
    {
      base with
      spec;
      plan = Abivm.Plan.of_actions [ (12, [| 13; 13 |]); (13, [| 1; 0 |]) ];
    };
  let wide = { base with spec = steady 3; plan = Abivm.Naive.plan (steady 3) } in
  refused "a 3-table spec over the 2-table view" wide;
  (* A started run, resumed under a plan that does not fit it: a typed
     [Error], and the directory still resumes under its own plan. *)
  let dir = scratch () in
  let config hook = matrix_config ~dir ~hook () in
  (match
     Durable.Exec.run
       (config (function
         | Durable.Hook.Step_start 4 -> raise (Durable.Hook.Crash "t=4")
         | _ -> ()))
       base
   with
  | _ -> Alcotest.fail "expected the injected crash"
  | exception Durable.Hook.Crash _ -> ());
  List.iter
    (fun (what, env) ->
      match Durable.Exec.resume (config Durable.Hook.none) env with
      | Ok _ -> Alcotest.failf "resume accepted %s" what
      | Error _ -> ())
    [
      ("a 3-table spec over the 2-table view", wide);
      ( "100 at t=10",
        { base with plan = Abivm.Plan.of_actions [ (10, [| 100; 0 |]) ] } );
    ];
  (match Durable.Exec.resume (config Durable.Hook.none) base with
  | Ok o -> checkb "resumes under its own plan" true o.Durable.Exec.consistent
  | Error e -> Alcotest.failf "resume under its own plan: %s" e);
  rmtree dir

(* A checkpoint due when fewer than [ckpt_actions] batches are left is
   not started: the final checkpoint would supersede it.  Ten batches,
   one per step 1..10, at four actions a checkpoint: the trigger before
   step 5 leaves six batches (written), the one before step 9 leaves two
   (skipped), so a run writes two images, not three, on both paths. *)
let test_superseded_checkpoint_skipped () =
  let base = make_env ~seed:11 ~rows:120 ~horizon:12 () in
  let env =
    {
      base with
      spec =
        Abivm.Spec.make
          ~costs:(Array.make 2 (Cost.Func.affine ~a:1.0 ~b:5.0))
          ~limit:40.0
          ~arrivals:(Array.init 13 (fun _ -> [| 1; 1 |]));
      plan = Abivm.Plan.of_actions (List.init 10 (fun i -> (i + 1, [| 1; 0 |])));
    }
  in
  let config ?pool ~dir hook =
    { (matrix_config ?pool ~dir ~hook ()) with Durable.Exec.ckpt_bytes = max_int }
  in
  let run ?pool () =
    let dir = scratch () in
    let images = Atomic.make 0 in
    let o =
      Durable.Exec.run
        (config ?pool ~dir (function
          | Durable.Hook.Ckpt_done _ -> Atomic.incr images
          | _ -> ()))
        env
    in
    rmtree dir;
    checki "checkpoints adopted" 2 o.Durable.Exec.checkpoints;
    checki "images written" 2 (Atomic.get images);
    o
  in
  let sync_o = run () in
  let bits (o : Durable.Exec.outcome) =
    (Int64.bits_of_float o.total_cost, sorted_rows o.rows)
  in
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      checkb "background checkpoints: same bits" true (bits (run ~pool ()) = bits sync_o));
  (* Killed after the skipped trigger: recovery replays from the step-5
     checkpoint and ends on the same bits. *)
  let dir = scratch () in
  (match
     Durable.Exec.run
       (config ~dir (function
         | Durable.Hook.Step_start 11 -> raise (Durable.Hook.Crash "t=11")
         | _ -> ()))
       env
   with
  | _ -> Alcotest.fail "expected the injected crash"
  | exception Durable.Hook.Crash _ -> ());
  (match Durable.Exec.resume (config ~dir Durable.Hook.none) env with
  | Error e -> Alcotest.failf "resume: %s" e
  | Ok o ->
      checkb "recovered from the step-5 checkpoint" true (o.Durable.Exec.replayed > 0);
      checkb "recovered bits identical" true (bits o = bits sync_o));
  rmtree dir

(* perfbench's paper-durable hands its set-up engine to the first
   [env.fresh] call; a second call would build a database inside the
   timed run. *)
let test_run_builds_genesis_once () =
  let env = make_env ~seed:11 ~rows:120 ~horizon:12 () in
  let calls = ref 0 in
  let fresh () =
    incr calls;
    env.Durable.Exec.fresh ()
  in
  let dir = scratch () in
  let o =
    Durable.Exec.run (matrix_config ~dir ~hook:Durable.Hook.none ()) { env with fresh }
  in
  checkb "finished consistent" true o.Durable.Exec.consistent;
  checki "env.fresh calls" 1 !calls;
  rmtree dir

(* A run into a directory whose parents do not exist yet creates them
   all, then recovers and verifies like any other run. *)
let test_run_into_nested_dir () =
  let env = make_env ~seed:11 ~rows:120 ~horizon:12 () in
  let root = scratch () in
  let dir = Filename.concat (Filename.concat root "nest") "a" in
  let config = matrix_config ~dir ~hook:Durable.Hook.none () in
  let o = Durable.Exec.run config env in
  checkb "finished consistent" true o.Durable.Exec.consistent;
  (match Durable.Exec.verify config env with
  | Ok st ->
      checkb "recovered cost is the run's" true
        (st.Durable.Recovery.cost = o.Durable.Exec.total_cost);
      checki "recovered lsn is the run's" o.Durable.Exec.lsn
        st.Durable.Recovery.lsn
  | Error e -> Alcotest.failf "verify: %s" e);
  rmtree root

let () =
  Alcotest.run "durable"
    [
      ( "record",
        [
          Alcotest.test_case "roundtrip" `Quick test_record_roundtrip;
          Alcotest.test_case "CRC rejects corruption" `Quick
            test_record_crc_rejects_flips;
          to_alcotest prop_line_matches_oracle;
          to_alcotest prop_equal_is_payload_equality;
          Alcotest.test_case "equal on float edges" `Quick
            test_equal_on_float_edges;
          Alcotest.test_case "line encoder minor words" `Quick
            test_line_minor_words;
        ] );
      ( "wal",
        [
          Alcotest.test_case "roundtrip + rotation" `Quick
            test_wal_roundtrip_rotation;
          Alcotest.test_case "group-commit window" `Quick
            test_wal_group_commit_window;
          Alcotest.test_case "torn tail repaired" `Quick
            test_wal_torn_tail_repair;
          Alcotest.test_case "tail missing newline repaired" `Quick
            test_wal_tail_missing_newline;
          Alcotest.test_case "truncation gap refused" `Quick
            test_wal_gap_refused;
          Alcotest.test_case "mid-log corruption refused" `Quick
            test_wal_mid_log_corruption_refused;
        ] );
      ( "groupwal",
        [
          Alcotest.test_case "demux roundtrip, one fsync per window" `Quick
            test_groupwal_demux_roundtrip;
          Alcotest.test_case "abandon loses exactly the open window" `Quick
            test_groupwal_abandon_loses_window;
          Alcotest.test_case "per-tenant policies force closes" `Quick
            test_groupwal_forced_close_policy;
          Alcotest.test_case "torn tail repaired, re-homed tag refused" `Quick
            test_groupwal_torn_tail_and_rehoming;
          Alcotest.test_case "read from_lsn after truncate_before" `Quick
            test_groupwal_read_after_truncation;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "checkpoint roundtrip + restore" `Quick
            test_checkpoint_roundtrip;
          Alcotest.test_case "edited checkpoint view row refused" `Quick
            test_checkpoint_vrow_edit_refused;
          Alcotest.test_case "corrupt checkpoint is an Error" `Quick
            test_checkpoint_corrupt;
          Alcotest.test_case "bulk restore = row-by-row reload" `Quick
            test_bulk_restore_matches_reinsert;
          Alcotest.test_case "no tuple per base row" `Quick
            test_checkpoint_allocates_no_rows;
          Alcotest.test_case "capture, then mutate during the write" `Quick
            test_capture_then_mutate;
          Alcotest.test_case "every truncation and byte flip" `Quick
            test_checkpoint_byte_sweep;
          Alcotest.test_case "version-1 checkpoint refused" `Quick
            test_checkpoint_v1_refused;
          Alcotest.test_case "manifest roundtrip + prune" `Quick
            test_manifest_roundtrip_prune;
        ] );
      ( "exec",
        [
          Alcotest.test_case "crash matrix is bit-identical" `Quick
            test_crash_matrix;
          Alcotest.test_case "async checkpoint crash matrix" `Quick
            test_async_checkpoint_matrix;
          Alcotest.test_case "genesis recovery, refusal, idempotence" `Quick
            test_genesis_recovery_and_refusal;
          Alcotest.test_case "forged WAL records refused" `Quick
            test_forged_applied_refused;
          Alcotest.test_case "forged arrival refused" `Quick
            test_forged_arrival_refused;
          Alcotest.test_case "recover refuses a tail" `Quick
            test_recover_needs_empty_tail;
          Alcotest.test_case "foreign tag or co-flush record refused" `Quick
            test_foreign_records_refused;
          Alcotest.test_case "old layout refused" `Quick test_old_layout_refused;
          Alcotest.test_case "bad plan refused before any write"
            `Quick test_bad_plan_refused_before_writing;
          Alcotest.test_case "run builds the genesis state once" `Quick
            test_run_builds_genesis_once;
          Alcotest.test_case "run into a missing nested directory" `Quick
            test_run_into_nested_dir;
          Alcotest.test_case "superseded checkpoint skipped" `Quick
            test_superseded_checkpoint_skipped;
        ] );
    ]
