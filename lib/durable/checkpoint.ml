type table_snapshot = {
  name : string;
  columns : (string * Relation.Datatype.t) list;
  hash_indexed : string list;
  image : Relation.Table.image;
}

type t = {
  lsn : int;
  next_step : int;
  cost : float;
  draws : int array;
  params : (string * string) list;
  tables : table_snapshot array;
  pending : Ivm.Change.t list array;
  view_rows : Relation.Tuple.t list;
}

let capture ~lsn ~next_step ~cost ~draws ~params m =
  let view = Ivm.Maintainer.view m in
  let tables =
    Ivm.Viewdef.tables view
    |> Array.map (fun tbl ->
           let schema = Relation.Table.schema tbl in
           let columns =
             Relation.Schema.columns schema |> Array.to_list
             |> List.map (fun c -> (c.Relation.Schema.name, c.Relation.Schema.ty))
           in
           {
             name = Relation.Table.name tbl;
             columns;
             hash_indexed =
               List.filter (fun (c, _) -> Relation.Table.has_index tbl c) columns
               |> List.map fst;
             image = Relation.Table.capture tbl;
           })
  in
  let pending =
    Array.init (Ivm.Viewdef.n_tables view) (Ivm.Maintainer.pending_changes m)
  in
  {
    lsn;
    next_step;
    cost;
    draws = Array.copy draws;
    params;
    tables;
    pending;
    view_rows = Ivm.Maintainer.rows m;
  }

let filename ~lsn = Printf.sprintf "ckpt-%012d.ckpt" lsn

(* ---- serialization ----------------------------------------------- *)

(* The file is the version line, then the payload cut into frames: a
   4-byte little-endian payload length, the 4-byte CRC-32 of those bytes,
   the bytes.  The payload is codec lines for the scalars, the queues and
   the view, with each table's column image (Relation.Table.encode_image)
   right after its [col] lines, and an [end] line. *)
let version = 2
let version_line = Printf.sprintf "abivm-ckpt\t%d" version
let frame_bytes = 64 * 1024

let str s = Ivm.Codec.value_to_string (Relation.Value.Str s)

let unstr text =
  match Ivm.Codec.value_of_string text with
  | Ok (Relation.Value.Str s) -> Ok s
  | Ok _ -> Error (Printf.sprintf "expected string value, got %S" text)
  | Error e -> Error e

let ty_name = Relation.Datatype.to_string

let ty_of_name = function
  | "int" -> Ok Relation.Datatype.TInt
  | "float" -> Ok Relation.Datatype.TFloat
  | "string" -> Ok Relation.Datatype.TString
  | "bool" -> Ok Relation.Datatype.TBool
  | other -> Error (Printf.sprintf "unknown column type %S" other)

let emit w t =
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Util.Bin.put_string w s;
        Util.Bin.put_byte w (Char.code '\n'))
      fmt
  in
  line "lsn\t%d" t.lsn;
  line "step\t%d" t.next_step;
  line "cost\t%Lx" (Int64.bits_of_float t.cost);
  line "draws%s"
    (Array.to_list t.draws
    |> List.map (Printf.sprintf "\t%d")
    |> String.concat "");
  List.iter (fun (k, v) -> line "param\t%s\t%s" (str k) (str v)) t.params;
  line "tables\t%d" (Array.length t.tables);
  Array.iteri
    (fun i ts ->
      line "table\t%d\t%s\t%d\t%d" i (str ts.name) (List.length ts.columns)
        (Relation.Table.image_rows ts.image);
      List.iter
        (fun (name, ty) ->
          line "col\t%s\t%s\t%d" (str name) (ty_name ty)
            (if List.mem name ts.hash_indexed then 1 else 0))
        ts.columns;
      Relation.Table.encode_image ts.image w)
    t.tables;
  Array.iteri
    (fun i changes ->
      line "pending\t%d\t%d" i (List.length changes);
      List.iter
        (fun c -> line "chg\t%s" (Ivm.Codec.change_to_string c))
        changes)
    t.pending;
  line "view\t%d" (List.length t.view_rows);
  List.iter (fun row -> line "vrow\t%s" (Ivm.Codec.tuple_to_string row)) t.view_rows;
  line "end";
  Util.Bin.flush w

let rec write_all fd b off len =
  if len > 0 then begin
    let n = Unix.write fd b off len in
    write_all fd b (off + n) (len - n)
  end

let write ~dir ?(hook = Hook.none) t =
  let name = filename ~lsn:t.lsn in
  let tmp = Filename.concat dir (name ^ ".tmp") in
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let head = Bytes.of_string (version_line ^ "\n") in
      write_all fd head 0 (Bytes.length head);
      let frame = Bytes.create 8 in
      let w =
        Util.Bin.writer ~size:frame_bytes (fun chunk len ->
            Bytes.set_int32_le frame 0 (Int32.of_int len);
            Bytes.set_int32_le frame 4
              (Record.crc32_sub (Bytes.unsafe_to_string chunk) ~pos:0 ~len);
            write_all fd frame 0 8;
            write_all fd chunk 0 len)
      in
      emit w t;
      Unix.fsync fd);
  hook (Hook.Ckpt_temp name);
  Sys.rename tmp (Filename.concat dir name);
  Fsutil.fsync_dir dir;
  hook (Hook.Ckpt_done name);
  Telemetry.incr "durable.checkpoints";
  name

(* ---- background writes ------------------------------------------- *)

type 'a inflight = { job : Parallel.Pool.job; result : 'a option Atomic.t }

(* The image [t] holds stays valid while the maintenance thread keeps
   appending and deleting (Relation.Table.capture), so the worker can
   serialize, fsync and rename it, then run [commit]: the data fsync
   strictly precedes whatever [commit] publishes (ARIES ordering). *)
let write_async ~dir ?(hook = Hook.none) ~pool ~commit t =
  let result = Atomic.make None in
  let job =
    Parallel.Pool.detach pool (fun () ->
        Atomic.set result (Some (commit (write ~dir ~hook t))))
  in
  { job; result }

let poll p = Parallel.Pool.poll p.job

let await p =
  Parallel.Pool.await p.job;
  Option.get (Atomic.get p.result)

(* ---- parsing ----------------------------------------------------- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

(* The version line, then the frames' payloads joined, each checked
   against its CRC. *)
let unframe data =
  let head_end =
    match String.index_opt data '\n' with
    | Some i -> i
    | None -> bad "not an abivm checkpoint (bad header)"
  in
  (match String.split_on_char '\t' (String.sub data 0 head_end) with
  | [ "abivm-ckpt"; v ] when v = string_of_int version -> ()
  | [ "abivm-ckpt"; v ] ->
      bad "checkpoint format version %s is not supported (this build reads version %d)" v
        version
  | _ -> bad "not an abivm checkpoint (bad header)");
  let n = String.length data in
  let out = Bytes.create n in
  let rec go at len =
    if at = n then Bytes.sub_string out 0 len
    else begin
      if n - at < 8 then bad "truncated frame header at byte %d" at;
      let flen = Int32.to_int (String.get_int32_le data at) land 0xFFFF_FFFF in
      if flen > n - at - 8 then bad "truncated frame at byte %d" at;
      if Record.crc32_sub data ~pos:(at + 8) ~len:flen <> String.get_int32_le data (at + 4)
      then bad "frame at byte %d fails its CRC" at;
      Bytes.blit_string data (at + 8) out len flen;
      go (at + 8 + flen) (len + flen)
    end
  in
  go (head_end + 1) 0

let decode payload =
  let rd = Util.Bin.reader payload in
  let fields () =
    match String.split_on_char '\t' (Util.Bin.get_line rd) with
    | keyword :: rest -> (keyword, rest)
    | [] -> assert false
  in
  (* keyword, then the rest of the line (escaped payloads never contain
     raw tabs or newlines) *)
  let tagged want =
    let line = Util.Bin.get_line rd in
    match String.index_opt line '\t' with
    | Some i when String.sub line 0 i = want ->
        String.sub line (i + 1) (String.length line - i - 1)
    | _ -> bad "expected %s line, got %S" want line
  in
  let expect_kw want (kw, rest) =
    if kw <> want then bad "expected %S line, got %S" want kw;
    rest
  in
  let int_field what s =
    match int_of_string_opt s with Some n -> n | None -> bad "bad %s field %S" what s
  in
  (* A count announces that many items of at least a byte each, so it
     can be neither negative nor larger than what is left. *)
  let count_field what s =
    let n = int_field what s in
    if n < 0 || n > Util.Bin.remaining rd then bad "bad %s %d" what n;
    n
  in
  let single_field what =
    match expect_kw what (fields ()) with
    | [ v ] -> int_field what v
    | _ -> bad "malformed %s line" what
  in
  let ok_or_bad = function Ok v -> v | Error e -> raise (Bad e) in
  let lsn = single_field "lsn" in
  let next_step = single_field "step" in
  let cost =
    match expect_kw "cost" (fields ()) with
    | [ bits ] -> (
        match Int64.of_string_opt ("0x" ^ bits) with
        | Some b -> Int64.float_of_bits b
        | None -> bad "bad cost bits %S" bits)
    | _ -> bad "malformed cost line"
  in
  let draws =
    expect_kw "draws" (fields ()) |> List.map (int_field "draws") |> Array.of_list
  in
  let rec read_params acc =
    match fields () with
    | "param", [ k; v ] -> read_params ((ok_or_bad (unstr k), ok_or_bad (unstr v)) :: acc)
    | "tables", [ n ] -> (List.rev acc, count_field "tables" n)
    | kw, _ -> bad "expected param/tables, got %S" kw
  in
  let params, n_tables = read_params [] in
  let tables =
    Array.init n_tables (fun i ->
        match expect_kw "table" (fields ()) with
        | [ idx; name; ncols; nrows ] ->
            if int_field "table index" idx <> i then bad "table index out of order";
            let name = ok_or_bad (unstr name) in
            let ncols = count_field "ncols" ncols in
            let cols =
              List.init ncols (fun _ ->
                  match expect_kw "col" (fields ()) with
                  | [ cname; ty; hash ] ->
                      let hashed =
                        match hash with "0" -> false | "1" -> true | _ -> bad "bad hash flag %S" hash
                      in
                      (ok_or_bad (unstr cname), ok_or_bad (ty_of_name ty), hashed)
                  | _ -> bad "malformed col line")
            in
            (* every column spends at least a validity bit per row *)
            let nrows = int_field "nrows" nrows in
            if nrows < 0 || nrows > 8 * Util.Bin.remaining rd then bad "bad nrows %d" nrows;
            let columns = List.map (fun (n, ty, _) -> (n, ty)) cols in
            let schema =
              try Relation.Schema.make columns with Invalid_argument e -> raise (Bad e)
            in
            {
              name;
              columns;
              hash_indexed = List.filter_map (fun (n, _, h) -> if h then Some n else None) cols;
              image = Relation.Table.decode_image schema ~rows:nrows rd;
            }
        | _ -> bad "malformed table line")
  in
  let pending =
    Array.init n_tables (fun i ->
        match expect_kw "pending" (fields ()) with
        | [ idx; n ] ->
            if int_field "pending index" idx <> i then bad "pending index out of order";
            List.init (count_field "pending count" n) (fun _ ->
                ok_or_bad (Ivm.Codec.change_of_string (tagged "chg")))
        | _ -> bad "malformed pending line")
  in
  let view_rows =
    match expect_kw "view" (fields ()) with
    | [ n ] ->
        List.init (count_field "view count" n) (fun _ ->
            ok_or_bad (Ivm.Codec.tuple_of_string (tagged "vrow")))
    | _ -> bad "malformed view line"
  in
  ignore (expect_kw "end" (fields ()));
  if Util.Bin.remaining rd > 0 then bad "content after the end trailer";
  { lsn; next_step; cost; draws; params; tables; pending; view_rows }

let load path =
  match decode (unframe (In_channel.with_open_bin path In_channel.input_all)) with
  | t -> Ok t
  | exception (Bad e | Util.Bin.Corrupt e | Sys_error e) -> Error e

let restore_tables t =
  let meter = Relation.Meter.create () in
  let tables =
    Array.map
      (fun ts ->
        let schema = Relation.Schema.make ts.columns in
        let tbl = Relation.Table.of_image ~meter ~name:ts.name ~schema ts.image in
        List.iter (Relation.Table.create_index tbl) ts.hash_indexed;
        tbl)
      t.tables
  in
  Relation.Meter.reset meter;
  tables
