type table_snapshot = {
  name : string;
  columns : (string * Relation.Datatype.t) list;
  hash_indexed : string list;
  rows : Relation.Tuple.t list;
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
             rows = Relation.Table.to_list_unmetered tbl;
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

let emit buf t =
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "abivm-ckpt\t1";
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
        (List.length ts.rows);
      (* The fourth field is the retired ordered-index flag, always 0, so
         the format stays byte-identical to files that carried it. *)
      List.iter
        (fun (name, ty) ->
          line "col\t%s\t%s\t%d\t0" (str name) (ty_name ty)
            (if List.mem name ts.hash_indexed then 1 else 0))
        ts.columns;
      List.iter (fun row -> line "row\t%s" (Ivm.Codec.tuple_to_string row)) ts.rows)
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
  line "end"

let write ~dir ?(hook = Hook.none) t =
  let name = filename ~lsn:t.lsn in
  let tmp = Filename.concat dir (name ^ ".tmp") in
  let buf = Buffer.create 4096 in
  emit buf t;
  let fd = Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close fd)
    (fun () ->
      let s = Buffer.contents buf in
      let rec go off =
        if off < String.length s then
          go (off + Unix.write_substring fd s off (String.length s - off))
      in
      go 0;
      Unix.fsync fd);
  hook (Hook.Ckpt_temp name);
  Sys.rename tmp (Filename.concat dir name);
  Fsutil.fsync_dir dir;
  hook (Hook.Ckpt_done name);
  Telemetry.incr "durable.checkpoints";
  name

(* ---- background writes ------------------------------------------- *)

type inflight = { file : string; job : Parallel.Pool.job }

(* The snapshot [t] is already detached from live state ([capture] copies
   rows and queues), so the worker can serialize + fsync + rename it
   while the maintenance thread keeps executing steps.  The caller must
   not let a manifest reference the checkpoint until the job settles —
   the data fsync inside [write] strictly precedes the rename, and the
   manifest update comes strictly after {!await}/{!poll} reports done,
   which is the ARIES ordering argument. *)
let write_async ~dir ?(hook = Hook.none) ~pool t =
  let file = filename ~lsn:t.lsn in
  let job =
    Parallel.Pool.detach pool (fun () -> ignore (write ~dir ~hook t))
  in
  { file; job }

let poll p = Parallel.Pool.poll p.job

let await p =
  Parallel.Pool.await p.job;
  p.file

(* ---- parsing ----------------------------------------------------- *)

exception Bad of string

let load path =
  let lines =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let acc = ref [] in
        (try
           while true do
             acc := input_line ic :: !acc
           done
         with End_of_file -> ());
        Array.of_list (List.rev !acc))
  in
  let pos = ref 0 in
  let next what =
    if !pos >= Array.length lines then
      raise (Bad (Printf.sprintf "truncated checkpoint: expected %s" what));
    let l = lines.(!pos) in
    incr pos;
    l
  in
  (* keyword, then the rest of the line (which may itself contain tabs
     as field separators — escaped payloads never contain raw tabs) *)
  let fields what =
    match String.split_on_char '\t' (next what) with
    | keyword :: rest -> (keyword, rest)
    | [] -> assert false
  in
  let tagged what =
    let line = next what in
    match String.index_opt line '\t' with
    | None -> (line, "")
    | Some i ->
        (String.sub line 0 i, String.sub line (i + 1) (String.length line - i - 1))
  in
  let expect_kw want (kw, rest) =
    if kw <> want then
      raise (Bad (Printf.sprintf "expected %S line, got %S" want kw));
    rest
  in
  let int_field what s =
    match int_of_string_opt s with
    | Some n -> n
    | None -> raise (Bad (Printf.sprintf "bad %s field %S" what s))
  in
  (* A count announces that many following lines, so it can be neither
     negative nor larger than what is left of the file. *)
  let count_field what s =
    let n = int_field what s in
    if n < 0 || n > Array.length lines - !pos then
      raise (Bad (Printf.sprintf "bad %s %d" what n));
    n
  in
  let single_field what =
    match expect_kw what (fields what) with
    | [ v ] -> int_field what v
    | _ -> raise (Bad (Printf.sprintf "malformed %s line" what))
  in
  let ok_or_bad = function Ok v -> v | Error e -> raise (Bad e) in
  try
    (match fields "header" with
    | "abivm-ckpt", [ "1" ] -> ()
    | _ -> raise (Bad "not an abivm checkpoint (bad header)"));
    let lsn = single_field "lsn" in
    let next_step = single_field "step" in
    let cost =
      match expect_kw "cost" (fields "cost") with
      | [ bits ] -> (
          match Int64.of_string_opt ("0x" ^ bits) with
          | Some b -> Int64.float_of_bits b
          | None -> raise (Bad (Printf.sprintf "bad cost bits %S" bits)))
      | _ -> raise (Bad "malformed cost line")
    in
    let draws =
      expect_kw "draws" (fields "draws")
      |> List.map (int_field "draws") |> Array.of_list
    in
    let params = ref [] in
    let rec read_params () =
      match fields "param or tables" with
      | "param", [ k; v ] ->
          params := (ok_or_bad (unstr k), ok_or_bad (unstr v)) :: !params;
          read_params ()
      | "tables", [ n ] -> count_field "tables" n
      | kw, _ -> raise (Bad (Printf.sprintf "expected param/tables, got %S" kw))
    in
    let n_tables = read_params () in
    let params = List.rev !params in
    let tables =
      Array.init n_tables (fun i ->
          match expect_kw "table" (fields "table") with
          | [ idx; name; ncols; nrows ] ->
              if int_field "table index" idx <> i then
                raise (Bad "table index out of order");
              let name = ok_or_bad (unstr name) in
              let ncols = count_field "ncols" ncols in
              let nrows = count_field "nrows" nrows in
              let cols =
                List.init ncols (fun _ ->
                    match expect_kw "col" (fields "col") with
                    | [ cname; ty; hash; ord ] ->
                        let cname = ok_or_bad (unstr cname) in
                        if int_field "ord flag" ord = 1 then
                          raise
                            (Bad
                               (Printf.sprintf
                                  "column %S asks for an ordered index, which \
                                   is no longer supported"
                                  cname));
                        ( cname,
                          ok_or_bad (ty_of_name ty),
                          int_field "hash flag" hash = 1 )
                    | _ -> raise (Bad "malformed col line"))
              in
              let rows =
                List.init nrows (fun _ ->
                    let kw, rest = tagged "row" in
                    if kw <> "row" then
                      raise (Bad (Printf.sprintf "expected row line, got %S" kw));
                    ok_or_bad (Ivm.Codec.tuple_of_string rest))
              in
              {
                name;
                columns = List.map (fun (n, ty, _) -> (n, ty)) cols;
                hash_indexed =
                  List.filter_map (fun (n, _, h) -> if h then Some n else None) cols;
                rows;
              }
          | _ -> raise (Bad "malformed table line"))
    in
    let pending =
      Array.init n_tables (fun i ->
          match expect_kw "pending" (fields "pending") with
          | [ idx; n ] ->
              if int_field "pending index" idx <> i then
                raise (Bad "pending index out of order");
              List.init (count_field "pending count" n) (fun _ ->
                  let kw, rest = tagged "chg" in
                  if kw <> "chg" then
                    raise (Bad (Printf.sprintf "expected chg line, got %S" kw));
                  ok_or_bad (Ivm.Codec.change_of_string rest))
          | _ -> raise (Bad "malformed pending line"))
    in
    let view_rows =
      match expect_kw "view" (fields "view") with
      | [ n ] ->
          List.init (count_field "view count" n) (fun _ ->
              let kw, rest = tagged "vrow" in
              if kw <> "vrow" then
                raise (Bad (Printf.sprintf "expected vrow line, got %S" kw));
              ok_or_bad (Ivm.Codec.tuple_of_string rest))
      | _ -> raise (Bad "malformed view line")
    in
    (match fields "end" with
    | "end", _ -> ()
    | kw, _ -> raise (Bad (Printf.sprintf "expected end trailer, got %S" kw)));
    Ok { lsn; next_step; cost; draws; params; tables; pending; view_rows }
  with
  | Bad e -> Error e
  | Sys_error e -> Error e

let restore_tables t =
  let meter = Relation.Meter.create () in
  let tables =
    Array.map
      (fun ts ->
        let schema = Relation.Schema.make ts.columns in
        let tbl = Relation.Table.create ~meter ~name:ts.name ~schema () in
        List.iter (fun row -> ignore (Relation.Table.insert tbl row)) ts.rows;
        List.iter (Relation.Table.create_index tbl) ts.hash_indexed;
        tbl)
      t.tables
  in
  Relation.Meter.reset meter;
  tables
