type t = { params : (string * string) list; checkpoint : (int * string) option }

let basename = "MANIFEST"
let empty ~params = { params; checkpoint = None }

let str s = Ivm.Codec.value_to_string (Relation.Value.Str s)

let unstr text =
  match Ivm.Codec.value_of_string text with
  | Ok (Relation.Value.Str s) -> Ok s
  | Ok _ -> Error (Printf.sprintf "expected string value, got %S" text)
  | Error e -> Error e

let save ~dir ?(hook = Hook.none) t =
  let buf = Buffer.create 256 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "abivm-manifest\t1";
  List.iter (fun (k, v) -> line "param\t%s\t%s" (str k) (str v)) t.params;
  Option.iter
    (fun (lsn, file) -> line "ckpt\t%d\t%s" lsn (str file))
    t.checkpoint;
  line "end";
  let tmp = Filename.concat dir (basename ^ ".tmp") in
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
  Sys.rename tmp (Filename.concat dir basename);
  Fsutil.fsync_dir dir;
  hook Hook.Manifest_updated

let load ~dir =
  let path = Filename.concat dir basename in
  if not (Sys.file_exists path) then Ok None
  else
    let ( let* ) = Result.bind in
    let ic = open_in_bin path in
    let lines =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let acc = ref [] in
          (try
             while true do
               acc := input_line ic :: !acc
             done
           with End_of_file -> ());
          List.rev !acc)
    in
    match lines with
    | "abivm-manifest\t1" :: rest ->
        let rec go params ckpt saw_end = function
          | [] ->
              if saw_end then Ok { params = List.rev params; checkpoint = ckpt }
              else Error "manifest missing end trailer (torn write?)"
          | _ :: _ when saw_end -> Error "manifest has content after end trailer"
          | line :: rest -> (
              match String.split_on_char '\t' line with
              | [ "param"; k; v ] ->
                  let* k = unstr k in
                  let* v = unstr v in
                  go ((k, v) :: params) ckpt false rest
              | [ "ckpt"; _; _ ] when ckpt <> None ->
                  Error "manifest lists more than one checkpoint"
              | [ "ckpt"; lsn; file ] -> (
                  match int_of_string_opt lsn with
                  | None -> Error (Printf.sprintf "bad manifest lsn %S" lsn)
                  | Some lsn ->
                      let* file = unstr file in
                      go params (Some (lsn, file)) false rest)
              | [ "end" ] -> go params ckpt true rest
              | _ -> Error (Printf.sprintf "bad manifest line %S" line))
        in
        let* m = go [] None false rest in
        Ok (Some m)
    | _ -> Error "not an abivm manifest (bad header)"

let find ~what params key =
  match List.assoc_opt key params with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "%s params missing %S" what key)

let parse key conv v =
  match conv v with
  | Some x -> Ok x
  | None -> Error (Printf.sprintf "bad %s parameter %S" key v)

let get ~what params key conv = Result.bind (find ~what params key) (parse key conv)

let float_if ok v =
  match float_of_string_opt v with Some f when ok f -> Some f | _ -> None
