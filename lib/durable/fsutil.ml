(* Shared durability helper: fsync a directory so renames, unlinks and
   newly created entries inside it survive power loss.  Best-effort —
   some platforms refuse to open or fsync a directory, and losing the
   *directory* entry is strictly less bad than losing the data the
   callers already fsynced. *)

let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () -> try Unix.fsync fd with Unix.Unix_error _ -> ())

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    (try Unix.mkdir dir 0o755
     with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    fsync_dir parent
  end

(* Tenant names become directory names, so anything that could escape the
   tenant root (path separators, "..", empty) is rejected rather than
   sanitized — a registry key must round-trip exactly. *)
let valid_tenant_name name =
  name <> "" && name <> "." && name <> ".."
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> true
         | _ -> false)
       name

let tenant_dir ~root ~name =
  if not (valid_tenant_name name) then
    invalid_arg (Printf.sprintf "Fsutil.tenant_dir: invalid tenant name %S" name);
  let dir = Filename.concat (Filename.concat root "tenants") name in
  mkdirs dir;
  dir

let group_dir root = Filename.concat root "groupwal"
