val fsync_dir : string -> unit
(** Fsync a directory file descriptor so renames, unlinks and new
    entries in it are durable.  Best-effort: errors opening or syncing
    the directory are swallowed. *)

val mkdirs : string -> unit
(** [mkdir -p]: create the directory and any missing parents (mode
    0o755), fsyncing each parent that gained an entry.  Existing
    directories are left alone. *)

val valid_tenant_name : string -> bool
(** Accepts exactly the names {!tenant_dir} accepts: nonempty strings of
    ASCII letters, digits, ['-'], ['_'], ['.'], excluding ["."] and
    [".."]. *)

val tenant_dir : root:string -> name:string -> string
(** [root/tenants/<name>], created (with parents) if missing — the
    per-tenant durability directory a serve-mode tenant's WAL and
    manifest live in.  Raises [Invalid_argument] if [name] fails
    {!valid_tenant_name} (anything that could escape the tenant root:
    empty, path separators, ".."). *)

val group_dir : string -> string
(** [root/groupwal]: where a serve root or a [Durable.Exec] directory
    keeps its group log ({!Groupwal}). *)
