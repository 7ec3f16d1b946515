(** The durability directory's root of trust.

    The [MANIFEST] file names the scenario parameters and at most one
    checkpoint: the newest one that was {e completely} written (temp +
    fsync + rename all done).  Recovery starts from it and replays the
    group log from its LSN; a checkpoint file the manifest does not name
    is garbage from a crash (or a superseded image) and is never read.
    One is enough: once a newer checkpoint is adopted the log is
    truncated below its LSN, so an older one's tail is gone.  The
    manifest itself is replaced atomically. *)

type t = {
  params : (string * string) list;
  checkpoint : (int * string) option;  (** (lsn, basename) *)
}

val empty : params:(string * string) list -> t

val save : dir:string -> ?hook:(Hook.point -> unit) -> t -> unit
(** Atomic replace; fires [Hook.Manifest_updated] after the rename. *)

val load : dir:string -> (t option, string) result
(** [Ok None] when no manifest exists (fresh or never-started
    directory); [Error] on a torn or malformed file, and on one that
    lists more than one checkpoint. *)

(** {1 Reading params}

    One reader for the [params] of every manifest kind (a durable run, a
    serve root, a tenant).  [what] names the kind in the refusal. *)

val find : what:string -> (string * string) list -> string -> (string, string) result
(** The value of [key], or [Error "<what> params missing \"<key>\""]. *)

val parse : string -> (string -> 'a option) -> string -> ('a, string) result
(** [parse key conv v] — [conv v], or [Error "bad <key> parameter
    \"<v>\""]. *)

val get :
  what:string ->
  (string * string) list ->
  string ->
  (string -> 'a option) ->
  ('a, string) result
(** {!find}, then {!parse}. *)

val float_if : (float -> bool) -> string -> float option
(** A float converter for {!parse}: the number, if [float_of_string_opt]
    reads one that satisfies the predicate. *)
