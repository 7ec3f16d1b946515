(* One physical log for many tenants: tenant-tagged records from every
   handle's commits accumulate in a shared group-commit window, and one
   fsync (the window close) makes the whole round durable for everyone.
   See groupwal.mli for the durability contract and the segment rules. *)

type t = {
  dir : string;
  segment_bytes : int;
  hook : Hook.point -> unit;
  m : Mutex.t;
  mutable fd : Unix.file_descr;
  mutable seg_start : int; (* LSN of the current segment's first record *)
  mutable seg_bytes : int; (* bytes already in the current segment *)
  mutable lsn : int; (* committed records since genesis *)
  mutable total_bytes : int; (* bytes committed since [open_] *)
  window : Buffer.t; (* committed bytes not yet handed to the OS *)
  mutable closed : bool;
  mutable window_closes : int;
  mutable forced_closes : int;
}

type handle = {
  gw : t;
  tenant : string;
  policy : Wal.sync option;
  lines : Buffer.t; (* uncommitted appends, encoded *)
  mutable pending : int; (* records in [lines] *)
  mutable hcommits : int;
  mutable hclosed : bool;
}

type contents = {
  tenants : (string * Record.t list) list;
  coflushes : Record.coflush list;
}

(* --- segment files ------------------------------------------------------ *)

let segment_name start = Printf.sprintf "wal-%012d.seg" start

let segment_start name =
  if
    String.length name = 20
    && String.sub name 0 4 = "wal-"
    && Filename.check_suffix name ".seg"
  then int_of_string_opt (String.sub name 4 12)
  else None

let segments dir =
  if not (Sys.file_exists dir) then []
  else
    Sys.readdir dir |> Array.to_list
    |> List.filter_map (fun name ->
           match segment_start name with
           | Some start -> Some (start, Filename.concat dir name)
           | None -> None)
    |> List.sort compare

(* Scan a segment's lines, stopping cleanly at the first damaged one.
   Returns the records up to the damage, the byte offset where the
   damage begins (= file size when none), and the damage description. *)
let scan_segment path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let records = ref [] in
      let good_end = ref 0 in
      let damage = ref None in
      (try
         while !damage = None do
           let line = input_line ic in
           (* A line missing its '\n' (torn write) ends at EOF; [pos_in]
              past it still counts the partial bytes, so only advance
              [good_end] when the record decodes. *)
           match Record.of_tagged_line line with
           | Ok r ->
               records := r :: !records;
               good_end := pos_in ic
           | Error e -> damage := Some e
         done
       with End_of_file -> ());
      (List.rev !records, !good_end, !damage))

(* The last segment of a scanned chain: where its intact records end,
   whether damaged bytes follow them, and the LSN after them. *)
type tail = {
  start : int;
  path : string;
  good_end : int;
  torn : bool;
  end_lsn : int;
}

(* The chain rules, stated once for [open_] and [read]: every segment
   before the last decodes whole; each segment's start plus its record
   count is the next segment's start; a damaged line may end only the
   last segment (a torn tail — its intact prefix counts); and records
   wanted from [from_lsn] must not lie in a truncated gap before the
   first segment.  Returns the records at [from_lsn] or later, in order,
   and the tail; [None] when the log has no segment yet.  Reads only. *)
let scan_chain ~dir ~from_lsn =
  match segments dir with
  | [] -> Ok None
  | (first, path) :: _ when first > from_lsn ->
      (* Records in [from_lsn, first) were truncated away but are still
         wanted (a manifest older than the truncation, say); skipping the
         gap would replay from the wrong state. *)
      Error
        (Printf.sprintf
           "wal gap: first segment %s starts at lsn %d, past requested %d" path
           first from_lsn)
  | segs ->
      let rec go acc = function
        | [] -> assert false
        | (start, path) :: rest -> (
            let records, good_end, damage = scan_segment path in
            let count = List.length records in
            let acc =
              List.fold_left
                (fun (lsn, acc) r ->
                  (lsn + 1, if lsn >= from_lsn then r :: acc else acc))
                (start, acc) records
              |> snd
            in
            match (rest, damage) with
            | [], _ ->
                Ok
                  (Some
                     ( List.rev acc,
                       {
                         start;
                         path;
                         good_end;
                         torn = damage <> None;
                         end_lsn = start + count;
                       } ))
            | _ :: _, Some e ->
                Error (Printf.sprintf "corrupt segment %s: %s" path e)
            | (next, _) :: _, None when start + count <> next ->
                Error
                  (Printf.sprintf
                     "segment chain broken at %s (%d records, next segment \
                      starts at %d)"
                     path count next)
            | _ :: _, None -> go acc rest)
      in
      go [] segs

(* Demux preserving each tenant's record order and first-appearance
   tenant order; replay is then identical to reading a private
   per-tenant log. *)
let demux tagged =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  let coflushes = ref [] in
  List.iter
    (function
      | Record.Coflush c -> coflushes := c :: !coflushes
      | Record.Tenant (tenant, r) -> (
          match Hashtbl.find_opt tbl tenant with
          | None ->
              order := tenant :: !order;
              Hashtbl.replace tbl tenant [ r ]
          | Some rs -> Hashtbl.replace tbl tenant (r :: rs)))
    tagged;
  {
    tenants =
      List.rev_map
        (fun tenant -> (tenant, List.rev (Hashtbl.find tbl tenant)))
        !order;
    coflushes = List.rev !coflushes;
  }

let read ~dir ~from_lsn =
  match scan_chain ~dir ~from_lsn with
  | Error _ as e -> e
  | Ok None -> Ok (demux [])
  | Ok (Some (records, _)) -> Ok (demux records)

(* --- opening ------------------------------------------------------------ *)

let open_segment_for_append path =
  Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ] 0o644

let ends_with_newline path size =
  size > 0
  &&
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      seek_in ic (size - 1);
      input_char ic = '\n')

(* A tear can fall exactly before a record's terminating '\n': the record
   decodes (CRC passes) but the file ends mid-line, and the O_APPEND
   handle would write the next record onto the same line — merging two
   committed records into one that fails CRC forever.  Complete the line
   before reusing the segment for appends. *)
let repair_missing_newline path size =
  if size = 0 || ends_with_newline path size then size
  else begin
    let fd = open_segment_for_append path in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        let rec put () = if Unix.write_substring fd "\n" 0 1 = 0 then put () in
        put ();
        Unix.fsync fd);
    size + 1
  end

(* Cut a torn tail back to its last intact record.  Runs only after the
   whole chain passed [scan_chain]. *)
let repair_tail ~hook tail =
  if tail.torn then begin
    let size = (Unix.stat tail.path).Unix.st_size in
    if tail.good_end < size then begin
      let fd = Unix.openfile tail.path [ Unix.O_WRONLY ] 0o644 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.ftruncate fd tail.good_end;
          Unix.fsync fd);
      hook (Hook.Truncated { upto = tail.end_lsn })
    end
  end;
  repair_missing_newline tail.path tail.good_end

let open_ ~dir ?(segment_bytes = 1 lsl 20) ?(hook = Hook.none) ~from_lsn () =
  if segment_bytes <= 0 then
    invalid_arg "Groupwal.open_: segment_bytes must be > 0";
  Fsutil.mkdirs dir;
  match scan_chain ~dir ~from_lsn with
  | Error _ as e -> e
  | Ok scanned ->
      let seg_start, seg_bytes, lsn, records =
        match scanned with
        | None ->
            let path = Filename.concat dir (segment_name 0) in
            Unix.close (open_segment_for_append path);
            Fsutil.fsync_dir dir;
            (0, 0, 0, [])
        | Some (records, tail) ->
            (tail.start, repair_tail ~hook tail, tail.end_lsn, records)
      in
      Ok
        ( {
            dir;
            segment_bytes;
            hook;
            m = Mutex.create ();
            fd =
              open_segment_for_append
                (Filename.concat dir (segment_name seg_start));
            seg_start;
            seg_bytes;
            lsn;
            total_bytes = 0;
            window = Buffer.create 512;
            closed = false;
            window_closes = 0;
            forced_closes = 0;
          },
          demux records )

(* --- committing --------------------------------------------------------- *)

let lsn gw = gw.lsn
let total_bytes gw = gw.total_bytes
let window_closes gw = gw.window_closes
let forced_closes gw = gw.forced_closes

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then
      let n = Unix.write_substring fd s off (len - off) in
      go (off + n)
  in
  go 0

(* Group commit: the write syscall is deferred along with the fsync —
   committed bytes sit in the window until the next durability point (a
   window close, a rotation, or [close]).  One write + one fsync then
   covers every commit in it. *)
let flush_window gw =
  if Buffer.length gw.window > 0 then begin
    write_all gw.fd (Buffer.contents gw.window);
    Buffer.clear gw.window
  end

let fsync gw =
  flush_window gw;
  Unix.fsync gw.fd;
  Telemetry.incr "durable.fsyncs"

let rotate gw =
  (* The old segment's contents must be durable before a successor
     segment exists, otherwise the chain check on reopen could see a
     full successor after an incomplete predecessor. *)
  fsync gw;
  Unix.close gw.fd;
  let start = gw.lsn in
  let path = Filename.concat gw.dir (segment_name start) in
  gw.fd <-
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644;
  Fsutil.fsync_dir gw.dir;
  gw.seg_start <- start;
  gw.seg_bytes <- 0;
  Telemetry.incr "durable.segments";
  gw.hook (Hook.Rotated { start })

(* One commit: copy [count] encoded records out of [lines] into the
   window (emptying [lines]), advance the LSN, fire [Committed], and
   rotate if the segment is over budget.  Caller holds the lock. *)
let commit_locked gw ~count lines =
  if gw.closed then invalid_arg "Groupwal.commit: log closed";
  let bytes = Buffer.length lines in
  Buffer.add_buffer gw.window lines;
  Buffer.clear lines;
  gw.lsn <- gw.lsn + count;
  gw.seg_bytes <- gw.seg_bytes + bytes;
  gw.total_bytes <- gw.total_bytes + bytes;
  Telemetry.add "durable.appends" (float_of_int count);
  Telemetry.incr "durable.commits";
  gw.hook (Hook.Committed { lsn = gw.lsn });
  if gw.seg_bytes >= gw.segment_bytes then rotate gw

let close_window_locked gw ~forced =
  if Buffer.length gw.window > 0 then begin
    fsync gw;
    gw.window_closes <- gw.window_closes + 1;
    if forced then gw.forced_closes <- gw.forced_closes + 1;
    Telemetry.incr "durable.window_closes";
    gw.hook (Hook.Window_closed { lsn = gw.lsn });
    true
  end
  else false

let locked gw f =
  Mutex.lock gw.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock gw.m) f

let close_window gw = locked gw (fun () -> close_window_locked gw ~forced:false)

let truncate_before gw target =
  locked gw (fun () ->
      if gw.closed then invalid_arg "Groupwal.truncate_before: log closed";
      (* A segment is disposable when the next segment starts at or below
         [target] (so every record in it precedes the target) and it is
         not the segment currently being written. *)
      let rec go deleted = function
        | (start, path) :: ((next_start, _) :: _ as rest)
          when next_start <= target && start <> gw.seg_start ->
            Sys.remove path;
            go (max deleted next_start) rest
        | _ -> deleted
      in
      let deleted_upto = go 0 (segments gw.dir) in
      if deleted_upto > 0 then begin
        Fsutil.fsync_dir gw.dir;
        Telemetry.incr "durable.truncations";
        gw.hook (Hook.Truncated { upto = deleted_upto })
      end)

let attach gw ~tenant ?policy () =
  if not (Fsutil.valid_tenant_name tenant) then
    invalid_arg (Printf.sprintf "Groupwal.attach: invalid tenant %S" tenant);
  (match policy with
  | Some (Wal.Interval n) when n <= 0 ->
      invalid_arg "Groupwal.attach: Interval must be > 0"
  | _ -> ());
  let lines = Buffer.create 256 in
  { gw; tenant; policy; lines; pending = 0; hcommits = 0; hclosed = false }

(* A handle belongs to one tenant, which runs on one domain at a time, so
   its records are encoded here, outside the log's lock. *)
let append h r =
  if h.hclosed then invalid_arg "Groupwal.append: handle closed";
  Record.add_line h.lines (Record.Tenant (h.tenant, r));
  h.pending <- h.pending + 1

let commit h =
  if h.hclosed then invalid_arg "Groupwal.commit: handle closed";
  if h.pending > 0 then begin
    let gw = h.gw and count = h.pending in
    h.pending <- 0;
    locked gw (fun () ->
        h.hcommits <- h.hcommits + 1;
        commit_locked gw ~count h.lines;
        (* A per-tenant policy stricter than the window cadence forces
           the window closed right here; everyone else's pending commits
           ride along for free — that is the point of the shared
           window. *)
        match h.policy with
        | Some Wal.Always -> ignore (close_window_locked gw ~forced:true)
        | Some (Wal.Interval k) ->
            if h.hcommits mod k = 0 then
              ignore (close_window_locked gw ~forced:true)
        | Some Wal.Never | None -> ())
  end

(* Detaching a handle drops its uncommitted appends (a crash would drop
   them too), but the shared log stays open — it belongs to the service,
   not to any one tenant. *)
let detach h =
  if not h.hclosed then begin
    h.hclosed <- true;
    Buffer.reset h.lines;
    h.pending <- 0
  end

(* A service record is one commit of its own: everything committed after
   it — in this window or a later one — follows it in the log, so a crash
   can never keep a later commit while losing it. *)
let commit_coflush gw c =
  let line = Buffer.create 64 in
  Record.add_line line (Record.Coflush c);
  locked gw (fun () -> commit_locked gw ~count:1 line)

let close gw =
  if not gw.closed then begin
    gw.closed <- true;
    (* A clean shutdown writes the open window out (without an fsync);
       only a handle's uncommitted appends are dropped. *)
    flush_window gw;
    Unix.close gw.fd
  end

let abandon gw =
  if not gw.closed then begin
    gw.closed <- true;
    (* Simulated crash: committed-but-unwritten window bytes die with the
       process, exactly as they would without the fd cleanup. *)
    Buffer.clear gw.window;
    Unix.close gw.fd
  end
