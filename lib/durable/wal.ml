type sync = Always | Interval of int | Never

let sync_to_string = function
  | Always -> "always"
  | Never -> "never"
  | Interval n -> Printf.sprintf "interval:%d" n

let sync_of_string text =
  match String.lowercase_ascii text with
  | "always" -> Ok Always
  | "never" -> Ok Never
  | other -> (
      match String.index_opt other ':' with
      | Some i when String.sub other 0 i = "interval" -> (
          match
            int_of_string_opt
              (String.sub other (i + 1) (String.length other - i - 1))
          with
          | Some n when n > 0 -> Ok (Interval n)
          | _ -> Error (Printf.sprintf "bad sync policy %S" text))
      | _ -> Error (Printf.sprintf "bad sync policy %S" text))

module type LINE = sig
  type r

  val to_line : r -> string
  val of_line : string -> (r, string) result
end

(* The whole segment machine — tail repair, rotation, the pending window,
   chain validation — is agnostic to what a record *is*; it only needs a
   line codec.  When to sync is not its business either: the caller
   (Groupwal's window closes) decides. *)
module Make (C : LINE) = struct
  type r = C.r

  type t = {
    dir : string;
    segment_bytes : int;
    hook : Hook.point -> unit;
    mutable fd : Unix.file_descr;
    mutable seg_start : int; (* LSN of the current segment's first record *)
    mutable seg_bytes : int; (* bytes already in the current segment *)
    mutable lsn : int; (* committed records since genesis *)
    mutable total_bytes : int; (* bytes committed through this handle *)
    buffer : Buffer.t;
    mutable buffered : int; (* records in [buffer] *)
    pending : Buffer.t; (* committed bytes not yet handed to the OS *)
    mutable closed : bool;
  }

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
             (* A line missing its '\n' (torn write) ends at EOF;
                [pos_in] past it still counts the partial bytes, so only
                advance [good_end] when the record decodes. *)
             match C.of_line line with
             | Ok r ->
                 records := r :: !records;
                 good_end := pos_in ic
             | Error e -> damage := Some e
           done
         with End_of_file -> ());
        (List.rev !records, !good_end, !damage))

  let incr_counter name = Telemetry.incr name

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

  (* A tear can fall exactly before a record's terminating '\n': the
     record decodes (CRC passes) but the file ends mid-line, and the
     O_APPEND handle would write the next record onto the same line —
     merging two committed records into one that fails CRC forever.
     Complete the line before reusing the segment for appends. *)
  let repair_missing_newline path size =
    if size = 0 || ends_with_newline path size then size
    else begin
      let fd = open_segment_for_append path in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          let rec put () =
            if Unix.write_substring fd "\n" 0 1 = 0 then put ()
          in
          put ();
          Unix.fsync fd);
      size + 1
    end

  let open_ ~dir ?(segment_bytes = 1 lsl 20) ?(hook = Hook.none) () =
    if segment_bytes <= 0 then
      invalid_arg "Wal.open_: segment_bytes must be > 0";
    Fsutil.mkdirs dir;
    let seg_start, seg_bytes, lsn =
      match segments dir with
      | [] ->
          let path = Filename.concat dir (segment_name 0) in
          Unix.close (open_segment_for_append path);
          Fsutil.fsync_dir dir;
          (0, 0, 0)
      | segs ->
          (* Every segment but the last must be fully intact; the last may
             have a torn tail, which we repair in place. *)
          let rec check = function
            | [] -> assert false
            | [ (start, path) ] -> (
                let records, good_end, damage = scan_segment path in
                (match damage with
                | None -> ()
                | Some e ->
                    let size = (Unix.stat path).Unix.st_size in
                    if good_end < size then (
                      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
                      Fun.protect
                        ~finally:(fun () -> Unix.close fd)
                        (fun () ->
                          Unix.ftruncate fd good_end;
                          Unix.fsync fd);
                      hook
                        (Hook.Truncated { upto = start + List.length records }));
                    ignore e);
                let seg_bytes = repair_missing_newline path good_end in
                (start, seg_bytes, start + List.length records))
            | (start, path) :: ((next_start, _) :: _ as rest) ->
                let records, _, damage = scan_segment path in
                (match damage with
                | Some e ->
                    failwith
                      (Printf.sprintf "Wal.open_: corrupt segment %s: %s" path
                         e)
                | None -> ());
                let count = List.length records in
                if start + count <> next_start then
                  failwith
                    (Printf.sprintf
                       "Wal.open_: segment chain broken at %s (%d records, \
                        next segment starts at %d)"
                       path count next_start);
                check rest
          in
          check segs
    in
    {
      dir;
      segment_bytes;
      hook;
      fd = open_segment_for_append (Filename.concat dir (segment_name seg_start));
      seg_start;
      seg_bytes;
      lsn;
      total_bytes = 0;
      buffer = Buffer.create 512;
      buffered = 0;
      pending = Buffer.create 512;
      closed = false;
    }

  let lsn w = w.lsn
  let total_bytes w = w.total_bytes
  let pending_bytes w = Buffer.length w.pending

  let append w r =
    if w.closed then invalid_arg "Wal.append: closed";
    Buffer.add_string w.buffer (C.to_line r);
    Buffer.add_char w.buffer '\n';
    w.buffered <- w.buffered + 1;
    incr_counter "durable.appends"

  let write_all fd s =
    let len = String.length s in
    let rec go off =
      if off < len then
        let n = Unix.write_substring fd s off (len - off) in
        go (off + n)
    in
    go 0

  (* Group commit: the write syscall is deferred along with the fsync —
     committed bytes sit in [pending] until the next durability point
     ({!sync_now}, rotation, {!close}).  One write + one fsync then covers
     the whole batch of commits. *)
  let flush_pending w =
    if Buffer.length w.pending > 0 then begin
      write_all w.fd (Buffer.contents w.pending);
      Buffer.clear w.pending
    end

  let fsync w =
    flush_pending w;
    Unix.fsync w.fd;
    incr_counter "durable.fsyncs"

  let rotate w =
    (* The old segment's contents must be durable before a successor
       segment exists, otherwise the chain check on reopen could see a
       full successor after an incomplete predecessor. *)
    fsync w;
    Unix.close w.fd;
    let start = w.lsn in
    let path = Filename.concat w.dir (segment_name start) in
    w.fd <-
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644;
    Fsutil.fsync_dir w.dir;
    w.seg_start <- start;
    w.seg_bytes <- 0;
    incr_counter "durable.segments";
    w.hook (Hook.Rotated { start })

  let commit w =
    if w.closed then invalid_arg "Wal.commit: closed";
    if w.buffered > 0 then begin
      let batch = Buffer.contents w.buffer in
      Buffer.clear w.buffer;
      let n = w.buffered in
      w.buffered <- 0;
      Buffer.add_string w.pending batch;
      w.lsn <- w.lsn + n;
      w.seg_bytes <- w.seg_bytes + String.length batch;
      w.total_bytes <- w.total_bytes + String.length batch;
      incr_counter "durable.commits";
      w.hook (Hook.Committed { lsn = w.lsn });
      if w.seg_bytes >= w.segment_bytes then rotate w
    end

  let sync_now w =
    if w.closed then invalid_arg "Wal.sync_now: closed";
    fsync w

  let truncate_before w target =
    if w.closed then invalid_arg "Wal.truncate_before: closed";
    let segs = segments w.dir in
    (* A segment is disposable when the next segment starts at or below
       [target] (so every record in it precedes the target) and it is not
       the segment currently being written. *)
    let rec go deleted = function
      | (start, path) :: ((next_start, _) :: _ as rest)
        when next_start <= target && start <> w.seg_start ->
          Sys.remove path;
          go (max deleted next_start) rest
      | _ -> deleted
    in
    let deleted_upto = go 0 segs in
    if deleted_upto > 0 then begin
      Fsutil.fsync_dir w.dir;
      incr_counter "durable.truncations";
      w.hook (Hook.Truncated { upto = deleted_upto })
    end

  let close w =
    if not w.closed then begin
      w.closed <- true;
      (* A clean shutdown writes committed records out; only uncommitted
         appends are dropped (exactly what a crash would lose at best).
         Crash semantics for tests = {!abandon}. *)
      flush_pending w;
      Buffer.clear w.buffer;
      w.buffered <- 0;
      Unix.close w.fd
    end

  let abandon w =
    if not w.closed then begin
      w.closed <- true;
      (* Simulated crash: committed-but-unflushed group-commit bytes die
         with the process, exactly as they would without the fd cleanup. *)
      Buffer.clear w.pending;
      Buffer.clear w.buffer;
      w.buffered <- 0;
      Unix.close w.fd
    end

  let read ~dir ~from_lsn =
    match segments dir with
    | [] -> Ok []
    | (first_start, first_path) :: _ when first_start > from_lsn ->
        (* Records in [from_lsn, first_start) were truncated away but are
           still wanted — e.g. a manifest older than the truncation.
           Silently skipping the gap would replay from the wrong
           state. *)
        Error
          (Printf.sprintf
             "wal gap: first segment %s starts at lsn %d, past requested %d"
             first_path first_start from_lsn)
    | segs ->
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | (start, path) :: rest -> (
              let records, _, damage = scan_segment path in
              let count = List.length records in
              match (damage, rest) with
              | Some e, _ :: _ ->
                  Error (Printf.sprintf "corrupt segment %s: %s" path e)
              | _, (next_start, _) :: _ when start + count <> next_start ->
                  Error
                    (Printf.sprintf
                       "segment chain broken at %s (%d records, next segment \
                        starts at %d)"
                       path count next_start)
              | _ ->
                  let acc =
                    List.fold_left
                      (fun (i, acc) r ->
                        (i + 1, if start + i >= from_lsn then r :: acc else acc))
                      (0, acc) records
                    |> snd
                  in
                  go acc rest)
        in
        go [] segs
end
