(* One physical log for many tenants: tenant-tagged records from every
   handle's commits accumulate in a shared group-commit window, and one
   fsync (the window close) makes the whole round durable for everyone.
   See groupwal.mli for the durability contract. *)

module Log = Wal.Make (struct
  type r = Record.tagged

  let to_line = Record.to_tagged_line
  let of_line = Record.of_tagged_line
end)

type t = {
  log : Log.t;
  m : Mutex.t;
  mutable window_closes : int;
  mutable forced_closes : int;
  hook : Hook.point -> unit;
}

type handle = {
  gw : t;
  tenant : string;
  policy : Wal.sync option;
  mutable hbuf : Record.t list; (* reversed; uncommitted appends *)
  mutable hbuffered : int;
  mutable hcommits : int;
  mutable hclosed : bool;
}

let open_ ~dir ?segment_bytes ?(hook = Hook.none) () =
  (* The physical log never fsyncs on its own: every durability point is
     an explicit window close, so the fsync count is exactly the
     window-close count (plus rotations). *)
  let log = Log.open_ ~dir ?segment_bytes ~hook () in
  { log; m = Mutex.create (); window_closes = 0; forced_closes = 0; hook }

let lsn gw = Log.lsn gw.log
let total_bytes gw = Log.total_bytes gw.log
let window_closes gw = gw.window_closes
let forced_closes gw = gw.forced_closes

let close_window_locked gw ~forced =
  if Log.pending_bytes gw.log > 0 then begin
    Log.sync_now gw.log;
    gw.window_closes <- gw.window_closes + 1;
    if forced then gw.forced_closes <- gw.forced_closes + 1;
    Telemetry.incr "durable.window_closes";
    gw.hook (Hook.Window_closed { lsn = Log.lsn gw.log });
    true
  end
  else false

let locked gw f =
  Mutex.lock gw.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock gw.m) f

let close_window gw = locked gw (fun () -> close_window_locked gw ~forced:false)
let truncate_before gw lsn =
  locked gw (fun () -> Log.truncate_before gw.log lsn)

let attach gw ~tenant ?policy () =
  if not (Fsutil.valid_tenant_name tenant) then
    invalid_arg (Printf.sprintf "Groupwal.attach: invalid tenant %S" tenant);
  (match policy with
  | Some (Wal.Interval n) when n <= 0 ->
      invalid_arg "Groupwal.attach: Interval must be > 0"
  | _ -> ());
  { gw; tenant; policy; hbuf = []; hbuffered = 0; hcommits = 0; hclosed = false }

let append h r =
  if h.hclosed then invalid_arg "Groupwal.append: handle closed";
  h.hbuf <- r :: h.hbuf;
  h.hbuffered <- h.hbuffered + 1


let commit h =
  if h.hclosed then invalid_arg "Groupwal.commit: handle closed";
  if h.hbuffered > 0 then begin
    let gw = h.gw in
    locked gw (fun () ->
        List.iter
          (fun r -> Log.append gw.log (Record.Tenant (h.tenant, r)))
          (List.rev h.hbuf);
        h.hbuf <- [];
        h.hbuffered <- 0;
        h.hcommits <- h.hcommits + 1;
        Log.commit gw.log;
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

(* Detaching a handle is the per-tenant analogue of [Wal.close]: any
   uncommitted appends are dropped (a crash would drop them too), but
   the shared log stays open — it belongs to the service, not to any
   one tenant. *)
let detach h =
  if not h.hclosed then begin
    h.hclosed <- true;
    h.hbuf <- [];
    h.hbuffered <- 0
  end

let close gw = Log.close gw.log
let abandon gw = Log.abandon gw.log

(* A service record is one commit of its own: everything committed after
   it — in this window or a later one — follows it in the log, so a crash
   can never keep a later commit while losing it. *)
let commit_coflush gw c =
  locked gw (fun () ->
      Log.append gw.log (Record.Coflush c);
      Log.commit gw.log)

type contents = {
  tenants : (string * Record.t list) list;
  coflushes : Record.coflush list;
}

let read ~dir ~from_lsn =
  match Log.read ~dir ~from_lsn with
  | Error _ as e -> e
  | Ok tagged ->
      (* Demux preserving each tenant's record order and first-appearance
         tenant order; replay is then identical to reading a private
         per-tenant WAL. *)
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
      Ok
        {
          tenants =
            List.rev_map
              (fun tenant -> (tenant, List.rev (Hashtbl.find tbl tenant)))
              !order;
          coflushes = List.rev !coflushes;
        }
