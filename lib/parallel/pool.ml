type task = unit -> unit

(* Every submitted task belongs to a batch; the batch tracks how many of
   its tasks are still outstanding and the first failure among them.  A
   [map] is a batch the caller waits on; a [detach]ed job is
   a single-task batch nobody waits on until [await]. *)
type batch = {
  mutable remaining : int;
  mutable failure : (exn * Printexc.raw_backtrace) option;
  finished : Condition.t;  (* signalled when [remaining] drops to zero *)
}

type t = {
  domains : int;
  m : Mutex.t;
  work : Condition.t;  (* signalled when the queue gains tasks / on close *)
  queue : (batch * task) Queue.t;
  mutable closing : bool;
  mutable workers : unit Domain.t list;
}

type job = { owner : t; b : batch }

let domains t = t.domains

let new_batch n = { remaining = n; failure = None; finished = Condition.create () }

(* Run one task outside the lock, recording the first failure and the
   batch-completion signal under it. *)
let run_item t (b, task) =
  let failure =
    try
      task ();
      None
    with e -> Some (e, Printexc.get_raw_backtrace ())
  in
  Mutex.lock t.m;
  (match failure with
  | Some _ when b.failure = None -> b.failure <- failure
  | _ -> ());
  b.remaining <- b.remaining - 1;
  if b.remaining = 0 then Condition.broadcast b.finished;
  Mutex.unlock t.m

let rec worker_loop t =
  Mutex.lock t.m;
  while Queue.is_empty t.queue && not t.closing do
    Condition.wait t.work t.m
  done;
  if Queue.is_empty t.queue then Mutex.unlock t.m (* closing *)
  else begin
    let item = Queue.pop t.queue in
    Mutex.unlock t.m;
    run_item t item;
    worker_loop t
  end

let create ?domains () =
  let domains =
    match domains with
    | Some d -> max 1 d
    | None -> max 1 (Domain.recommended_domain_count ())
  in
  let t =
    {
      domains;
      m = Mutex.create ();
      work = Condition.create ();
      queue = Queue.create ();
      closing = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

(* With the lock held: help run queued items until [b] completes or the
   queue is empty, then wait on the batch condition.  Items from other
   batches may be picked up along the way — they always terminate on
   their own, so this only reorders work, never blocks progress. *)
let wait_batch t b =
  let rec drain () =
    if b.remaining > 0 && not (Queue.is_empty t.queue) then begin
      let item = Queue.pop t.queue in
      Mutex.unlock t.m;
      run_item t item;
      Mutex.lock t.m;
      drain ()
    end
  in
  drain ();
  while b.remaining > 0 do
    Condition.wait b.finished t.m
  done;
  let failure = b.failure in
  Mutex.unlock t.m;
  match failure with
  | Some (e, bt) -> Printexc.raise_with_backtrace e bt
  | None -> ()

(* Take the lock on a pool that is still open; [shutdown] makes every
   later submission raise, also on the inline [domains:1] paths. *)
let lock_open t =
  Mutex.lock t.m;
  if t.closing then begin
    Mutex.unlock t.m;
    invalid_arg "Pool: pool is shut down"
  end

let map t f arr =
  let n = Array.length arr in
  lock_open t;
  if t.domains = 1 || n <= 1 then begin
    Mutex.unlock t.m;
    Array.map f arr
  end
  else begin
    (* Submit one batch and participate until it fully drains. *)
    let results = Array.make n None in
    let b = new_batch n in
    for i = 0 to n - 1 do
      Queue.push (b, fun () -> results.(i) <- Some (f arr.(i))) t.queue
    done;
    Condition.broadcast t.work;
    wait_batch t b;
    Array.map (function Some v -> v | None -> assert false) results
  end

let detach t task =
  let b = new_batch 1 in
  lock_open t;
  if t.domains = 1 then begin
    (* No workers to hand the task to: run it here, synchronously.  The
       job is already settled when it is returned — bit-identical to the
       pre-pool sequential path. *)
    Mutex.unlock t.m;
    run_item t (b, task)
  end
  else begin
    Queue.push (b, task) t.queue;
    Condition.signal t.work;
    Mutex.unlock t.m
  end;
  { owner = t; b }

let poll job =
  let t = job.owner in
  Mutex.lock t.m;
  let state =
    if job.b.remaining > 0 then `Running
    else match job.b.failure with None -> `Done | Some _ -> `Failed
  in
  Mutex.unlock t.m;
  state

let await job =
  let t = job.owner in
  Mutex.lock t.m;
  wait_batch t job.b

let shutdown t =
  Mutex.lock t.m;
  let workers = t.workers in
  t.workers <- [];
  if not t.closing then begin
    t.closing <- true;
    Condition.broadcast t.work
  end;
  Mutex.unlock t.m;
  List.iter Domain.join workers

let with_pool ?domains f =
  let t = create ?domains () in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
