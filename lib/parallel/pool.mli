(** A dependency-free domain pool (stdlib [Domain] + [Mutex]/[Condition]).

    The pool owns [domains - 1] worker domains; the calling domain is the
    remaining worker, so [create ~domains:1] spawns nothing and every
    operation degenerates to plain sequential execution — bit-identical to
    not using a pool at all.

    {!map} is synchronous: it returns only once every task of the batch
    has finished.  The first exception raised by any task is
    re-raised in the caller (with its backtrace) after the batch drains;
    remaining tasks still run.  Submitting from two domains at once is not
    supported — a pool has exactly one submitting domain at a time. *)

type t

val create : ?domains:int -> unit -> t
(** [create ~domains ()] starts a pool of [max 1 domains] workers
    (including the caller).  Default: [Domain.recommended_domain_count ()]. *)

val domains : t -> int
(** Worker count, caller included.  At least 1. *)

val map : t -> ('a -> 'b) -> 'a array -> 'b array
(** Parallel [Array.map].  Tasks must be independent (never block on one
    another); any number of them is fine — excess tasks queue.  Order of
    side effects is unspecified, results are in input order.  Raises
    [Invalid_argument] after {!shutdown}, also at [domains t = 1]. *)

type job
(** A detached single task running in the background.  Unlike a {!map}
    batch, the submitter does not wait: it keeps working and
    later {!poll}s or {!await}s the job.  Used to move checkpoint
    serialization off the maintenance thread. *)

val detach : t -> (unit -> unit) -> job
(** Submit one background task.  With [domains t = 1] there are no worker
    domains, so the task runs inline before [detach] returns and the job
    is already settled — the sequential degenerate case stays
    bit-identical.  The task must terminate without depending on further
    pool progress.  Raises [Invalid_argument] after {!shutdown}, also at
    [domains t = 1]. *)

val poll : job -> [ `Running | `Done | `Failed ]
(** Non-blocking completion check. *)

val await : job -> unit
(** Block until the job finishes, helping to drain the queue meanwhile.
    Re-raises the job's exception (with backtrace) if it failed.  Safe to
    call more than once; later calls return (or re-raise) immediately. *)

val shutdown : t -> unit
(** Join all worker domains.  Idempotent.  Using the pool afterwards
    raises [Invalid_argument]. *)

val with_pool : ?domains:int -> (t -> 'a) -> 'a
(** [create], run the function, always [shutdown]. *)
