(** The one journal of a maintenance step, live and on replay
    ([Serve.Tenant] and [Durable.Exec] both journal through it).

    Every record a step makes goes through {!record}.  A recovering
    process {!hold}s its log tail and re-runs its steps: while records
    are held, each one a step makes must be the next held one, payload
    for payload ({!Record.equal}), and consumes it; once the tail is used
    up, records go to the journal's [append] (the group log), so a tail
    cut mid-step is completed by the live step. *)

exception Diverged of string
(** A replayed step that parts from its log tail. *)

type t

val create : at:(int -> string) -> (Record.t -> unit) -> t
(** [create ~at append]: a journal holding nothing.  [at time] names
    step [time] at the head of a {!Diverged} text. *)

val hold : t -> Record.t list -> unit
(** Hold a log tail, oldest first. *)

val held : t -> Record.t list  (** the held records not yet matched *)

val matched : t -> int  (** records matched so far *)

val record : t -> Record.t -> unit
(** Match the next held record, or [append] once none is held.  On a
    mismatch raises {!Diverged}: an arrival of the held record's step
    and table "differs from the deterministic feed", another arrival
    does not match "the deterministic arrival schedule", a batch of the
    held count has a cost that "differs from recorded", another batch
    "does not match the batch". *)

val diverged : t -> int -> ('a, unit, string, 'b) format4 -> 'a
(** [diverged j time fmt ...] raises {!Diverged} with [at time] followed
    by the formatted text: a caller's own refusal of a replayed step. *)
