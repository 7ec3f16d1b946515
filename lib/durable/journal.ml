exception Diverged of string

type t = {
  at : int -> string;
  append : Record.t -> unit;
  mutable held : Record.t list;
  mutable matched : int;
}

let create ~at append = { at; append; held = []; matched = 0 }
let hold j records = j.held <- records
let held j = j.held
let matched j = j.matched

let diverged j time fmt =
  Printf.ksprintf (fun e -> raise (Diverged (j.at time ^ e))) fmt

let record j (record : Record.t) =
  match (record, j.held) with
  | _, [] -> j.append record
  | _, next :: rest when Record.equal next record ->
      j.held <- rest;
      j.matched <- j.matched + 1
  | Arrival { time; table; _ }, Arrival a :: _
    when a.time = time && a.table = table ->
      diverged j time
        " table %d: journalled arrival differs from the deterministic feed"
        table
  | Arrival { time; table; _ }, _ ->
      diverged j time
        " table %d: WAL does not match the tenant's deterministic arrival \
         schedule"
        table
  | Applied { time; table; count; cost }, Applied a :: _
    when a.table = table && a.count = count ->
      diverged j time
        ": table %d: recomputed cost %.17g differs from recorded %.17g — \
         non-deterministic replay"
        table cost a.cost
  | Applied { time; table; _ }, _ ->
      diverged j time ": table %d: applied record does not match the batch"
        table
