(* A Vec plus a head offset; compacted when the dead prefix dominates. *)
type t = { mutable items : Change.t Util.Vec.t; mutable head : int }

let create () = { items = Util.Vec.create (); head = 0 }

let push q change = Util.Vec.push q.items change

let size q = Util.Vec.length q.items - q.head

let compact q =
  if q.head > 1024 && q.head > Util.Vec.length q.items / 2 then begin
    let fresh = Util.Vec.create () in
    for i = q.head to Util.Vec.length q.items - 1 do
      Util.Vec.push fresh (Util.Vec.get q.items i)
    done;
    q.items <- fresh;
    q.head <- 0
  end

let take q k =
  if k < 0 then invalid_arg "Pending.take: negative count";
  if k > size q then invalid_arg "Pending.take: not enough pending changes";
  let out = List.init k (fun i -> Util.Vec.get q.items (q.head + i)) in
  q.head <- q.head + k;
  compact q;
  out

let take_at_most q k =
  if k < 0 then invalid_arg "Pending.take_at_most: negative count";
  take q (min k (size q))

let peek_all q = List.init (size q) (fun i -> Util.Vec.get q.items (q.head + i))

let clear q =
  q.items <- Util.Vec.create ();
  q.head <- 0

let copy q = { items = Util.Vec.copy q.items; head = q.head }
