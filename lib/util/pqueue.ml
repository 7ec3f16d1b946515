(* Pairing heap in left-child/right-sibling form: O(1) push, amortized
   O(log n) pop.  An entry is a slot id; [child] holds its first child
   and [sibling] its next sibling (-1 for none).  Free slots are chained
   through [sibling] from [free]; [used] is the high-water mark. *)

type t = {
  mutable values : int array;
  mutable prio : Float.Array.t;
  mutable payload : Float.Array.t;
  mutable child : int array;
  mutable sibling : int array;
  mutable root : int;
  mutable free : int;
  mutable used : int;
  mutable size : int;
}

let create () =
  let cap = 64 in
  {
    values = Array.make cap 0;
    prio = Float.Array.make cap 0.0;
    payload = Float.Array.make cap 0.0;
    child = Array.make cap (-1);
    sibling = Array.make cap (-1);
    root = -1;
    free = -1;
    used = 0;
    size = 0;
  }

let is_empty q = q.size = 0

let length q = q.size

let grow q =
  let cap = Array.length q.values in
  let extend a =
    let b = Array.make (2 * cap) (-1) in
    Array.blit a 0 b 0 cap;
    b
  and extend_float a =
    let b = Float.Array.make (2 * cap) 0.0 in
    Float.Array.blit a 0 b 0 cap;
    b
  in
  q.values <- extend q.values;
  q.prio <- extend_float q.prio;
  q.payload <- extend_float q.payload;
  q.child <- extend q.child;
  q.sibling <- extend q.sibling

(* A slot for a new entry, with no child and no sibling. *)
let slot q =
  let id =
    if q.free >= 0 then begin
      let id = q.free in
      q.free <- q.sibling.(id);
      id
    end
    else begin
      if q.used = Array.length q.values then grow q;
      let id = q.used in
      q.used <- id + 1;
      id
    end
  in
  q.child.(id) <- -1;
  q.sibling.(id) <- -1;
  id

(* [a] wins on [a.prio <= b.prio]; the loser becomes the winner's first
   child.  The winner's own [sibling] is left as it was: each caller
   reads both siblings first and relinks the winner itself. *)
let meld q a b =
  if Float.Array.get q.prio a <= Float.Array.get q.prio b then begin
    q.sibling.(b) <- q.child.(a);
    q.child.(a) <- b;
    a
  end
  else begin
    q.sibling.(a) <- q.child.(b);
    q.child.(b) <- a;
    b
  end

let link q id =
  q.size <- q.size + 1;
  q.root <- (if q.root < 0 then id else meld q q.root id)

(* Small enough to inline at the call site, so the two floats are stored
   without being boxed. *)
let[@inline] push q ~priority ~payload value =
  let id = slot q in
  q.values.(id) <- value;
  Float.Array.set q.prio id priority;
  Float.Array.set q.payload id payload;
  link q id

(* Two-pass pairing merge of the sibling chain from [first], in loops (a
   root can collect hundreds of thousands of children).  The pair pass
   melds adjacent children left to right and stacks each pair's winner
   through [sibling], so the last pair ends on top; the fold then melds
   the stack from the top, keeping the earlier pair as [meld]'s first
   argument — [meld p1 (meld p2 (... meld p_(k-1) p_k))], the classical
   recursive formulation's tie order. *)
let merge_pairs q first =
  let stack = ref (-1) and cur = ref first in
  while !cur >= 0 do
    let a = !cur in
    let b = q.sibling.(a) in
    let w =
      if b < 0 then begin
        cur := -1;
        a
      end
      else begin
        cur := q.sibling.(b);
        meld q a b
      end
    in
    q.sibling.(w) <- !stack;
    stack := w
  done;
  if !stack < 0 then -1
  else begin
    let acc = ref !stack and rest = ref q.sibling.(!stack) in
    while !rest >= 0 do
      let p = !rest in
      rest := q.sibling.(p);
      acc := meld q p !acc
    done;
    q.sibling.(!acc) <- -1;
    !acc
  end

let check_nonempty q what =
  if q.size = 0 then invalid_arg ("Pqueue." ^ what ^ ": empty queue")

let pop q =
  check_nonempty q "pop";
  let r = q.root in
  q.root <- merge_pairs q q.child.(r);
  q.size <- q.size - 1;
  q.sibling.(r) <- q.free;
  q.free <- r;
  q.values.(r)

let[@inline] peek_priority q =
  check_nonempty q "peek_priority";
  Float.Array.get q.prio q.root

let[@inline] peek_payload q =
  check_nonempty q "peek_payload";
  Float.Array.get q.payload q.root
