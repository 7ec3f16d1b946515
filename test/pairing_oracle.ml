(* The boxed polymorphic pairing heap that A*'s open list used before it
   moved into flat arrays ({!Util.Pqueue}), kept as the reference for its
   pop order: a node per push, a list of children per node.  Ties between
   equal priorities break exactly as in the flat heap, which test_props
   checks on random push/pop sequences. *)

type 'a node = { prio : float; value : 'a; mutable children : 'a node list }

type 'a t = { mutable root : 'a node option; mutable size : int }

let create () = { root = None; size = 0 }

let is_empty q = q.root = None

let length q = q.size

let meld a b =
  if a.prio <= b.prio then begin
    a.children <- b :: a.children;
    a
  end
  else begin
    b.children <- a :: b.children;
    b
  end

let push q ~priority value =
  let node = { prio = priority; value; children = [] } in
  q.size <- q.size + 1;
  match q.root with
  | None -> q.root <- Some node
  | Some root -> q.root <- Some (meld root node)

(* Two-pass pairing merge of the root's children, both passes
   tail-recursive.  [pair] melds adjacent pairs left to right
   (accumulating in reverse), then the pairs are melded back right to
   left, the earlier pair as [meld]'s first argument —
   [meld p1 (meld p2 (... meld p_(k-1) p_k))]. *)
let merge_pairs children =
  let rec pair acc = function
    | [] -> acc
    | [ x ] -> x :: acc
    | a :: b :: rest -> pair (meld a b :: acc) rest
  in
  match pair [] children with
  | [] -> None
  | last :: rest -> Some (List.fold_left (fun acc p -> meld p acc) last rest)

let pop q =
  match q.root with
  | None -> None
  | Some root ->
      q.root <- merge_pairs root.children;
      q.size <- q.size - 1;
      Some (root.prio, root.value)
