type participant = {
  pending : int array;
  capacity : int -> int;
  cost : int -> int -> float;
  shared : int -> float;
}

type round = { rows : int array array; shed : int list }

let width rows = if Array.length rows = 0 then 0 else Array.length rows.(0)

(* The participants flushing table [i], in ascending order. *)
let flushers rows i =
  List.filter (fun v -> rows.(v).(i) > 0) (List.init (Array.length rows) Fun.id)

let nearly_due p i =
  let pending = p.pending.(i) in
  pending > 0
  && float_of_int pending >= 0.6 *. float_of_int (max 1 (p.capacity i))

let invite ?budget parts forced =
  let rows = Array.map Array.copy forced in
  let spent = ref 0.0 in
  if budget <> None then
    Array.iteri
      (fun v row ->
        Array.iteri
          (fun i b -> if b > 0 then spent := !spent +. parts.(v).cost i b)
          row)
      forced;
  let shed = ref [] in
  for i = 0 to width forced - 1 do
    let flushing = flushers forced i in
    let discount =
      List.fold_left (fun d v -> Float.min d (parts.(v).shared i)) infinity
        flushing
    in
    if flushing <> [] && discount > 0.0 then
      Array.iteri
        (fun v p ->
          if rows.(v).(i) = 0 && p.shared i > 0.0 && nearly_due p i then begin
            let pending = p.pending.(i) in
            let c = p.cost i pending in
            match budget with
            | Some b when !spent +. c > b -> shed := v :: !shed
            | _ ->
                rows.(v).(i) <- pending;
                spent := !spent +. c
          end)
        parts
  done;
  { rows; shed = List.rev !shed }

type member = { who : int; cost : float; shared : float }

let groups (parts : participant array) rows =
  List.init (width rows) (fun i ->
      List.rev_map
        (fun v ->
          let p = parts.(v) in
          { who = v; cost = p.cost i rows.(v).(i); shared = p.shared i })
        (flushers rows i))
  |> List.filter (( <> ) [])

let journalled groups =
  List.exists (fun g -> List.compare_length_with g 2 >= 0) groups

let discount group =
  List.fold_left (fun acc m -> Float.min acc m.shared) infinity group

let price = function
  | [] -> (0.0, 0.0)
  | group ->
      let discount = discount group in
      if discount < 0.0 then invalid_arg "Coflush.price: negative share";
      let raw = List.fold_left (fun acc m -> acc +. m.cost) 0.0 group in
      let dearest =
        List.fold_left (fun acc m -> Float.max acc m.cost) 0.0 group
      in
      let extra = List.length group - 1 in
      (Float.max dearest (raw -. (float_of_int extra *. discount)), raw)
