type t = {
  counts : (int, float ref) Hashtbl.t;  (** stored units per key *)
  mutable stored_total : float;
  mutable unit_ : float;
      (** effective count = stored * unit_; decay shrinks [unit_] instead
          of walking the table *)
}

let create () = { counts = Hashtbl.create 256; stored_total = 0.0; unit_ = 1.0 }

let copy t =
  let counts = Hashtbl.copy t.counts in
  Hashtbl.filter_map_inplace (fun _ cell -> Some (ref !cell)) counts;
  { t with counts }

(* Renormalize once the stored units drift far from the effective scale,
   so [observe] increments stay well inside float precision. *)
let renormalize t =
  if t.unit_ < 1e-9 then begin
    Hashtbl.iter (fun _ cell -> cell := !cell *. t.unit_) t.counts;
    t.stored_total <- t.stored_total *. t.unit_;
    t.unit_ <- 1.0
  end

let observe ?(weight = 1.0) t key =
  if weight < 0.0 then invalid_arg "Sketch.observe: negative weight";
  let delta = weight /. t.unit_ in
  (match Hashtbl.find_opt t.counts key with
  | Some cell -> cell := !cell +. delta
  | None -> Hashtbl.add t.counts key (ref delta));
  t.stored_total <- t.stored_total +. delta

let decay t ~factor =
  if not (factor > 0.0 && factor <= 1.0) then
    invalid_arg "Sketch.decay: factor must be in (0, 1]";
  t.unit_ <- t.unit_ *. factor;
  renormalize t

let count t key =
  match Hashtbl.find_opt t.counts key with
  | Some cell -> !cell *. t.unit_
  | None -> 0.0

let total t = t.stored_total *. t.unit_
let distinct t = Hashtbl.length t.counts

let share t key =
  let tot = total t in
  if tot <= 0.0 then 0.0 else count t key /. tot

(* Descending by effective count, ascending key on ties — a deterministic
   ranking whatever the hashtable iteration order. *)
let ranked t =
  Hashtbl.fold (fun key cell acc -> (key, !cell *. t.unit_) :: acc) t.counts []
  |> List.sort (fun (k1, c1) (k2, c2) ->
         match compare c2 c1 with 0 -> compare k1 k2 | c -> c)
