type cls = Heavy | Light

let cls_name = function Heavy -> "heavy" | Light -> "light"

type t = {
  threshold : float;
  heavy : (int, unit) Hashtbl.t;
  coverage : float;
}

let calibrate ?(max_heavy = 64) ?(min_share = 0.01) sketch =
  if max_heavy < 0 then invalid_arg "Split.calibrate: negative max_heavy";
  if not (min_share > 0.0 && min_share <= 1.0) then
    invalid_arg "Split.calibrate: min_share must be in (0, 1]";
  let heavy = Hashtbl.create (max 16 max_heavy) in
  let total = Sketch.total sketch in
  let threshold = ref infinity and mass = ref 0.0 in
  if total > 0.0 then begin
    let rec take taken = function
      | (key, count) :: rest
        when taken < max_heavy && count /. total >= min_share ->
          Hashtbl.replace heavy key ();
          threshold := count;
          mass := !mass +. count;
          take (taken + 1) rest
      | _ -> ()
    in
    take 0 (Sketch.ranked sketch)
  end;
  {
    threshold = !threshold;
    heavy;
    coverage = (if total > 0.0 then !mass /. total else 0.0);
  }

let classify t = function
  | Some key when Hashtbl.mem t.heavy key -> Heavy
  | Some _ | None -> Light

let is_heavy t key = Hashtbl.mem t.heavy key
let heavy_count t = Hashtbl.length t.heavy

let heavy_keys t =
  Hashtbl.fold (fun k () acc -> k :: acc) t.heavy [] |> List.sort compare

let threshold t = t.threshold
let coverage t = t.coverage

(* Share of the sketch's current mass sitting on this split's heavy set:
   compare against [coverage] to read key-frequency drift. *)
let heavy_share t sketch =
  let total = Sketch.total sketch in
  if total <= 0.0 then 0.0
  else
    Hashtbl.fold (fun key () acc -> acc +. Sketch.count sketch key) t.heavy 0.0
    /. total
