let count ~n = 2 * n
let index ~table = function Split.Heavy -> 2 * table | Split.Light -> (2 * table) + 1
let logical p = (p / 2, if p land 1 = 0 then Split.Heavy else Split.Light)

let label ~names p =
  let i, cls = logical p in
  Printf.sprintf "%s.%s" names.(i) (Split.cls_name cls)

let merge v =
  let n2 = Array.length v in
  if n2 land 1 <> 0 then invalid_arg "Pspec.merge: odd-width vector";
  Array.init (n2 / 2) (fun i -> v.(2 * i) + v.((2 * i) + 1))

let make ~costs ~limit ~arrivals =
  if Array.length costs land 1 <> 0 then
    invalid_arg "Pspec.make: expected 2n cost curves (heavy, light per table)";
  Abivm.Spec.make ~costs ~limit ~arrivals
