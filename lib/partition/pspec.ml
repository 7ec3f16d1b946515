let count ~n = 2 * n
let path = function Split.Heavy -> `Index | Split.Light -> `Scan
let index ~table cls = Ivm.Maintainer.lane ~table (path cls)

let logical p =
  let table = p / 2 in
  (table, if p = index ~table Split.Heavy then Split.Heavy else Split.Light)

let label ~names p =
  let i, cls = logical p in
  Printf.sprintf "%s.%s" names.(i) (Split.cls_name cls)

let make ~costs ~limit ~arrivals =
  if Array.length costs land 1 <> 0 then
    invalid_arg "Pspec.make: expected 2n cost curves (heavy, light per table)";
  Abivm.Spec.make ~costs ~limit ~arrivals
