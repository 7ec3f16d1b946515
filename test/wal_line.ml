(* Group-log lines as the tests forge and compare them, cut from the
   bytes {!Durable.Record.add_line} writes. *)

let line tagged =
  let buf = Buffer.create 64 in
  Durable.Record.add_line buf tagged;
  Buffer.sub buf 0 (Buffer.length buf - 1)

(* The line without its CRC and tag: two records with equal payloads are
   the same log record, bit for bit. *)
let payload r =
  let l = line (Durable.Record.Tenant ("t", r)) in
  let start = String.index_from l (String.index l '\t' + 1) '\t' + 1 in
  String.sub l start (String.length l - start)
