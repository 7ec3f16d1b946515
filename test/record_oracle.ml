(* The group log's line encoder as it stood before records were
   formatted into a buffer: [Printf] for the framing, and the codec's
   per-value string concatenation for the payload.  Kept as the
   reference the buffer encoder ({!Durable.Record.add_line},
   {!Ivm.Codec.add_value}) must reproduce byte for byte (test_durable),
   so that every log written before it still reads the same. *)

let escape s =
  let buf = Buffer.create (String.length s + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | _ -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let value_to_string = function
  | Relation.Value.Int x -> "i:" ^ string_of_int x
  | Relation.Value.Float x -> "f:" ^ Printf.sprintf "%h" x
  | Relation.Value.Str s -> "s:" ^ escape s
  | Relation.Value.Bool b -> "b:" ^ string_of_bool b
  | Relation.Value.Null -> "null"

let tuple_to_string t =
  if Relation.Tuple.arity t = 0 then "()"
  else
    String.concat "\t"
      (Array.to_list (Array.map value_to_string t))

let change_to_string = function
  | Ivm.Change.Insert t -> "I\t" ^ tuple_to_string t
  | Ivm.Change.Delete t -> "D\t" ^ tuple_to_string t
  | Ivm.Change.Update { before; after } ->
      "U\t" ^ tuple_to_string before ^ "\t->\t" ^ tuple_to_string after

let payload = function
  | Durable.Record.Arrival { time; table; change } ->
      Printf.sprintf "A\t%d\t%d\t%s" time table (change_to_string change)
  | Durable.Record.Applied { time; table; count; cost } ->
      Printf.sprintf "P\t%d\t%d\t%d\t%Lx" time table count
        (Int64.bits_of_float cost)

let service_tag = "@service"

let coflush_payload { Durable.Record.round; rows } =
  String.concat "\t"
    ("C" :: string_of_int round
    :: List.map
         (fun (name, row) ->
           name ^ ":"
           ^ String.concat "," (List.map string_of_int (Array.to_list row)))
         rows)

let to_tagged_line tagged =
  let p =
    match tagged with
    | Durable.Record.Tenant (tenant, r) -> Printf.sprintf "%s\t%s" tenant (payload r)
    | Durable.Record.Coflush c ->
        Printf.sprintf "%s\t%s" service_tag (coflush_payload c)
  in
  Printf.sprintf "%08lx\t%s" (Durable.Record.crc32 p) p
