let add_escaped buf s =
  String.iter
    (function
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | c -> Buffer.add_char buf c)
    s

let unescape s =
  let buf = Buffer.create (String.length s) in
  let n = String.length s in
  let rec loop i =
    if i >= n then Ok (Buffer.contents buf)
    else if s.[i] = '\\' then
      if i + 1 >= n then Error "dangling escape"
      else begin
        (match s.[i + 1] with
        | '\\' -> Buffer.add_char buf '\\'
        | 't' -> Buffer.add_char buf '\t'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | c -> Buffer.add_char buf c);
        loop (i + 2)
      end
    else begin
      Buffer.add_char buf s.[i];
      loop (i + 1)
    end
  in
  loop 0

(* The digits of a non-positive [n], so that [min_int] needs no case. *)
let rec add_digits buf n =
  if n <> 0 then begin
    add_digits buf (n / 10);
    Buffer.add_char buf (Char.chr (48 - (n mod 10)))
  end

let add_int buf x =
  if x > 0 then add_digits buf (-x)
  else if x = 0 then Buffer.add_char buf '0'
  else (Buffer.add_char buf '-'; add_digits buf x)

(* [Printf.sprintf "%h"]'s primitive, with the precision and sign style
   that format passes. *)
external hexstring_of_float : float -> int -> char -> string
  = "caml_hexstring_of_float"

let add_value buf (v : Relation.Value.t) =
  match v with
  | Int x -> Buffer.add_string buf "i:"; add_int buf x
  | Float x ->
      Buffer.add_string buf "f:";
      Buffer.add_string buf (hexstring_of_float x (-6) '-')
  | Str s -> Buffer.add_string buf "s:"; add_escaped buf s
  | Bool b -> Buffer.add_string buf (if b then "b:true" else "b:false")
  | Null -> Buffer.add_string buf "null"

let to_string add x =
  let buf = Buffer.create 32 in
  add buf x;
  Buffer.contents buf

let value_to_string v = to_string add_value v

let value_of_string text =
  let payload () = String.sub text 2 (String.length text - 2) in
  if text = "null" then Ok Relation.Value.Null
  else if String.length text < 2 || text.[1] <> ':' then
    Error (Printf.sprintf "malformed value %S" text)
  else
    match text.[0] with
    | 'i' -> (
        match int_of_string_opt (payload ()) with
        | Some x -> Ok (Relation.Value.Int x)
        | None -> Error (Printf.sprintf "malformed int %S" text))
    | 'f' -> (
        match float_of_string_opt (payload ()) with
        | Some x -> Ok (Relation.Value.Float x)
        | None -> Error (Printf.sprintf "malformed float %S" text))
    | 's' -> (
        match unescape (payload ()) with
        | Ok s -> Ok (Relation.Value.Str s)
        | Error e -> Error e)
    | 'b' -> (
        match bool_of_string_opt (payload ()) with
        | Some b -> Ok (Relation.Value.Bool b)
        | None -> Error (Printf.sprintf "malformed bool %S" text))
    | _ -> Error (Printf.sprintf "unknown value tag in %S" text)

let add_tuple buf t =
  if Relation.Tuple.arity t = 0 then Buffer.add_string buf "()"
  else
    for i = 0 to Array.length t - 1 do
      if i > 0 then Buffer.add_char buf '\t';
      add_value buf t.(i)
    done

let tuple_to_string t = to_string add_tuple t

let rec collect_values acc = function
  | [] -> Ok (List.rev acc)
  | field :: rest -> (
      match value_of_string field with
      | Ok v -> collect_values (v :: acc) rest
      | Error e -> Error e)

let tuple_of_string text =
  if text = "()" then Ok (Relation.Tuple.make [])
  else if text = "" then Error "empty tuple encoding"
  else
    match collect_values [] (String.split_on_char '\t' text) with
    | Ok values -> Ok (Relation.Tuple.make values)
    | Error e -> Error e

(* A change line: kind, then the tuple's values, with "->" separating the
   before/after halves of an update.  "->" cannot collide with a value
   because every value encoding starts with a type tag. *)
let add_change buf (c : Change.t) =
  match c with
  | Insert t -> Buffer.add_string buf "I\t"; add_tuple buf t
  | Delete t -> Buffer.add_string buf "D\t"; add_tuple buf t
  | Update { before; after } ->
      Buffer.add_string buf "U\t";
      add_tuple buf before;
      Buffer.add_string buf "\t->\t";
      add_tuple buf after

let change_to_string c = to_string add_change c

let change_of_string text =
  match String.index_opt text '\t' with
  | None -> Error (Printf.sprintf "malformed change %S" text)
  | Some i -> (
      let kind = String.sub text 0 i in
      let rest = String.sub text (i + 1) (String.length text - i - 1) in
      match kind with
      | "I" -> Result.map (fun t -> Change.Insert t) (tuple_of_string rest)
      | "D" -> Result.map (fun t -> Change.Delete t) (tuple_of_string rest)
      | "U" -> (
          let fields = String.split_on_char '\t' rest in
          let rec split_at_arrow before = function
            | [] -> Error (Printf.sprintf "update without separator: %S" text)
            | "->" :: after -> Ok (List.rev before, after)
            | f :: rest -> split_at_arrow (f :: before) rest
          in
          match split_at_arrow [] fields with
          | Error e -> Error e
          | Ok (before_fields, after_fields) -> (
              let reparse fields = tuple_of_string (String.concat "\t" fields) in
              match (reparse before_fields, reparse after_fields) with
              | Ok before, Ok after -> Ok (Change.Update { before; after })
              | Error e, _ | _, Error e -> Error e))
      | _ -> Error (Printf.sprintf "unknown change kind %S" kind))
