type t =
  | Arrival of { time : int; table : int; change : Ivm.Change.t }
  | Applied of { time : int; table : int; count : int; cost : float }

(* Built eagerly: a [Lazy.t] forced from two domains at once (the WAL on
   the maintenance thread, a checkpoint on a pool worker) may raise. *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Record.crc32_sub";
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c :=
      Array.unsafe_get crc_table ((!c lxor Char.code (String.unsafe_get s i)) land 0xFF)
      lxor (!c lsr 8)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let crc32 s = crc32_sub s ~pos:0 ~len:(String.length s)

let payload = function
  | Arrival { time; table; change } ->
      Printf.sprintf "A\t%d\t%d\t%s" time table
        (Ivm.Codec.change_to_string change)
  | Applied { time; table; count; cost } ->
      Printf.sprintf "P\t%d\t%d\t%d\t%Lx" time table count
        (Int64.bits_of_float cost)

let parse_payload text =
  match String.split_on_char '\t' text with
  | "A" :: time :: table :: rest when rest <> [] -> (
      match (int_of_string_opt time, int_of_string_opt table) with
      | Some time, Some table when time >= 0 && table >= 0 -> (
          match Ivm.Codec.change_of_string (String.concat "\t" rest) with
          | Ok change -> Ok (Arrival { time; table; change })
          | Error e -> Error e)
      | _ -> Error (Printf.sprintf "malformed arrival record %S" text))
  | [ "P"; time; table; count; bits ] -> (
      match
        ( int_of_string_opt time,
          int_of_string_opt table,
          int_of_string_opt count,
          Int64.of_string_opt ("0x" ^ bits) )
      with
      | Some time, Some table, Some count, Some b
        when time >= 0 && table >= 0 && count > 0 ->
          Ok (Applied { time; table; count; cost = Int64.float_of_bits b })
      | _ -> Error (Printf.sprintf "malformed applied record %S" text))
  | _ -> Error (Printf.sprintf "unknown record kind in %S" text)

let checked_body line =
  match String.index_opt line '\t' with
  | None -> Error (Printf.sprintf "unframed WAL line %S" line)
  | Some i when i <> 8 -> Error (Printf.sprintf "bad CRC framing in %S" line)
  | Some i -> (
      let crc_text = String.sub line 0 i in
      let body = String.sub line (i + 1) (String.length line - i - 1) in
      match Int64.of_string_opt ("0x" ^ crc_text) with
      | None -> Error (Printf.sprintf "unparsable CRC in %S" line)
      | Some crc ->
          if Int64.to_int32 crc <> crc32 body then
            Error (Printf.sprintf "CRC mismatch on %S" line)
          else Ok body)

type coflush = { round : int; rows : (string * int array) list }

type tagged = Tenant of string * t | Coflush of coflush

(* The service's tag: not a valid tenant name, so a service record and a
   tenant record can never be mistaken for one another. *)
let service_tag = "@service"

let coflush_payload { round; rows } =
  String.concat "\t"
    ("C" :: string_of_int round
    :: List.map
         (fun (name, row) ->
           name ^ ":"
           ^ String.concat "," (List.map string_of_int (Array.to_list row)))
         rows)

let parse_coflush text =
  let bad () = Error (Printf.sprintf "malformed co-flush record %S" text) in
  match String.split_on_char '\t' text with
  | "C" :: round :: cells -> (
      match int_of_string_opt round with
      | Some round when round >= 0 ->
          let row cell =
            match String.index_opt cell ':' with
            | None -> None
            | Some i ->
                let name = String.sub cell 0 i in
                let counts =
                  String.sub cell (i + 1) (String.length cell - i - 1)
                  |> String.split_on_char ','
                  |> List.map int_of_string_opt
                in
                if
                  Fsutil.valid_tenant_name name
                  && List.for_all
                       (function Some k -> k >= 0 | None -> false)
                       counts
                then Some (name, Array.of_list (List.map Option.get counts))
                else None
          in
          let rows = List.map row cells in
          if cells <> [] && List.for_all Option.is_some rows then
            Ok (Coflush { round; rows = List.map Option.get rows })
          else bad ()
      | _ -> bad ())
  | _ -> bad ()

(* Tagged framing for the shared group-commit log: the CRC covers the tag
   too, so a line can never silently migrate between tenants, or between
   a tenant and the service, on replay.  Tenant names are
   directory-name-safe ([Fsutil.valid_tenant_name]) and thus tab-free. *)
let to_tagged_line tagged =
  let p =
    match tagged with
    | Tenant (tenant, r) -> Printf.sprintf "%s\t%s" tenant (payload r)
    | Coflush c -> Printf.sprintf "%s\t%s" service_tag (coflush_payload c)
  in
  Printf.sprintf "%08lx\t%s" (crc32 p) p

let of_tagged_line line =
  match checked_body line with
  | Error _ as e -> e
  | Ok body -> (
      match String.index_opt body '\t' with
      | None -> Error (Printf.sprintf "untagged group WAL line %S" line)
      | Some i -> (
          let tag = String.sub body 0 i in
          let rest = String.sub body (i + 1) (String.length body - i - 1) in
          if tag = service_tag then parse_coflush rest
          else if not (Fsutil.valid_tenant_name tag) then
            Error (Printf.sprintf "invalid tenant tag %S in %S" tag line)
          else
            match parse_payload rest with
            | Ok r -> Ok (Tenant (tag, r))
            | Error _ as e -> e))
