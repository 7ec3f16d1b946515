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

let[@inline] crc_step c byte =
  Array.unsafe_get crc_table ((c lxor Char.code byte) land 0xFF) lxor (c lsr 8)

let crc32_sub s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Record.crc32_sub";
  let c = ref 0xFFFFFFFF in
  for i = pos to pos + len - 1 do
    c := crc_step !c (String.unsafe_get s i)
  done;
  Int32.of_int (!c lxor 0xFFFFFFFF)

let crc32 s = crc32_sub s ~pos:0 ~len:(String.length s)

let hex = "0123456789abcdef"

(* [%Lx] of a cost's bits: lowercase, no leading zeros. *)
let add_bits buf cost =
  let bits = Int64.bits_of_float cost in
  for i = 15 downto 0 do
    let d = Int64.shift_right_logical bits (4 * i) in
    if i = 0 || d <> 0L then Buffer.add_char buf hex.[Int64.to_int d land 0xF]
  done

let add_field buf x =
  Buffer.add_char buf '\t';
  Ivm.Codec.add_int buf x

let add_payload buf = function
  | Arrival { time; table; change } ->
      Buffer.add_char buf 'A';
      add_field buf time;
      add_field buf table;
      Buffer.add_char buf '\t';
      Ivm.Codec.add_change buf change
  | Applied { time; table; count; cost } ->
      Buffer.add_char buf 'P';
      add_field buf time;
      add_field buf table;
      add_field buf count;
      Buffer.add_char buf '\t';
      add_bits buf cost

let payload r =
  let buf = Buffer.create 64 in
  add_payload buf r;
  Buffer.contents buf

(* Payload equality without the payloads: a value float compares as its
   "%h" text (equal bits, or NaNs of one sign), a cost by its bits. *)
let value_equal (a : Relation.Value.t) (b : Relation.Value.t) =
  match (a, b) with
  | Float x, Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      || Float.is_nan x && Float.is_nan y && Float.sign_bit x = Float.sign_bit y
  | _ -> a = b

let equal a b =
  match (a, b) with
  | Arrival a, Arrival b ->
      a.time = b.time && a.table = b.table
      && List.equal
           (fun (x, sx) (y, sy) ->
             sx = sy && Array.length x = Array.length y
             && Array.for_all2 value_equal x y)
           (Ivm.Change.signed_tuples a.change)
           (Ivm.Change.signed_tuples b.change)
  | Applied a, Applied b ->
      a.time = b.time && a.table = b.table && a.count = b.count
      && Int64.equal (Int64.bits_of_float a.cost) (Int64.bits_of_float b.cost)
  | _ -> false

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

let add_coflush buf { round; rows } =
  Buffer.add_char buf 'C';
  add_field buf round;
  List.iter
    (fun (name, row) ->
      Buffer.add_char buf '\t';
      Buffer.add_string buf name;
      Buffer.add_char buf ':';
      Array.iteri
        (fun i k ->
          if i > 0 then Buffer.add_char buf ',';
          Ivm.Codec.add_int buf k)
        row)
    rows

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
   directory-name-safe ([Fsutil.valid_tenant_name]) and thus tab-free.
   The body is formatted once, into a per-domain scratch buffer, so the
   CRC can be taken before the bytes it heads are copied out. *)
let scratch = Domain.DLS.new_key (fun () -> Buffer.create 256)

let add_line buf tagged =
  let body = Domain.DLS.get scratch in
  Buffer.clear body;
  let tag = match tagged with Tenant (tag, _) -> tag | Coflush _ -> service_tag in
  Buffer.add_string body tag;
  Buffer.add_char body '\t';
  (match tagged with
  | Tenant (_, r) -> add_payload body r
  | Coflush c -> add_coflush body c);
  let c = ref 0xFFFFFFFF in
  for i = 0 to Buffer.length body - 1 do
    c := crc_step !c (Buffer.nth body i)
  done;
  let crc = !c lxor 0xFFFFFFFF in
  for i = 7 downto 0 do
    Buffer.add_char buf hex.[(crc lsr (4 * i)) land 0xF]
  done;
  Buffer.add_char buf '\t';
  Buffer.add_buffer buf body;
  Buffer.add_char buf '\n'

let to_tagged_line tagged =
  let buf = Buffer.create 64 in
  add_line buf tagged;
  Buffer.sub buf 0 (Buffer.length buf - 1)

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
