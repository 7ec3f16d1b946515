exception Corrupt of string

external bytes_set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external string_get64u : string -> int -> int64 = "%caml_string_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* The 64-bit words below stay let-bound and feed primitives only, and no
   float or int64 crosses a function boundary, so nothing is boxed. *)

(* --- writing ---------------------------------------------------------- *)

type writer = { chunk : Bytes.t; mutable pos : int; emit : Bytes.t -> int -> unit }

let writer ~size emit =
  if size < 8 then invalid_arg "Bin.writer: size must be >= 8";
  { chunk = Bytes.create size; pos = 0; emit }

let flush w =
  if w.pos > 0 then begin
    w.emit w.chunk w.pos;
    w.pos <- 0
  end

let room w n = if w.pos + n > Bytes.length w.chunk then flush w

let put_byte w b =
  room w 1;
  Bytes.unsafe_set w.chunk w.pos (Char.unsafe_chr (b land 0xFF));
  w.pos <- w.pos + 1

let put_word w x =
  room w 8;
  if Sys.big_endian then bytes_set64u w.chunk w.pos (swap64 x)
  else bytes_set64u w.chunk w.pos x;
  w.pos <- w.pos + 8
[@@inline always]

let put_int w x = put_word w (Int64.of_int x)
let put_float_of w (a : floats) i = put_word w (Int64.bits_of_float (Bigarray.Array1.unsafe_get a i))

let put_string w s =
  let n = String.length s in
  let rec go off =
    if off < n then begin
      room w 1;
      let k = min (n - off) (Bytes.length w.chunk - w.pos) in
      Bytes.blit_string s off w.chunk w.pos k;
      w.pos <- w.pos + k;
      go (off + k)
    end
  in
  go 0

(* --- reading ---------------------------------------------------------- *)

type reader = { src : string; mutable at : int }

let reader src = { src; at = 0 }
let remaining r = String.length r.src - r.at

let need r n what =
  if n < 0 || n > remaining r then
    raise (Corrupt (Printf.sprintf "truncated image: expected %s" what))

let get_word r =
  need r 8 "an 8-byte word";
  let x = string_get64u r.src r.at in
  r.at <- r.at + 8;
  if Sys.big_endian then swap64 x else x
[@@inline always]

let get_int r = Int64.to_int (get_word r)

let get_float_to r (a : floats) i =
  Bigarray.Array1.unsafe_set a i (Int64.float_of_bits (get_word r))

let get_string r n =
  need r n "a string";
  let s = String.sub r.src r.at n in
  r.at <- r.at + n;
  s

let get_line r =
  match String.index_from_opt r.src r.at '\n' with
  | None -> raise (Corrupt "truncated image: expected a line")
  | Some i ->
      let s = String.sub r.src r.at (i - r.at) in
      r.at <- i + 1;
      s

let count r ~per what =
  let n = get_int r in
  if n < 0 || n > remaining r / per then
    raise (Corrupt (Printf.sprintf "bad %s count %d" what n));
  n
