type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ | Float _ -> 2
  | Str _ -> 3

let compare a b =
  match (a, b) with
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Bool x, Bool y -> Bool.compare x y
  | Null, Null -> 0
  | (Int _ | Float _ | Str _ | Bool _ | Null), _ -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

(* A 63-bit finalizer in the style of murmur3's fmix64: every input bit
   reaches every output bit, so the low bits a hash table masks with are
   well spread even for small consecutive keys. *)
let[@inline] mix x =
  let x = x lxor (x lsr 32) in
  let x = x * 0x1f51afd7ed558ccd in
  let x = x lxor (x lsr 29) in
  let x = x * 0x04cf5ad432745937 in
  (x lxor (x lsr 32)) land max_int

(* [Int] and [Float] hash through one numeric image, the float, so that
   [Int 1] and [Float 1.0] collide as [equal] demands; [Float.compare]
   equates [0.] with [-0.] and every NaN with every other, so those
   collapse first.  Nothing here allocates: the float's bits are read
   as an unboxed int64. *)
let[@inline] hash_float f =
  if Float.is_nan f then 0x7ff8
  else if f = 0.0 then mix 0
  else
    let b = Int64.bits_of_float f in
    (* [Int64.to_int] drops bit 63, the sign: fold it back in *)
    mix
      (Int64.to_int b
      lxor (Int64.to_int (Int64.shift_right_logical b 63) * 0x2545f4914f6cdd1d))

let[@inline] hash_int x = hash_float (float_of_int x)

let hash = function
  | Int x -> hash_int x
  | Float x -> hash_float x
  | Str s -> Hashtbl.hash s
  | Bool b -> Hashtbl.hash b
  | Null -> 0x6e756c6c

let is_null = function Null -> true | Int _ | Float _ | Str _ | Bool _ -> false

let to_string = function
  | Int x -> string_of_int x
  | Float x -> Printf.sprintf "%g" x
  | Str s -> s
  | Bool b -> string_of_bool b
  | Null -> "NULL"

let pp fmt v = Format.pp_print_string fmt (to_string v)

let as_int = function
  | Int x -> x
  | Float _ | Str _ | Bool _ | Null -> invalid_arg "Value.as_int"

let as_float = function
  | Int x -> float_of_int x
  | Float x -> x
  | Str _ | Bool _ | Null -> invalid_arg "Value.as_float"
