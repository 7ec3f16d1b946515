(** Typed scalar values stored in tuples. *)

type t =
  | Int of int
  | Float of float
  | Str of string
  | Bool of bool
  | Null

val compare : t -> t -> int
(** Total order.  Values of the same constructor compare naturally;
    [Int] and [Float] compare numerically with each other; otherwise the
    order is [Null < Bool < Int/Float < Str]. *)

val equal : t -> t -> bool
(** [equal a b] iff [compare a b = 0]; in particular [Int 1] equals
    [Float 1.0]. *)

val hash : t -> int
(** Consistent with {!equal}: integral floats hash like the integer,
    [0.] like [-0.], and every NaN alike.  Allocation-free. *)

val hash_int : int -> int
(** [hash_int x = hash (Int x)], for kernels reading unboxed columns. *)

val hash_float : float -> int
(** [hash_float x = hash (Float x)]. *)

val is_null : t -> bool

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val as_int : t -> int
(** Raises [Invalid_argument] unless the value is [Int]. *)

val as_float : t -> float
(** Numeric coercion: accepts [Int] and [Float]. *)

val as_string : t -> string
val as_bool : t -> bool
