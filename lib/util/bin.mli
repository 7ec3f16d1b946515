(** Little-endian binary images: a writer that streams through one
    reusable fixed-size chunk, and a bounds-checked reader over a string.

    Neither side allocates per value: ints and floats are stored as
    8-byte two's-complement / IEEE-754 words through the unboxed
    [Bytes]/[String] primitives, and floats move between a [Bigarray]
    slot and the bytes without leaving this module. *)

exception Corrupt of string
(** Raised by the reader (and by decoders built on it) when the bytes
    cannot be what a writer produced: a read past the end, an
    out-of-range count or code. *)

(** {1 Writing} *)

type writer

val writer : size:int -> (Bytes.t -> int -> unit) -> writer
(** [writer ~size emit]: a writer whose chunk holds [size] bytes ([size]
    is at least 8).  [emit chunk len] receives the first [len] bytes of
    the chunk each time it fills, and the remainder on {!flush}; the
    chunk is reused, so [emit] must consume the bytes before returning. *)

val put_byte : writer -> int -> unit
(** The low 8 bits. *)

val put_int : writer -> int -> unit
(** 8 bytes, sign-extended to 64 bits. *)

type floats = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

val put_float_of : writer -> floats -> int -> unit
(** [put_float_of w a i]: the IEEE-754 bits of [a.{i}], 8 bytes (the
    float is read here, so it is never boxed).  [i] must be in bounds. *)

val put_string : writer -> string -> unit
(** The raw bytes, no length prefix. *)

val flush : writer -> unit
(** Hand the buffered bytes (if any) to [emit]. *)

(** {1 Reading} *)

type reader

val reader : string -> reader
(** A cursor at the start of the string. *)

val remaining : reader -> int

val get_int : reader -> int

val get_float_to : reader -> floats -> int -> unit
(** Read 8 bytes of IEEE-754 bits into [a.{i}]; [i] must be in bounds. *)

val get_string : reader -> int -> string
(** The next [n] raw bytes. *)

val get_line : reader -> string
(** The bytes up to the next ['\n'], which is consumed but not returned.
    [Corrupt] if no newline is left. *)

val count : reader -> per:int -> string -> int
(** [count r ~per what] reads an int announcing that many items of at
    least [per] bytes each ([per >= 1]) and checks it against what is
    left; [Corrupt] (naming [what]) if it is negative or too large. *)
