type int_ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type float_ba =
  (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

let make_int_ba n : int_ba = Bigarray.Array1.create Bigarray.int Bigarray.c_layout n

let make_float_ba n : float_ba =
  Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout n

(* Validity and other per-row flags are bitmaps: bit [i land 7] of byte
   [i lsr 3].  All rows of a fresh bitmap are 0. *)
let bit bits i =
  Char.code (Bytes.unsafe_get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_bit bits i =
  let j = i lsr 3 in
  Bytes.unsafe_set bits j
    (Char.unsafe_chr (Char.code (Bytes.unsafe_get bits j) lor (1 lsl (i land 7))))

let clear_bit bits i =
  let j = i lsr 3 in
  Bytes.unsafe_set bits j
    (Char.unsafe_chr
       (Char.code (Bytes.unsafe_get bits j) land lnot (1 lsl (i land 7))))

let grow_bits bits rows =
  let need = (rows + 7) lsr 3 in
  if need <= Bytes.length bits then bits
  else begin
    let out = Bytes.make (max need (2 * Bytes.length bits)) '\000' in
    Bytes.blit bits 0 out 0 (Bytes.length bits);
    out
  end

type payload =
  | Ints of { mutable data : int_ba }
  | Floats of { mutable data : float_ba; mutable intish : Bytes.t }
      (** [intish] marks slots whose value arrived as [Value.Int] so that
          {!get} reconstructs the original constructor exactly. *)
  | Strs of {
      mutable codes : int_ba;
      dict : string Util.Vec.t;
      intern : (string, int) Hashtbl.t;
    }
  | Bools of { mutable bits : Bytes.t }

type t = {
  ty : Datatype.t;
  payload : payload;
  mutable valid : Bytes.t;  (** bit set = non-null *)
  mutable len : int;
  exact : (int, Value.t) Hashtbl.t;
      (** rows whose value cannot round-trip through the unboxed
          representation (an [Int] in a TFloat column beyond the float53
          range); empty in the overwhelmingly common case *)
}

let initial = 64

let create ?(capacity = initial) ty =
  let slots = max 8 capacity in
  let bitmap () = Bytes.make ((slots + 7) / 8) '\000' in
  let payload =
    match ty with
    | Datatype.TInt -> Ints { data = make_int_ba slots }
    | Datatype.TFloat -> Floats { data = make_float_ba slots; intish = bitmap () }
    | Datatype.TString ->
        Strs { codes = make_int_ba slots; dict = Util.Vec.create (); intern = Hashtbl.create 16 }
    | Datatype.TBool -> Bools { bits = bitmap () }
  in
  {
    ty;
    payload;
    valid = bitmap ();
    len = 0;
    exact = Hashtbl.create 1;
  }

let length c = c.len

let grow_int_ba (a : int_ba) rows =
  let n = Bigarray.Array1.dim a in
  if rows <= n then a
  else begin
    let out = make_int_ba (max rows (2 * n)) in
    Bigarray.Array1.blit a (Bigarray.Array1.sub out 0 n);
    out
  end

let grow_float_ba (a : float_ba) rows =
  let n = Bigarray.Array1.dim a in
  if rows <= n then a
  else begin
    let out = make_float_ba (max rows (2 * n)) in
    Bigarray.Array1.blit a (Bigarray.Array1.sub out 0 n);
    out
  end

let reserve c rows =
  c.valid <- grow_bits c.valid rows;
  match c.payload with
  | Ints p -> p.data <- grow_int_ba p.data rows
  | Floats p ->
      p.data <- grow_float_ba p.data rows;
      p.intish <- grow_bits p.intish rows
  | Strs p -> p.codes <- grow_int_ba p.codes rows
  | Bools p -> p.bits <- grow_bits p.bits rows

let intern_code dict intern s =
  match Hashtbl.find_opt intern s with
  | Some code -> code
  | None ->
      let code = Util.Vec.length dict in
      Util.Vec.push dict s;
      Hashtbl.add intern s code;
      code

let type_error c v =
  invalid_arg
    (Printf.sprintf "Column.append: %s value in %s column" (Value.to_string v)
       (Datatype.to_string c.ty))

(* An [Int] stored in a float column survives exactly iff its float image
   converts back to the same int (true for |x| <= 2^53). *)
let int_roundtrips x =
  let f = float_of_int x in
  Float.is_finite f && int_of_float f = x

let store c i v =
  (match c.payload with
   | Ints p -> (
       match v with
       | Value.Int x -> Bigarray.Array1.unsafe_set p.data i x
       | Value.Null -> Bigarray.Array1.unsafe_set p.data i 0
       | _ -> type_error c v)
   | Floats p -> (
       (match v with
        | Value.Float x -> Bigarray.Array1.unsafe_set p.data i x
        | Value.Int x ->
            Bigarray.Array1.unsafe_set p.data i (float_of_int x);
            if not (int_roundtrips x) then Hashtbl.replace c.exact i v
        | Value.Null -> Bigarray.Array1.unsafe_set p.data i 0.0
        | _ -> type_error c v);
       match v with
       | Value.Int _ -> set_bit p.intish i
       | _ -> clear_bit p.intish i)
   | Strs p -> (
       match v with
       | Value.Str s ->
           Bigarray.Array1.unsafe_set p.codes i (intern_code p.dict p.intern s)
       | Value.Null -> Bigarray.Array1.unsafe_set p.codes i 0
       | _ -> type_error c v)
   | Bools p -> (
       match v with
       | Value.Bool true -> set_bit p.bits i
       | Value.Bool false | Value.Null -> clear_bit p.bits i
       | _ -> type_error c v));
  match v with Value.Null -> clear_bit c.valid i | _ -> set_bit c.valid i

let append c v =
  let i = c.len in
  reserve c (i + 1);
  c.len <- i + 1;
  store c i v

let get c i =
  if i < 0 || i >= c.len then invalid_arg "Column.get: index out of bounds";
  if not (bit c.valid i) then Value.Null
  else
    match c.payload with
    | Ints p -> Value.Int (Bigarray.Array1.unsafe_get p.data i)
    | Floats p ->
        if bit p.intish i then
          if Hashtbl.length c.exact > 0 then
            match Hashtbl.find_opt c.exact i with
            | Some v -> v
            | None -> Value.Int (int_of_float (Bigarray.Array1.unsafe_get p.data i))
          else Value.Int (int_of_float (Bigarray.Array1.unsafe_get p.data i))
        else Value.Float (Bigarray.Array1.unsafe_get p.data i)
    | Strs p -> Value.Str (Util.Vec.get p.dict (Bigarray.Array1.unsafe_get p.codes i))
    | Bools p -> Value.Bool (bit p.bits i)

let hash_cell c i =
  if i < 0 || i >= c.len then invalid_arg "Column.hash_cell: index out of bounds";
  if not (bit c.valid i) then Value.hash Value.Null
  else
    match c.payload with
    | Ints p -> Value.hash_int (Bigarray.Array1.unsafe_get p.data i)
    (* an intish slot holds [float_of_int] of its int, which is the image
       [Value.hash_int] hashes, also beyond the float53 range *)
    | Floats p -> Value.hash_float (Bigarray.Array1.unsafe_get p.data i)
    | Strs p ->
        Hashtbl.hash (Util.Vec.get p.dict (Bigarray.Array1.unsafe_get p.codes i))
    | Bools p -> Hashtbl.hash (bit p.bits i)

let append_from dst src i =
  if i < 0 || i >= src.len then invalid_arg "Column.append_from: index out of bounds";
  if not (bit src.valid i) then append dst Value.Null
  else
    match (dst.payload, src.payload) with
    | Ints d, Ints s ->
        let j = dst.len in
        reserve dst (j + 1);
        dst.len <- j + 1;
        Bigarray.Array1.unsafe_set d.data j (Bigarray.Array1.unsafe_get s.data i);
        set_bit dst.valid j
    | Floats d, Floats s ->
        let j = dst.len in
        reserve dst (j + 1);
        dst.len <- j + 1;
        Bigarray.Array1.unsafe_set d.data j (Bigarray.Array1.unsafe_get s.data i);
        if bit s.intish i then set_bit d.intish j else clear_bit d.intish j;
        if Hashtbl.length src.exact > 0 then
          Option.iter
            (fun v -> Hashtbl.replace dst.exact j v)
            (Hashtbl.find_opt src.exact i);
        set_bit dst.valid j
    | Strs d, Strs s when d.dict == s.dict ->
        let j = dst.len in
        reserve dst (j + 1);
        dst.len <- j + 1;
        Bigarray.Array1.unsafe_set d.codes j (Bigarray.Array1.unsafe_get s.codes i);
        set_bit dst.valid j
    | Bools d, Bools s ->
        let j = dst.len in
        reserve dst (j + 1);
        dst.len <- j + 1;
        if bit s.bits i then set_bit d.bits j else clear_bit d.bits j;
        set_bit dst.valid j
    | _ -> append dst (get src i)

(* --- unboxed views for vectorized kernels ------------------------------- *)

let validity c = c.valid

let int_data c =
  match c.payload with
  | Ints p -> p.data
  | Floats _ | Strs _ | Bools _ -> invalid_arg "Column.int_data: not an int column"

let float_data c =
  match c.payload with
  | Floats p -> p.data
  | Ints _ | Strs _ | Bools _ ->
      invalid_arg "Column.float_data: not a float column"

let codes c =
  match c.payload with
  | Strs p -> p.codes
  | Ints _ | Floats _ | Bools _ -> invalid_arg "Column.codes: not a string column"

let dict_string c code =
  match c.payload with
  | Strs p -> Util.Vec.get p.dict code
  | Ints _ | Floats _ | Bools _ ->
      invalid_arg "Column.dict_string: not a string column"

(* Same capacity, the first [rows] slots blitted: the slots past the
   length are filler nobody reads. *)
let copy_int_ba (a : int_ba) rows =
  let out = make_int_ba (Bigarray.Array1.dim a) in
  Bigarray.Array1.blit (Bigarray.Array1.sub a 0 rows) (Bigarray.Array1.sub out 0 rows);
  out

let copy_float_ba (a : float_ba) rows =
  let out = make_float_ba (Bigarray.Array1.dim a) in
  Bigarray.Array1.blit (Bigarray.Array1.sub a 0 rows) (Bigarray.Array1.sub out 0 rows);
  out

let copy c =
  let payload =
    match c.payload with
    | Ints p -> Ints { data = copy_int_ba p.data c.len }
    | Floats p ->
        Floats { data = copy_float_ba p.data c.len; intish = Bytes.copy p.intish }
    | Strs p ->
        Strs
          {
            codes = copy_int_ba p.codes c.len;
            dict = Util.Vec.copy p.dict;
            intern = Hashtbl.copy p.intern;
          }
    | Bools p -> Bools { bits = Bytes.copy p.bits }
  in
  {
    ty = c.ty;
    payload;
    valid = Bytes.copy c.valid;
    len = c.len;
    exact = Hashtbl.copy c.exact;
  }
