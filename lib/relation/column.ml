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
      hashes : int Util.Vec.t;  (** [Hashtbl.hash] of each dictionary string *)
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
        Strs
          {
            codes = make_int_ba slots;
            dict = Util.Vec.create ();
            hashes = Util.Vec.create ();
            intern = Hashtbl.create 16;
          }
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

let intern_code dict hashes intern s =
  match Hashtbl.find_opt intern s with
  | Some code -> code
  | None ->
      let code = Util.Vec.length dict in
      Util.Vec.push dict s;
      Util.Vec.push hashes (Hashtbl.hash s);
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
           Bigarray.Array1.unsafe_set p.codes i (intern_code p.dict p.hashes p.intern s)
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
    | Strs p -> Util.Vec.get p.hashes (Bigarray.Array1.unsafe_get p.codes i)
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
            hashes = Util.Vec.copy p.hashes;
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

(* --- images -------------------------------------------------------------- *)

type image_data =
  | Int_image of int_ba
  | Float_image of { data : float_ba; intish : Bytes.t; exact : (int * int) list }
  | Str_image of { codes : int_ba; dict : string array }
  | Bool_image of Bytes.t

type image = { rows : int; valid : Bytes.t; data : image_data }

let bitmap_prefix bits rows = Bytes.sub bits 0 ((rows + 7) lsr 3)

(* Slots below [c.len] are never rewritten ([store] only writes slot
   [len], growth swaps in a new buffer), so the value buffers are kept by
   reference.  The bitmaps, the dictionary prefix and the exact side
   table can still change under later appends and are copied. *)
let capture c =
  let rows = c.len in
  let data =
    match c.payload with
    | Ints p -> Int_image p.data
    | Floats p ->
        let exact =
          Hashtbl.fold
            (fun i v acc ->
              match v with Value.Int x when i < rows -> (i, x) :: acc | _ -> acc)
            c.exact []
        in
        Float_image
          {
            data = p.data;
            intish = bitmap_prefix p.intish rows;
            exact = List.sort compare exact;
          }
    | Strs p -> Str_image { codes = p.codes; dict = Util.Vec.to_array p.dict }
    | Bools p -> Bool_image (bitmap_prefix p.bits rows)
  in
  { rows; valid = bitmap_prefix c.valid rows; data }

(* The codes the live non-null rows use, renumbered in order of first
   appearance: exactly the dictionary that appending those rows one by
   one would intern.  [remap.(old)] is the new code ([-1] if unused);
   [order] lists the old codes by new code. *)
let live_dict img ~live codes n_dict =
  let remap = Array.make n_dict (-1) in
  let order = Util.Vec.create () in
  for r = 0 to img.rows - 1 do
    if bit live r && bit img.valid r then begin
      let old = Bigarray.Array1.unsafe_get codes r in
      if remap.(old) < 0 then begin
        remap.(old) <- Util.Vec.length order;
        Util.Vec.push order old
      end
    end
  done;
  (remap, order)

(* A bitmap restricted to the live rows, packed densely. *)
let put_bits w bits img ~live =
  let acc = ref 0 and k = ref 0 in
  for r = 0 to img.rows - 1 do
    if bit live r then begin
      if bit bits r then acc := !acc lor (1 lsl !k);
      incr k;
      if !k = 8 then begin
        Util.Bin.put_byte w !acc;
        acc := 0;
        k := 0
      end
    end
  done;
  if !k > 0 then Util.Bin.put_byte w !acc

(* Encoding of [n] live rows: the validity bitmap ([(n + 7) / 8] bytes),
   then by type — ints: [n] words; floats: [n] IEEE words, the intish
   bitmap, a count and that many (row, int) pairs of the exact table;
   strings: a count and that many (length, bytes) dictionary entries,
   then [n] codes; bools: the value bitmap.  Null slots hold 0. *)
let encode img ~live w =
  put_bits w img.valid img ~live;
  let each f =
    for r = 0 to img.rows - 1 do
      if bit live r then f r
    done
  in
  match img.data with
  | Int_image data -> each (fun r -> Util.Bin.put_int w (Bigarray.Array1.unsafe_get data r))
  | Float_image { data; intish; exact } ->
      each (fun r -> Util.Bin.put_float_of w data r);
      put_bits w intish img ~live;
      let exact = List.filter (fun (r, _) -> bit live r) exact in
      Util.Bin.put_int w (List.length exact);
      (* rows renumber densely: the new id is the live count below *)
      let next = ref 0 and seen = ref 0 in
      List.iter
        (fun (r, x) ->
          while !seen < r do
            if bit live !seen then incr next;
            incr seen
          done;
          Util.Bin.put_int w !next;
          Util.Bin.put_int w x)
        exact
  | Str_image { codes; dict } ->
      let remap, order = live_dict img ~live codes (Array.length dict) in
      Util.Bin.put_int w (Util.Vec.length order);
      Util.Vec.iter
        (fun old ->
          let s = dict.(old) in
          Util.Bin.put_int w (String.length s);
          Util.Bin.put_string w s)
        order;
      each (fun r ->
          Util.Bin.put_int w
            (if bit img.valid r then remap.(Bigarray.Array1.unsafe_get codes r) else 0))
  | Bool_image bits -> put_bits w bits img ~live

let get_bits rd n = Bytes.of_string (Util.Bin.get_string rd ((n + 7) lsr 3))

let corrupt fmt = Printf.ksprintf (fun s -> raise (Util.Bin.Corrupt s)) fmt

let decode ty ~rows rd =
  let valid = get_bits rd rows in
  let data =
    match ty with
    | Datatype.TInt ->
        let data = make_int_ba rows in
        for r = 0 to rows - 1 do
          Bigarray.Array1.unsafe_set data r (Util.Bin.get_int rd)
        done;
        Int_image data
    | Datatype.TFloat ->
        let data = make_float_ba rows in
        for r = 0 to rows - 1 do
          Util.Bin.get_float_to rd data r
        done;
        let intish = get_bits rd rows in
        let exact =
          List.init (Util.Bin.count rd ~per:16 "exact") (fun _ ->
              let r = Util.Bin.get_int rd in
              let x = Util.Bin.get_int rd in
              if r < 0 || r >= rows || not (bit intish r) then
                corrupt "exact entry for row %d, which holds no int" r;
              (r, x))
        in
        Float_image { data; intish; exact }
    | Datatype.TString ->
        let dict =
          Array.init (Util.Bin.count rd ~per:8 "dictionary") (fun _ ->
              Util.Bin.get_string rd (Util.Bin.count rd ~per:1 "string length"))
        in
        let codes = make_int_ba rows in
        for r = 0 to rows - 1 do
          let code = Util.Bin.get_int rd in
          if code < 0 || (code >= Array.length dict && bit valid r) then
            corrupt "string code %d out of a %d-entry dictionary" code (Array.length dict);
          Bigarray.Array1.unsafe_set codes r code
        done;
        Str_image { codes; dict }
    | Datatype.TBool -> Bool_image (get_bits rd rows)
  in
  { rows; valid; data }

let of_image ty img ~live =
  let c = create ~capacity:img.rows ty in
  let copy_bit src dst r j = if bit src r then set_bit dst j in
  let each f =
    let j = ref 0 in
    for r = 0 to img.rows - 1 do
      if bit live r then begin
        copy_bit img.valid c.valid r !j;
        f r !j;
        incr j
      end
    done;
    c.len <- !j
  in
  (match (img.data, c.payload) with
  | Int_image src, Ints p ->
      each (fun r j -> Bigarray.Array1.unsafe_set p.data j (Bigarray.Array1.unsafe_get src r))
  | Float_image src, Floats p ->
      let exact = Hashtbl.create 1 in
      List.iter (fun (r, x) -> Hashtbl.replace exact r x) src.exact;
      each (fun r j ->
          Bigarray.Array1.unsafe_set p.data j (Bigarray.Array1.unsafe_get src.data r);
          copy_bit src.intish p.intish r j;
          if Hashtbl.length exact > 0 then
            Option.iter
              (fun x -> Hashtbl.replace c.exact j (Value.Int x))
              (Hashtbl.find_opt exact r))
  | Str_image src, Strs p ->
      (* interned in order of first appearance, as appends would *)
      let remap = Array.make (Array.length src.dict) (-1) in
      each (fun r j ->
          if bit img.valid r then begin
            let old = Bigarray.Array1.unsafe_get src.codes r in
            if remap.(old) < 0 then
              remap.(old) <- intern_code p.dict p.hashes p.intern src.dict.(old);
            Bigarray.Array1.unsafe_set p.codes j remap.(old)
          end
          else Bigarray.Array1.unsafe_set p.codes j 0)
  | Bool_image src, Bools p -> each (fun r j -> copy_bit src p.bits r j)
  | _ -> invalid_arg "Column.of_image: image of another type");
  c
