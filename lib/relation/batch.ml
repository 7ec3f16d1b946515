let capacity = 1024

type t = {
  schema : Schema.t;
  cols : Column.t array;
  base : int;
  len : int;
  mutable sel : int array;
  mutable n_sel : int;
}

let view ~schema ~cols ~base ~len ~sel ~n_sel =
  { schema; cols; base; len; sel; n_sel }

let schema b = b.schema
let length b = b.n_sel
let width b = Array.length b.cols

let with_schema b schema =
  if Schema.arity schema <> Array.length b.cols then
    invalid_arg "Batch.with_schema: arity mismatch";
  { b with schema }

let value b c r = Column.get b.cols.(c) (b.base + r)

let tuple b r = Array.init (Array.length b.cols) (fun c -> value b c r)

let iter_sel f b =
  for s = 0 to b.n_sel - 1 do
    f (Array.unsafe_get b.sel s)
  done

let iter_tuples f b = iter_sel (fun r -> f (tuple b r)) b

(* Column data is shared (zero-copy), but the projection gets a private
   selection vector: [sel]/[n_sel] are mutable and a filter above the
   projection compacts them in place, which must not narrow the source
   batch under any other consumer of the same drained chunk. *)
let project b positions schema =
  {
    b with
    schema;
    cols = Array.map (fun i -> b.cols.(i)) positions;
    sel = Array.sub b.sel 0 b.n_sel;
  }

let filter_in_place b keep =
  let n = ref 0 in
  for s = 0 to b.n_sel - 1 do
    let r = Array.unsafe_get b.sel s in
    if keep r then begin
      Array.unsafe_set b.sel !n r;
      incr n
    end
  done;
  b.n_sel <- !n

(* --- building fresh batches -------------------------------------------- *)

module Builder = struct
  type batch = t

  (* Output columns are allocated at full batch capacity, so filling a
     batch never regrows its buffers, and only when the first row of a
     batch arrives, so the flush that ends a sink allocates nothing. *)
  type t = {
    schema : Schema.t;
    mutable cols : Column.t array;
    mutable allocated : bool;
    mutable rows : int;
  }

  let create schema = { schema; cols = [||]; allocated = false; rows = 0 }

  let cols b =
    if not b.allocated then begin
      b.cols <-
        Array.init (Schema.arity b.schema) (fun i ->
            Column.create ~capacity (Schema.column_type b.schema i));
      b.allocated <- true
    end;
    b.cols

  let rows b = b.rows
  let full b = b.rows >= capacity

  let append_tuple b t =
    Array.iteri (fun c col -> Column.append col (Tuple.get t c)) (cols b);
    b.rows <- b.rows + 1

  let append_join b (l : batch) lr (rt : batch) rr =
    let out = cols b in
    let labs = l.base + lr and rabs = rt.base + rr in
    let lw = Array.length l.cols in
    for c = 0 to lw - 1 do
      Column.append_from out.(c) l.cols.(c) labs
    done;
    for c = 0 to Array.length rt.cols - 1 do
      Column.append_from out.(lw + c) rt.cols.(c) rabs
    done;
    b.rows <- b.rows + 1

  let flush b =
    if b.rows = 0 then None
    else begin
      let out =
        {
          schema = b.schema;
          cols = b.cols;
          base = 0;
          len = b.rows;
          sel = Array.init b.rows (fun i -> i);
          n_sel = b.rows;
        }
      in
      b.cols <- [||];
      b.allocated <- false;
      b.rows <- 0;
      Some out
    end
end

let of_tuples schema tuples =
  let b = Builder.create schema in
  let out = ref [] in
  List.iter
    (fun t ->
      Builder.append_tuple b t;
      if Builder.full b then
        match Builder.flush b with Some batch -> out := batch :: !out | None -> ())
    tuples;
  (match Builder.flush b with Some batch -> out := batch :: !out | None -> ());
  List.rev !out

let to_tuples b =
  let out = ref [] in
  iter_tuples (fun t -> out := t :: !out) b;
  List.rev !out
