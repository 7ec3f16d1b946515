module Value = Relation.Value
module Tuple = Relation.Tuple

module Thash = Hashtbl.Make (Tuple)

(* One aggregated column's non-NULL values in one group: a counted bag in
   an open-addressed table (linear probing, load at most 1/2; a zero count
   marks a free slot), updated in place.  A slot's key is the value last
   added to, or partly removed from, its equality class, as the persistent
   map this replaced kept it, so [0.] and [-0.] (or two NaNs) render as
   they did.  [lo]/[hi] are the extrema: an add keeps them exact, a
   removal that empties an extremum's slot marks them [stale], and the
   next read rescans the table once — the paper's MIN recompute, paid only
   when the aggregate is read. *)
type bag = {
  mutable keys : Value.t array;
  mutable counts : int array;
  mutable distinct : int;
  mutable size : int;
  mutable lo : Value.t;
  mutable hi : Value.t;
  mutable stale : bool;
}

type group_state = {
  mutable members : int;
  bags : bag array;  (** one per aggregated column, in [agg_positions] order *)
}

type t = {
  schema : Relation.Schema.t;
  group_positions : int array;
  specs : Relation.Agg.spec list;
  agg_positions : int array;
      (** distinct argument columns of the aggregate specs *)
  spec_column : int array;
      (** for each spec, index into [agg_positions] (-1 for COUNT) *)
  groups : group_state Thash.t;  (** with GROUP BY *)
  single : group_state;  (** without GROUP BY: the one group *)
  output_schema : Relation.Schema.t;
}

let empty_bag () =
  { keys = [||]; counts = [||]; distinct = 0; size = 0; lo = Value.Null;
    hi = Value.Null; stale = false }

(* Equal values that render differently: the two zeros, NaN payloads. *)
let same_repr a b =
  match (a, b) with
  | Value.Float x, Value.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Value.Float _, _ | _, Value.Float _ -> false
  | _ -> true

let[@inline] home b v = Value.hash v land (Array.length b.keys - 1)

(* The slot holding [v]'s class, or the free slot that ends its probe
   run.  Top-level, so that a probe allocates no closure. *)
let rec probe b v i =
  if b.counts.(i) = 0 || Value.equal b.keys.(i) v then i
  else probe b v ((i + 1) land (Array.length b.keys - 1))

let slot b v = probe b v (home b v)

let count_of b v = if b.distinct = 0 then 0 else b.counts.(slot b v)

let add b v times =
  if 2 * (b.distinct + 1) > Array.length b.keys then begin
    let keys = b.keys and counts = b.counts in
    b.keys <- Array.make (max 8 (2 * Array.length keys)) Value.Null;
    b.counts <- Array.make (Array.length b.keys) 0;
    Array.iteri
      (fun i k ->
        if counts.(i) > 0 then begin
          let j = slot b k in
          b.keys.(j) <- k;
          b.counts.(j) <- counts.(i)
        end)
      keys
  end;
  let i = slot b v in
  if b.counts.(i) = 0 then b.distinct <- b.distinct + 1;
  if b.counts.(i) = 0 || not (same_repr b.keys.(i) v) then b.keys.(i) <- v;
  b.counts.(i) <- b.counts.(i) + times;
  let k = b.keys.(i) in
  if b.size = 0 then begin
    b.lo <- k;
    b.hi <- k;
    b.stale <- false
  end
  else if not b.stale then begin
    if k != b.lo && Value.compare k b.lo <= 0 then b.lo <- k;
    if k != b.hi && Value.compare k b.hi >= 0 then b.hi <- k
  end;
  b.size <- b.size + times

(* Backward-shift deletion of the entry at [i]: an entry after the hole
   moves up unless its home lies cyclically in (hole, entry], so every
   probe run stays whole. *)
let rec shift b i j =
  if b.counts.(j) = 0 then begin
    b.keys.(i) <- Value.Null;
    b.counts.(i) <- 0
  end
  else
    let h = home b b.keys.(j) and next = (j + 1) land (Array.length b.keys - 1) in
    if if i <= j then h > i && h <= j else h > i || h <= j then shift b i next
    else begin
      b.keys.(i) <- b.keys.(j);
      b.counts.(i) <- b.counts.(j);
      shift b j next
    end

(* The caller has checked that the bag holds [times] copies of [v]. *)
let remove b v times =
  let i = slot b v in
  b.size <- b.size - times;
  b.counts.(i) <- b.counts.(i) - times;
  if b.counts.(i) = 0 then begin
    if Value.equal v b.lo || Value.equal v b.hi then b.stale <- true;
    shift b i ((i + 1) land (Array.length b.keys - 1));
    b.distinct <- b.distinct - 1
  end
  else if not (same_repr b.keys.(i) v) then begin
    b.keys.(i) <- v;
    if (not b.stale) && Value.equal v b.lo then b.lo <- v;
    if (not b.stale) && Value.equal v b.hi then b.hi <- v
  end

let bindings b =
  let out = ref [] in
  Array.iteri (fun i k -> if b.counts.(i) > 0 then out := (k, b.counts.(i)) :: !out) b.keys;
  !out

(* [b] with exact extrema; read only with [b.size > 0]. *)
let extrema b =
  if b.stale then begin
    (match bindings b with
    | [] -> ()
    | (k, _) :: rest ->
        b.lo <- k;
        b.hi <- k;
        List.iter
          (fun (k, _) ->
            if Value.compare k b.lo < 0 then b.lo <- k;
            if Value.compare k b.hi > 0 then b.hi <- k)
          rest);
    b.stale <- false
  end;
  b

(* A float total depends on the order it is summed in.  The rows this
   state renders were pinned (goldens, perfbench's exact metrics) with the
   sum in ascending value order, so the bindings are sorted before the
   fold; a running total would drift with the update history. *)
let float_sum b =
  List.fold_left
    (fun acc (v, c) -> acc +. (float_of_int c *. Value.as_float v))
    0.0
    (List.sort (fun (a, _) (b, _) -> Value.compare a b) (bindings b))

let copy_bag b = { b with keys = Array.copy b.keys; counts = Array.copy b.counts }

let spec_arg (spec : Relation.Agg.spec) =
  match spec.func with
  | Relation.Agg.Count -> None
  | Relation.Agg.Sum c | Relation.Agg.Min c | Relation.Agg.Max c
  | Relation.Agg.Avg c ->
      Some c

let fresh_state agg_positions =
  { members = 0; bags = Array.map (fun _ -> empty_bag ()) agg_positions }

let create ~schema ~group_by ~specs =
  if specs = [] then invalid_arg "Groups.create: no aggregate specs";
  let column = Relation.Schema.index_of schema in
  let group_positions = Array.of_list (List.map column group_by) in
  let agg_columns =
    List.fold_left
      (fun acc c -> if List.mem c acc then acc else acc @ [ c ])
      [] (List.filter_map spec_arg specs)
  in
  let output_schema =
    let group_col i =
      (Relation.Schema.column_name schema i, Relation.Schema.column_type schema i)
    and agg_col (spec : Relation.Agg.spec) =
      (spec.as_name, Relation.Agg.output_type schema spec.func)
    in
    Relation.Schema.make
      (List.map group_col (Array.to_list group_positions) @ List.map agg_col specs)
  in
  let agg_positions = Array.of_list (List.map column agg_columns) in
  {
    schema;
    group_positions;
    specs;
    agg_positions;
    spec_column =
      Array.of_list
        (List.map
           (fun s ->
             match spec_arg s with
             | None -> -1
             | Some c -> Option.get (List.find_index (String.equal c) agg_columns))
           specs);
    groups = Thash.create 64;
    single = fresh_state agg_positions;
    output_schema;
  }

let grouped g = Array.length g.group_positions > 0

(* The state of [key]'s group: fresh, and not yet in the table, if the
   group is empty. *)
let state_of g key =
  if not (grouped g) then g.single
  else
    match Thash.find_opt g.groups key with
    | Some s -> s
    | None -> fresh_state g.agg_positions

(* Membership changes by [count] (already checked).  A group emptied of
   members is dropped whole, values left behind by an inconsistent NULL
   stream included; the one group without GROUP BY is emptied in place. *)
let add_members g key state count =
  if grouped g && state.members = 0 then Thash.add g.groups key state;
  state.members <- state.members + count;
  if state.members = 0 then
    if grouped g then Thash.remove g.groups key
    else
      Array.iteri
        (fun ci b -> if b.distinct > 0 then state.bags.(ci) <- empty_bag ())
        state.bags

let apply g tuple count =
  if count <> 0 then begin
    let key = if grouped g then Tuple.project tuple g.group_positions else [||] in
    let state = state_of g key in
    (* Every check runs before the first change, so a refused apply
       leaves the group as it was. *)
    if state.members + count < 0 then
      invalid_arg "Groups.apply: group member count would go negative";
    if count < 0 then
      for ci = 0 to Array.length g.agg_positions - 1 do
        let v = Tuple.get tuple g.agg_positions.(ci) in
        if (not (Value.is_null v)) && count_of state.bags.(ci) v < -count then
          invalid_arg "Groups.apply: removing a value the group does not hold"
      done;
    for ci = 0 to Array.length g.agg_positions - 1 do
      let v = Tuple.get tuple g.agg_positions.(ci) in
      if not (Value.is_null v) then
        if count > 0 then add state.bags.(ci) v count
        else remove state.bags.(ci) v (-count)
    done;
    add_members g key state count
  end

let add_batch g (b : Relation.Batch.t) =
  let at pos =
    Relation.Schema.index_of (Relation.Batch.schema b)
      (Relation.Schema.column_name g.schema pos)
  in
  let gpos = Array.map at g.group_positions in
  let apos = Array.map at g.agg_positions in
  Relation.Batch.iter_sel
    (fun r ->
      let key = Array.map (fun p -> Relation.Batch.value b p r) gpos in
      let state = state_of g key in
      for ci = 0 to Array.length apos - 1 do
        let v = Relation.Batch.value b apos.(ci) r in
        if not (Value.is_null v) then add state.bags.(ci) v 1
      done;
      add_members g key state 1)
    b

let group_count g =
  if grouped g then Thash.length g.groups else if g.single.members > 0 then 1 else 0

let value_of_spec g state (spec : Relation.Agg.spec) ci =
  let b = if ci < 0 then empty_bag () else state.bags.(ci) in
  match spec.func with
  | Relation.Agg.Count -> Value.Int state.members
  | _ when b.size = 0 -> Value.Null
  | Relation.Agg.Min _ -> (extrema b).lo
  | Relation.Agg.Max _ -> (extrema b).hi
  | Relation.Agg.Sum _ -> (
      match Relation.Schema.column_type g.schema g.agg_positions.(ci) with
      | Relation.Datatype.TInt ->
          (* exact, so the table's order does not matter *)
          Value.Int
            (List.fold_left (fun acc (v, c) -> acc + (c * Value.as_int v)) 0 (bindings b))
      | Relation.Datatype.TFloat | Relation.Datatype.TString
      | Relation.Datatype.TBool ->
          Value.Float (float_sum b))
  | Relation.Agg.Avg _ -> Value.Float (float_sum b /. float_of_int b.size)

let render_row g key state =
  let aggs =
    List.mapi
      (fun si spec -> value_of_spec g state spec g.spec_column.(si))
      g.specs
  in
  Array.append key (Array.of_list aggs)

let rows g =
  if not (grouped g) then
    (* Single-group SQL semantics: always one output row. *)
    [ render_row g [||] g.single ]
  else begin
    let out = ref [] in
    Thash.iter (fun key state -> out := render_row g key state :: !out) g.groups;
    List.sort Tuple.compare !out
  end

let output_schema g = g.output_schema

(* Keys are immutable and shared; each group gets its own bags. *)
let copy g =
  let copy_state s = { members = s.members; bags = Array.map copy_bag s.bags } in
  let groups = Thash.copy g.groups in
  Thash.filter_map_inplace (fun _ s -> Some (copy_state s)) groups;
  { g with groups; single = copy_state g.single }
