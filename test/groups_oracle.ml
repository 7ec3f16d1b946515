(* Grouped aggregate state as it stood before {!Ivm.Groups} became a
   mutable counted bag per column: one persistent multiset (an OCaml
   [Map] keyed by [Value.compare]) per aggregated column per group,
   rebuilt on every change.  Kept as the reference the counted bag must
   reproduce bit for bit (test_props), the representative of an
   equality class ([0.] vs [-0.], NaN payloads) and the ascending-order
   float sums included.  [apply] here is not atomic: a refused removal
   can leave a group half-applied, so sequences driven through it only
   remove what is present. *)

(* Multiset of values with counted membership; [to_list] and [sum] run
   in ascending [Value.compare] order. *)
module Vmultiset = struct
  module Vmap = Map.Make (struct
    type t = Relation.Value.t

    let compare = Relation.Value.compare
  end)

  type t = { counts : int Vmap.t; size : int }

  let empty = { counts = Vmap.empty; size = 0 }

  let is_empty m = m.size = 0

  let cardinal m = m.size

  let distinct m = Vmap.cardinal m.counts

  let count m v = match Vmap.find_opt v m.counts with Some c -> c | None -> 0

  let add ?(times = 1) m v =
    if times < 0 then invalid_arg "Vmultiset.add: negative count";
    if times = 0 then m
    else
      let counts =
        Vmap.update v
          (function None -> Some times | Some c -> Some (c + times))
          m.counts
      in
      { counts; size = m.size + times }

  let remove ?(times = 1) m v =
    if times < 0 then invalid_arg "Vmultiset.remove: negative count";
    if times = 0 then m
    else
      let present = count m v in
      if present < times then
        invalid_arg "Vmultiset.remove: removing more copies than present";
      let counts =
        if present = times then Vmap.remove v m.counts
        else Vmap.add v (present - times) m.counts
      in
      { counts; size = m.size - times }

  let min_elt m =
    match Vmap.min_binding_opt m.counts with
    | Some (v, _) -> Some v
    | None -> None

  let max_elt m =
    match Vmap.max_binding_opt m.counts with
    | Some (v, _) -> Some v
    | None -> None

  let sum m =
    Vmap.fold
      (fun v c acc -> acc +. (float_of_int c *. Relation.Value.as_float v))
      m.counts 0.0

  let to_list m = Vmap.bindings m.counts

  let of_list vs = List.fold_left (fun m v -> add m v) empty vs

  let equal a b = a.size = b.size && Vmap.equal Int.equal a.counts b.counts
end

module Thash = Hashtbl.Make (struct
  type t = Relation.Tuple.t

  let equal = Relation.Tuple.equal
  let hash = Relation.Tuple.hash
end)

type group_state = {
  mutable members : int;
  mutable column_values : Vmultiset.t array;
      (** one multiset per aggregated column, in [agg_columns] order *)
}

type t = {
  schema : Relation.Schema.t;
  group_positions : int array;
  specs : Relation.Agg.spec list;
  agg_columns : string array;
      (** distinct argument columns of the aggregate specs *)
  agg_positions : int array;
  spec_column : int array;
      (** for each spec, index into [agg_columns] (-1 for COUNT) *)
  groups : group_state Thash.t;
  output_schema : Relation.Schema.t;
}

let spec_arg (spec : Relation.Agg.spec) =
  match spec.func with
  | Relation.Agg.Count -> None
  | Relation.Agg.Sum c | Relation.Agg.Min c | Relation.Agg.Max c
  | Relation.Agg.Avg c ->
      Some c

let create ~schema ~group_by ~specs =
  if specs = [] then invalid_arg "Groups.create: no aggregate specs";
  let group_positions =
    Array.of_list (List.map (Relation.Schema.index_of schema) group_by)
  in
  let agg_columns =
    let seen = Hashtbl.create 4 in
    let out = ref [] in
    List.iter
      (fun spec ->
        match spec_arg spec with
        | Some c when not (Hashtbl.mem seen c) ->
            Hashtbl.add seen c ();
            out := c :: !out
        | Some _ | None -> ())
      specs;
    Array.of_list (List.rev !out)
  in
  let agg_positions = Array.map (Relation.Schema.index_of schema) agg_columns in
  let spec_column =
    Array.of_list
      (List.map
         (fun spec ->
           match spec_arg spec with
           | None -> -1
           | Some c ->
               let rec find i =
                 if i >= Array.length agg_columns then assert false
                 else if String.equal agg_columns.(i) c then i
                 else find (i + 1)
               in
               find 0)
         specs)
  in
  let output_schema =
    let group_cols =
      List.map
        (fun name ->
          let i = Relation.Schema.index_of schema name in
          ( Relation.Schema.column_name schema i,
            Relation.Schema.column_type schema i ))
        group_by
    in
    let agg_cols =
      List.map
        (fun (spec : Relation.Agg.spec) ->
          (spec.as_name, Relation.Agg.output_type schema spec.func))
        specs
    in
    Relation.Schema.make (group_cols @ agg_cols)
  in
  {
    schema;
    group_positions;
    specs;
    agg_columns;
    agg_positions;
    spec_column;
    groups = Thash.create 64;
    output_schema;
  }

let[@inline] state_for g key =
  match Thash.find_opt g.groups key with
  | Some s -> s
  | None ->
      let s =
        {
          members = 0;
          column_values =
            Array.map (fun _ -> Vmultiset.empty) g.agg_columns;
        }
      in
      Thash.add g.groups key s;
      s

let[@inline] fold_value state ci v count =
  if not (Relation.Value.is_null v) then
    state.column_values.(ci) <-
      (if count > 0 then
         Vmultiset.add ~times:count state.column_values.(ci) v
       else Vmultiset.remove ~times:(-count) state.column_values.(ci) v)

let apply g tuple count =
  if count = 0 then ()
  else begin
    let key = Relation.Tuple.project tuple g.group_positions in
    let state = state_for g key in
    if state.members + count < 0 then
      invalid_arg "Groups.apply: group member count would go negative";
    state.members <- state.members + count;
    Array.iteri
      (fun ci pos -> fold_value state ci (Relation.Tuple.get tuple pos) count)
      g.agg_positions;
    if state.members = 0 then Thash.remove g.groups key
  end

let group_count g = Thash.length g.groups

let value_of_spec g state (spec : Relation.Agg.spec) ci =
  let ms = if ci >= 0 then state.column_values.(ci) else Vmultiset.empty in
  match spec.func with
  | Relation.Agg.Count -> Relation.Value.Int state.members
  | Relation.Agg.Min _ -> (
      match Vmultiset.min_elt ms with
      | Some v -> v
      | None -> Relation.Value.Null)
  | Relation.Agg.Max _ -> (
      match Vmultiset.max_elt ms with
      | Some v -> v
      | None -> Relation.Value.Null)
  | Relation.Agg.Sum c ->
      if Vmultiset.is_empty ms then Relation.Value.Null
      else begin
        let col_ty =
          Relation.Schema.column_type g.schema
            (Relation.Schema.index_of g.schema c)
        in
        match col_ty with
        | Relation.Datatype.TInt ->
            Relation.Value.Int
              (List.fold_left
                 (fun acc (v, c) -> acc + (c * Relation.Value.as_int v))
                 0
                 (Vmultiset.to_list ms))
        | Relation.Datatype.TFloat | Relation.Datatype.TString
        | Relation.Datatype.TBool ->
            Relation.Value.Float (Vmultiset.sum ms)
      end
  | Relation.Agg.Avg _ ->
      if Vmultiset.is_empty ms then Relation.Value.Null
      else
        Relation.Value.Float
          (Vmultiset.sum ms
          /. float_of_int (Vmultiset.cardinal ms))

let render_row g key state =
  let aggs =
    List.mapi
      (fun si spec -> value_of_spec g state spec g.spec_column.(si))
      g.specs
  in
  Array.append key (Array.of_list aggs)

let rows g =
  if Array.length g.group_positions = 0 then begin
    (* Single-group SQL semantics: always one output row. *)
    match Thash.find_opt g.groups [||] with
    | Some state -> [ render_row g [||] state ]
    | None ->
        let empty =
          {
            members = 0;
            column_values =
              Array.map (fun _ -> Vmultiset.empty) g.agg_columns;
          }
        in
        [ render_row g [||] empty ]
  end
  else begin
    let out = ref [] in
    Thash.iter (fun key state -> out := render_row g key state :: !out) g.groups;
    List.sort Relation.Tuple.compare !out
  end

let output_schema g = g.output_schema

(* Keys and multisets are immutable and shared; each group gets its own
   mutable state. *)
let copy g =
  let groups = Thash.copy g.groups in
  Thash.filter_map_inplace
    (fun _ s ->
      Some { members = s.members; column_values = Array.copy s.column_values })
    groups;
  { g with groups }
