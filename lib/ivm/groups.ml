module Thash = Hashtbl.Make (struct
  type t = Relation.Tuple.t

  let equal = Relation.Tuple.equal
  let hash = Relation.Tuple.hash
end)

type group_state = {
  mutable members : int;
  mutable column_values : Relation.Vmultiset.t array;
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
            Array.map (fun _ -> Relation.Vmultiset.empty) g.agg_columns;
        }
      in
      Thash.add g.groups key s;
      s

let[@inline] fold_value state ci v count =
  if not (Relation.Value.is_null v) then
    state.column_values.(ci) <-
      (if count > 0 then
         Relation.Vmultiset.add ~times:count state.column_values.(ci) v
       else Relation.Vmultiset.remove ~times:(-count) state.column_values.(ci) v)

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

let add_batch g (b : Relation.Batch.t) =
  let at pos =
    Relation.Schema.index_of (Relation.Batch.schema b)
      (Relation.Schema.column_name g.schema pos)
  in
  let gpos = Array.map at g.group_positions in
  let apos = Array.map at g.agg_positions in
  Relation.Batch.iter_sel
    (fun r ->
      let state =
        state_for g (Array.map (fun p -> Relation.Batch.value b p r) gpos)
      in
      state.members <- state.members + 1;
      Array.iteri
        (fun ci p -> fold_value state ci (Relation.Batch.value b p r) 1)
        apos)
    b

let group_count g = Thash.length g.groups

let value_of_spec g state (spec : Relation.Agg.spec) ci =
  let ms = if ci >= 0 then state.column_values.(ci) else Relation.Vmultiset.empty in
  match spec.func with
  | Relation.Agg.Count -> Relation.Value.Int state.members
  | Relation.Agg.Min _ -> (
      match Relation.Vmultiset.min_elt ms with
      | Some v -> v
      | None -> Relation.Value.Null)
  | Relation.Agg.Max _ -> (
      match Relation.Vmultiset.max_elt ms with
      | Some v -> v
      | None -> Relation.Value.Null)
  | Relation.Agg.Sum c ->
      if Relation.Vmultiset.is_empty ms then Relation.Value.Null
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
                 (Relation.Vmultiset.to_list ms))
        | Relation.Datatype.TFloat | Relation.Datatype.TString
        | Relation.Datatype.TBool ->
            Relation.Value.Float (Relation.Vmultiset.sum ms)
      end
  | Relation.Agg.Avg _ ->
      if Relation.Vmultiset.is_empty ms then Relation.Value.Null
      else
        Relation.Value.Float
          (Relation.Vmultiset.sum ms
          /. float_of_int (Relation.Vmultiset.cardinal ms))

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
              Array.map (fun _ -> Relation.Vmultiset.empty) g.agg_columns;
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
