type t =
  | Scan of { table : Table.t; alias : string }
  | Select of Expr.t * t
  | Project of string list * t
  | Join of { on : (string * string) list; left : t; right : t }
  | Aggregate of { group_by : string list; specs : Agg.spec list; input : t }

let scan ?alias table =
  let alias = match alias with Some a -> a | None -> Table.name table in
  Scan { table; alias }

let select pred input = Select (pred, input)
let project cols input = Project (cols, input)

let equijoin ~on left right =
  if on = [] then invalid_arg "Ra.equijoin: empty join condition";
  Join { on; left; right }

let aggregate ~group_by specs input =
  if specs = [] && group_by = [] then
    invalid_arg "Ra.aggregate: nothing to compute";
  Aggregate { group_by; specs; input }

let rec schema_of = function
  | Scan { table; alias } -> Schema.qualify alias (Table.schema table)
  | Select (_, input) -> schema_of input
  | Project (cols, input) -> fst (Schema.project (schema_of input) cols)
  | Join { left; right; _ } -> Schema.concat (schema_of left) (schema_of right)
  | Aggregate { group_by; specs; input } ->
      let s = schema_of input in
      let group_cols =
        List.map
          (fun name ->
            let i = Schema.index_of s name in
            (Schema.column_name s i, Schema.column_type s i))
          group_by
      in
      let agg_cols =
        List.map
          (fun (spec : Agg.spec) ->
            (spec.as_name, Agg.output_type s spec.func))
          specs
      in
      Schema.make (group_cols @ agg_cols)

(* --- physical operators ------------------------------------------------ *)

module Thash = Hashtbl.Make (struct
  type t = Tuple.t

  let equal = Tuple.equal
  let hash = Tuple.hash
end)

let key_of positions tuple = Array.map (fun i -> Tuple.get tuple i) positions

let join_positions schema_l schema_r on =
  let lpos = Array.of_list (List.map (fun (l, _) -> Schema.index_of schema_l l) on) in
  let rpos = Array.of_list (List.map (fun (_, r) -> Schema.index_of schema_r r) on) in
  (lpos, rpos)

let hash_join meter lpos rpos lrows rrows =
  (* Build on the right input, probe with the left. *)
  let table = Thash.create (max 16 (List.length rrows)) in
  List.iter
    (fun rt ->
      Meter.bump_hash_build meter 1;
      let k = key_of rpos rt in
      Thash.add table k rt)
    rrows;
  let out = ref [] in
  List.iter
    (fun lt ->
      Meter.bump_hash_probe meter 1;
      let k = key_of lpos lt in
      (* Hashtbl.find_all returns most-recent first; reverse for stability. *)
      List.iter
        (fun rt ->
          Meter.bump_output meter 1;
          out := Tuple.concat lt rt :: !out)
        (List.rev (Thash.find_all table k)))
    lrows;
  List.rev !out

(* The boxed evaluator's aggregation: first-seen group order, SQL single
   row for [group_by = []] even over empty input.  The cursor path folds
   batches into the same results ({!aggregate_batches}). *)
let aggregate_rows s group_by specs rows =
  let positions = Array.of_list (List.map (Schema.index_of s) group_by) in
  if group_by = [] then
    [ Array.of_list (List.map (fun (sp : Agg.spec) -> Agg.apply s sp.func rows) specs) ]
  else begin
    let groups = Thash.create 64 in
    let order = ref [] in
    List.iter
      (fun t ->
        let k = key_of positions t in
        match Thash.find_opt groups k with
        | Some cell -> cell := t :: !cell
        | None ->
            Thash.add groups k (ref [ t ]);
            order := k :: !order)
      rows;
    List.rev_map
      (fun k ->
        let members = List.rev !(Thash.find groups k) in
        let aggs = List.map (fun (sp : Agg.spec) -> Agg.apply s sp.func members) specs in
        Array.append k (Array.of_list aggs))
      !order
  end

(* A join meters on its left input's table. *)
let rec meter_of = function
  | Scan { table; _ } -> Table.meter table
  | Select (_, input) | Project (_, input) | Aggregate { input; _ } ->
      meter_of input
  | Join { left; _ } -> meter_of left

(* --- evaluation --------------------------------------------------------- *)

let rec eval_boxed node =
  match node with
  | Scan { table; alias = _ } -> Table.to_list table
  | Select (pred, input) ->
      let p = Expr.compile_pred (schema_of input) pred in
      List.filter p (eval_boxed input)
  | Project (cols, input) ->
      let _, positions = Schema.project (schema_of input) cols in
      List.map (fun t -> Tuple.project t positions) (eval_boxed input)
  | Join { on; left; right } ->
      let lpos, rpos = join_positions (schema_of left) (schema_of right) on in
      let lrows = eval_boxed left and rrows = eval_boxed right in
      hash_join (meter_of left) lpos rpos lrows rrows
  | Aggregate { group_by; specs; input } ->
      aggregate_rows (schema_of input) group_by specs (eval_boxed input)

(* --- vectorized evaluation --------------------------------------------- *)

type cursor = unit -> Batch.t option

let drain (c : cursor) =
  let rec loop acc =
    match c () with None -> List.rev acc | Some b -> loop (b :: acc)
  in
  loop []

let rec iter_cursor f (c : cursor) =
  match c () with
  | None -> ()
  | Some b ->
      f b;
      iter_cursor f c

let tuples_of_cursor (c : cursor) =
  let out = ref [] in
  iter_cursor (Batch.iter_tuples (fun t -> out := t :: !out)) c;
  List.rev !out

(* Blocking operators (joins, aggregates) compute their full
   output batch list on first pull, like the boxed evaluator materializes
   its output lists; streaming operators (scan/select/project) stay
   batch-at-a-time. *)
let lazy_batches f : cursor =
  let state = ref None in
  fun () ->
    let rest = match !state with None -> f () | Some r -> r in
    match rest with
    | [] ->
        state := Some [];
        None
    | b :: tl ->
        state := Some tl;
        Some b

(* Flush-on-full accumulation into an output batch list. *)
let sink schema =
  let builder = Batch.Builder.create schema in
  let acc = ref [] in
  let flush () =
    match Batch.Builder.flush builder with
    | Some b -> acc := b :: !acc
    | None -> ()
  in
  let maybe_flush () = if Batch.Builder.full builder then flush () in
  (builder, maybe_flush, fun () -> flush (); List.rev !acc)

let batch_key lpos (b : Batch.t) r =
  Array.map (fun i -> Batch.value b i r) lpos

(* Hash join, build on the right / probe with the left like the boxed
   operator, with an unboxed fast path when the (single) join key is a pair
   of int columns.  NULL keys join NULL keys — [Value.equal Null Null] —
   exactly as the boxed Tuple-keyed hash table does, so the fast path keeps
   a dedicated null chain. *)
let vec_hash_join meter out_schema schema_l schema_r lpos rpos (lcur : cursor)
    rbatches =
  let builder, maybe_flush, finish = sink out_schema in
  let int_key =
    Array.length lpos = 1
    &&
    match
      ( Schema.column_type schema_l lpos.(0),
        Schema.column_type schema_r rpos.(0) )
    with
    | Datatype.TInt, Datatype.TInt -> true
    | _ -> false
  in
  if int_key then begin
    let rarr = Array.of_list rbatches in
    let h = Ihash.create 1024 in
    let nulls = ref [] in
    Array.iteri
      (fun bi (rb : Batch.t) ->
        Meter.bump_hash_build meter rb.Batch.n_sel;
        let col = rb.Batch.cols.(rpos.(0)) in
        let data = Column.int_data col and valid = Column.validity col in
        let base = rb.Batch.base in
        for s = 0 to rb.Batch.n_sel - 1 do
          let r = Array.unsafe_get rb.Batch.sel s in
          let abs = base + r in
          (* rows-in-batch fit 10 bits (Batch.capacity = 1024) *)
          let payload = (bi lsl 10) lor r in
          if Column.bit valid abs then
            Ihash.add h (Bigarray.Array1.unsafe_get data abs) payload
          else nulls := payload :: !nulls
        done)
      rarr;
    let nulls = List.rev !nulls in
    let emit lb r payload =
      Batch.Builder.append_join builder lb r
        rarr.(payload lsr 10)
        (payload land 0x3FF);
      maybe_flush ()
    in
    let rec probe () =
      match lcur () with
      | None -> ()
      | Some lb ->
          Meter.bump_hash_probe meter lb.Batch.n_sel;
          let col = lb.Batch.cols.(lpos.(0)) in
          let data = Column.int_data col and valid = Column.validity col in
          let base = lb.Batch.base in
          let emitted = ref 0 in
          for s = 0 to lb.Batch.n_sel - 1 do
            let r = Array.unsafe_get lb.Batch.sel s in
            let abs = base + r in
            if Column.bit valid abs then begin
              let cell =
                ref (Ihash.first h (Bigarray.Array1.unsafe_get data abs))
              in
              while !cell >= 0 do
                emit lb r (Ihash.payload_of h !cell);
                incr emitted;
                cell := Ihash.next_cell h !cell
              done
            end
            else
              List.iter
                (fun payload ->
                  emit lb r payload;
                  incr emitted)
                nulls
          done;
          Meter.bump_output meter !emitted;
          probe ()
    in
    probe ()
  end
  else begin
    (* general path: Tuple-keyed buckets holding (batch, row) pairs in
       insertion order *)
    let table = Thash.create 64 in
    List.iter
      (fun (rb : Batch.t) ->
        Meter.bump_hash_build meter rb.Batch.n_sel;
        Batch.iter_sel
          (fun r ->
            let k = batch_key rpos rb r in
            match Thash.find_opt table k with
            | Some cell -> cell := (rb, r) :: !cell
            | None -> Thash.add table k (ref [ (rb, r) ]))
          rb)
      rbatches;
    let rec probe () =
      match lcur () with
      | None -> ()
      | Some lb ->
          Meter.bump_hash_probe meter lb.Batch.n_sel;
          let emitted = ref 0 in
          Batch.iter_sel
            (fun r ->
              let k = batch_key lpos lb r in
              match Thash.find_opt table k with
              | None -> ()
              | Some cell ->
                  List.iter
                    (fun (rb, rr) ->
                      Batch.Builder.append_join builder lb r rb rr;
                      incr emitted;
                      maybe_flush ())
                    (List.rev !cell))
            lb;
          Meter.bump_output meter !emitted;
          probe ()
    in
    probe ()
  end;
  finish ()

(* Running state of one aggregate over one group.  Values fold in cursor
   order with the operations [Agg.apply] uses (integer sum while every
   value is an [Int], left-to-right float sum otherwise, strict
   [Value.compare] for MIN/MAX), so the result is bit-identical to
   {!aggregate_rows} over the same rows. *)
type agg_acc = {
  mutable seen : int;  (** non-NULL argument values *)
  mutable all_int : bool;
  mutable isum : int;
  mutable fsum : float;
  mutable best : Value.t;  (** MIN/MAX so far *)
}

type agg_group = { mutable rows : int; accs : agg_acc array }

let fold_agg_value (func : Agg.func) a v =
  if not (Value.is_null v) then begin
    (match func with
    | Agg.Count -> ()
    | Agg.Sum _ | Agg.Avg _ ->
        (match v with
        | Value.Int x -> a.isum <- a.isum + x
        | _ -> a.all_int <- false);
        a.fsum <- a.fsum +. Value.as_float v
    | Agg.Min _ -> if a.seen = 0 || Value.compare v a.best < 0 then a.best <- v
    | Agg.Max _ -> if a.seen = 0 || Value.compare v a.best > 0 then a.best <- v);
    a.seen <- a.seen + 1
  end

let agg_result (func : Agg.func) g a =
  match func with
  | Agg.Count -> Value.Int g.rows
  | _ when a.seen = 0 -> Value.Null
  | Agg.Sum _ -> if a.all_int then Value.Int a.isum else Value.Float a.fsum
  | Agg.Min _ | Agg.Max _ -> a.best
  | Agg.Avg _ -> Value.Float (a.fsum /. float_of_int a.seen)

let aggregate_batches s group_by specs (c : cursor) =
  let gpos = Array.of_list (List.map (Schema.index_of s) group_by) in
  let funcs = Array.of_list (List.map (fun (sp : Agg.spec) -> sp.func) specs) in
  let args =
    Array.map
      (function
        | Agg.Count -> -1
        | Agg.Sum col | Agg.Min col | Agg.Max col | Agg.Avg col ->
            Schema.index_of s col)
      funcs
  in
  let fresh () =
    {
      rows = 0;
      accs =
        Array.map
          (fun _ ->
            { seen = 0; all_int = true; isum = 0; fsum = 0.0; best = Value.Null })
          funcs;
    }
  in
  let groups = Thash.create 64 in
  let order = ref [] in
  let global = fresh () in
  let group_of b r =
    if Array.length gpos = 0 then global
    else begin
      let k = batch_key gpos b r in
      match Thash.find_opt groups k with
      | Some g -> g
      | None ->
          let g = fresh () in
          Thash.add groups k g;
          order := (k, g) :: !order;
          g
    end
  in
  iter_cursor
    (fun b ->
      Batch.iter_sel
        (fun r ->
          let g = group_of b r in
          g.rows <- g.rows + 1;
          Array.iteri
            (fun i p ->
              if p >= 0 then fold_agg_value funcs.(i) g.accs.(i) (Batch.value b p r))
            args)
        b)
    c;
  let row k g = Array.append k (Array.mapi (fun i f -> agg_result f g g.accs.(i)) funcs) in
  if Array.length gpos = 0 then [ row [||] global ]
  else List.rev_map (fun (k, g) -> row k g) !order

let rec cursor node : cursor =
  match node with
  | Scan { table; alias } ->
      let qschema = Schema.qualify alias (Table.schema table) in
      let c = Table.batch_cursor table in
      fun () -> Option.map (fun b -> Batch.with_schema b qschema) (c ())
  | Select (pred, input) ->
      let s = schema_of input in
      let filt = Expr.filter_batch s pred in
      let c = cursor input in
      let rec next () =
        match c () with
        | None -> None
        | Some b ->
            filt b;
            if b.Batch.n_sel = 0 then next () else Some b
      in
      next
  | Project (cols, input) ->
      let s = schema_of input in
      let out_schema, positions = Schema.project s cols in
      let c = cursor input in
      fun () ->
        Option.map (fun b -> Batch.project b positions out_schema) (c ())
  | Join { on; left; right } ->
      let out_schema = schema_of node in
      let schema_l = schema_of left and schema_r = schema_of right in
      let lpos, rpos = join_positions schema_l schema_r on in
      lazy_batches (fun () ->
          vec_hash_join (meter_of left) out_schema schema_l schema_r lpos rpos
            (cursor left)
            (drain (cursor right)))
  | Aggregate { group_by; specs; input } ->
      let out_schema = schema_of node in
      let s = schema_of input in
      lazy_batches (fun () ->
          Batch.of_tuples out_schema
            (aggregate_batches s group_by specs (cursor input)))

let eval node = tuples_of_cursor (cursor node)

let iter_batches node f = iter_cursor f (cursor node)

let rec explain_lines indent node =
  let pad = String.make indent ' ' in
  match node with
  | Scan { table; alias } ->
      [ Printf.sprintf "%sScan %s as %s (%d rows)" pad (Table.name table) alias
          (Table.row_count table) ]
  | Select (pred, input) ->
      (pad ^ "Select " ^ Expr.to_string pred) :: explain_lines (indent + 2) input
  | Project (cols, input) ->
      (pad ^ "Project " ^ String.concat ", " cols)
      :: explain_lines (indent + 2) input
  | Join { on; left; right } ->
      let cond = String.concat " AND " (List.map (fun (l, r) -> l ^ " = " ^ r) on) in
      (Printf.sprintf "%sJoin[hash] %s" pad cond)
      :: (explain_lines (indent + 2) left @ explain_lines (indent + 2) right)
  | Aggregate { group_by; specs; input } ->
      let parts =
        List.map
          (fun (sp : Agg.spec) ->
            let f =
              match sp.func with
              | Agg.Count -> "COUNT(*)"
              | Agg.Sum c -> "SUM(" ^ c ^ ")"
              | Agg.Min c -> "MIN(" ^ c ^ ")"
              | Agg.Max c -> "MAX(" ^ c ^ ")"
              | Agg.Avg c -> "AVG(" ^ c ^ ")"
            in
            f ^ " AS " ^ sp.as_name)
          specs
      in
      let grp = if group_by = [] then "" else " GROUP BY " ^ String.concat ", " group_by in
      (pad ^ "Aggregate " ^ String.concat ", " parts ^ grp)
      :: explain_lines (indent + 2) input

let explain node = String.concat "\n" (explain_lines 0 node)
