open Relation

type db2 = { r : Table.t; s : Table.t; meter : Meter.t }

let r_schema =
  Schema.make
    [ ("rk", Datatype.TInt); ("jk", Datatype.TInt); ("rval", Datatype.TFloat) ]

let s_schema =
  Schema.make
    [ ("sk", Datatype.TInt); ("jk", Datatype.TInt); ("sval", Datatype.TFloat) ]

let generate ?(seed = 7) ~r_rows ~s_rows ?join_domain () =
  if r_rows < 0 || s_rows < 0 then invalid_arg "Synth.generate: negative sizes";
  let domain =
    match join_domain with
    | Some d ->
        if d <= 0 then invalid_arg "Synth.generate: join_domain must be positive";
        d
    | None -> max 1 (max r_rows s_rows / 4)
  in
  let prng = Util.Prng.create ~seed in
  let meter = Meter.create () in
  let r = Table.create ~meter ~name:"r" ~schema:r_schema () in
  let s = Table.create ~meter ~name:"s" ~schema:s_schema () in
  for i = 1 to r_rows do
    ignore
      (Table.insert r
         [|
           Value.Int i;
           Value.Int (Util.Prng.int prng domain);
           Value.Float (Util.Prng.float prng 100.0);
         |])
  done;
  for i = 1 to s_rows do
    ignore
      (Table.insert s
         [|
           Value.Int i;
           Value.Int (Util.Prng.int prng domain);
           Value.Float (Util.Prng.float prng 100.0);
         |])
  done;
  (* The asymmetry: R is indexed on the join attribute, S is not. *)
  Table.create_index r "jk";
  Meter.reset meter;
  { r; s; meter }

let view_over tables =
  Ivm.Viewdef.make ~name:"r_join_s" ~tables
    ~join:[ { Ivm.Viewdef.left = 0; left_col = "jk"; right = 1; right_col = "jk" } ]
    ~aggs:[ Agg.count "pairs" ]
    ()

let join_view db = view_over [| db.r; db.s |]

(* The join domain recovered from current contents (one past the largest
   [jk]); inserts stay within it.  An unmetered pass over the [jk] column
   that boxes no row. *)
let domain_of table =
  let top = ref 0 in
  Table.scan_batches ~metered:false table (fun b ->
      Batch.iter_sel
        (fun r -> top := max !top (Value.as_int (Batch.value b 1 r)))
        b);
  !top + 1

let insert_feeds ~seed db =
  let root = Util.Prng.create ~seed in
  let r_prng = Util.Prng.split root and s_prng = Util.Prng.split root in
  let r_domain = domain_of db.r and s_domain = domain_of db.s in
  let next_key = Array.make 2 1_000_000_000 in
  let next i =
    let fresh () =
      next_key.(i) <- next_key.(i) + 1;
      next_key.(i)
    in
    match i with
    | 0 ->
        Ivm.Change.Insert
          [|
            Value.Int (fresh ());
            Value.Int (Util.Prng.int r_prng (max r_domain s_domain));
            Value.Float (Util.Prng.float r_prng 100.0);
          |]
    | 1 ->
        Ivm.Change.Insert
          [|
            Value.Int (fresh ());
            Value.Int (Util.Prng.int s_prng (max r_domain s_domain));
            Value.Float (Util.Prng.float s_prng 100.0);
          |]
    | _ -> invalid_arg "Synth.insert_feeds: only tables 0 and 1 exist"
  in
  { Updates.next }

let zipf_feeds ~seed ?(exponent = 1.0) db =
  let root = Util.Prng.create ~seed in
  let r_prng = Util.Prng.split root and s_prng = Util.Prng.split root in
  let domain = max (domain_of db.r) (domain_of db.s) in
  let sample = Util.Prng.zipf_sampler ~exponent ~n:domain in
  let next_key = Array.make 2 2_000_000_000 in
  let next i =
    let fresh () =
      next_key.(i) <- next_key.(i) + 1;
      next_key.(i)
    in
    match i with
    | 0 ->
        Ivm.Change.Insert
          [|
            Value.Int (fresh ());
            Value.Int (sample r_prng);
            Value.Float (Util.Prng.float r_prng 100.0);
          |]
    | 1 ->
        Ivm.Change.Insert
          [|
            Value.Int (fresh ());
            Value.Int (sample s_prng);
            Value.Float (Util.Prng.float s_prng 100.0);
          |]
    | _ -> invalid_arg "Synth.zipf_feeds: only tables 0 and 1 exist"
  in
  { Updates.next }
