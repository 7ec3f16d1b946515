open Relation

type db = {
  region : Table.t;
  nation : Table.t;
  supplier : Table.t;
  part : Table.t;
  partsupp : Table.t;
  meter : Meter.t;
}

let region_names = [| "AFRICA"; "AMERICA"; "ASIA"; "EUROPE"; "MIDDLE EAST" |]

let nation_names =
  [|
    "ALGERIA"; "ARGENTINA"; "BRAZIL"; "CANADA"; "EGYPT"; "ETHIOPIA"; "FRANCE";
    "GERMANY"; "INDIA"; "INDONESIA"; "IRAN"; "IRAQ"; "JAPAN"; "JORDAN";
    "KENYA"; "MOROCCO"; "MOZAMBIQUE"; "PERU"; "CHINA"; "ROMANIA";
    "SAUDI ARABIA"; "VIETNAM"; "RUSSIA"; "UNITED KINGDOM"; "UNITED STATES";
  |]

(* TPC-R nation -> region mapping (nationkey mod 5 in spec order). *)
let nation_regions =
  [| 0; 1; 1; 1; 4; 0; 3; 3; 2; 2; 4; 4; 2; 4; 0; 0; 0; 1; 2; 3; 4; 2; 3; 3; 1 |]

let ceil_pos x = max 1 (int_of_float (Float.ceil x))

let region_schema =
  Schema.make
    [ ("regionkey", Datatype.TInt); ("name", Datatype.TString) ]

let nation_schema =
  Schema.make
    [
      ("nationkey", Datatype.TInt);
      ("name", Datatype.TString);
      ("regionkey", Datatype.TInt);
    ]

let supplier_schema =
  Schema.make
    [
      ("suppkey", Datatype.TInt);
      ("name", Datatype.TString);
      ("nationkey", Datatype.TInt);
      ("acctbal", Datatype.TFloat);
    ]

let part_schema =
  Schema.make
    [
      ("partkey", Datatype.TInt);
      ("name", Datatype.TString);
      ("retailprice", Datatype.TFloat);
    ]

let partsupp_schema =
  Schema.make
    [
      ("partkey", Datatype.TInt);
      ("suppkey", Datatype.TInt);
      ("availqty", Datatype.TInt);
      ("supplycost", Datatype.TFloat);
    ]

let generate ?(seed = 42) ~scale () =
  if scale <= 0.0 then invalid_arg "Tpcr.Gen.generate: scale must be positive";
  let prng = Util.Prng.create ~seed in
  let meter = Meter.create () in
  let region = Table.create ~meter ~name:"region" ~schema:region_schema () in
  let nation = Table.create ~meter ~name:"nation" ~schema:nation_schema () in
  let supplier = Table.create ~meter ~name:"supplier" ~schema:supplier_schema () in
  let part = Table.create ~meter ~name:"part" ~schema:part_schema () in
  let partsupp = Table.create ~meter ~name:"partsupp" ~schema:partsupp_schema () in
  Array.iteri
    (fun i name ->
      ignore (Table.insert region [| Value.Int i; Value.Str name |]))
    region_names;
  Array.iteri
    (fun i name ->
      ignore
        (Table.insert nation
           [| Value.Int i; Value.Str name; Value.Int nation_regions.(i) |]))
    nation_names;
  let n_suppliers = ceil_pos (10_000.0 *. scale) in
  for sk = 1 to n_suppliers do
    let nk = Util.Prng.int prng (Array.length nation_names) in
    let bal = Util.Prng.float prng 10_000.0 -. 1_000.0 in
    ignore
      (Table.insert supplier
         [|
           Value.Int sk;
           Value.Str (Printf.sprintf "Supplier#%09d" sk);
           Value.Int nk;
           Value.Float bal;
         |])
  done;
  let n_parts = ceil_pos (200_000.0 *. scale) in
  for pk = 1 to n_parts do
    let price = 900.0 +. Util.Prng.float prng 1_200.0 in
    ignore
      (Table.insert part
         [|
           Value.Int pk;
           Value.Str (Printf.sprintf "Part#%09d" pk);
           Value.Float price;
         |])
  done;
  (* TPC-R: each part is supplied by 4 suppliers. *)
  for pk = 1 to n_parts do
    for rep = 0 to 3 do
      let sk = 1 + ((pk + (rep * ((n_suppliers / 4) + 1))) mod n_suppliers) in
      let qty = 1 + Util.Prng.int prng 9_999 in
      let cost = 1.0 +. Util.Prng.float prng 999.0 in
      ignore
        (Table.insert partsupp
           [| Value.Int pk; Value.Int sk; Value.Int qty; Value.Float cost |])
    done
  done;
  (* Primary-key indexes plus the ps_suppkey secondary index the paper's
     asymmetric maintenance path relies on. *)
  Table.create_index region "regionkey";
  Table.create_index nation "nationkey";
  Table.create_index supplier "suppkey";
  Table.create_index part "partkey";
  Table.create_index partsupp "partkey";
  Table.create_index partsupp "suppkey";
  Meter.reset meter;
  { region; nation; supplier; part; partsupp; meter }

let min_supplycost_view ?(region = "MIDDLE EAST") db =
  Ivm.Viewdef.make ~name:"min_supplycost"
    ~tables:[| db.partsupp; db.supplier; db.nation; db.region |]
    ~aliases:[| "ps"; "s"; "n"; "r" |]
      (* Edge order is the delta-join expansion order: a Supplier delta
         resolves its nation and region (cheap index probes) before fanning
         out into PartSupp; a PartSupp delta starts at the PS-S edge. *)
    ~join:
      [
        { Ivm.Viewdef.left = 1; left_col = "nationkey"; right = 2; right_col = "nationkey" };
        { Ivm.Viewdef.left = 2; left_col = "regionkey"; right = 3; right_col = "regionkey" };
        { Ivm.Viewdef.left = 0; left_col = "suppkey"; right = 1; right_col = "suppkey" };
      ]
    ~filter:(Expr.Eq (Expr.col "r.name", Expr.str region))
    ~aggs:[ Agg.min_of "ps.supplycost" ~as_name:"min_supplycost" ]
      (* PartSupp's maintenance statement loads/hashes all three small
         dimension tables once per batch instead of probing per tuple:
         this is what makes c_dPartSupp flat in the batch size (Fig. 4)
         while c_dSupplier stays steeply linear (indexed probes into the
         large PartSupp per delta tuple). *)
    ~scan_tables:[ 0 ]
    ()
