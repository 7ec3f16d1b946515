(* Unit tests for the relational engine: values, schemas, tuples,
   expressions, indexes, tables, aggregates, and the algebra evaluator. *)

open Relation

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let contains haystack needle =
  let nl = String.length needle and hl = String.length haystack in
  let rec loop i = i + nl <= hl && (String.sub haystack i nl = needle || loop (i + 1)) in
  loop 0

let ti = Datatype.TInt
let tf = Datatype.TFloat
let ts = Datatype.TString

let vi x = Value.Int x
let vf x = Value.Float x
let vs x = Value.Str x

(* --- Value --------------------------------------------------------------- *)

let test_value_compare_numeric () =
  checki "int = float" 0 (Value.compare (vi 3) (vf 3.0));
  checkb "int < float" true (Value.compare (vi 3) (vf 3.5) < 0);
  checkb "float > int" true (Value.compare (vf 3.5) (vi 3) > 0)

let test_value_compare_ranks () =
  checkb "null smallest" true (Value.compare Value.Null (vi 0) < 0);
  checkb "bool < int" true (Value.compare (Value.Bool true) (vi 0) < 0);
  checkb "int < str" true (Value.compare (vi 999) (vs "") < 0)

let test_value_equal_hash_consistent () =
  checkb "equal" true (Value.equal (vi 5) (vf 5.0));
  checki "hashes match for equal values" (Value.hash (vi 5)) (Value.hash (vf 5.0))

(* Values built to collide under [Value.equal]: ints beyond 2^53 and their
   float images, both zeros, NaNs with different payloads and signs, and
   Int/Float pairs of one number. *)
let collision_prone_value =
  let open QCheck.Gen in
  let big = [ 1 lsl 53; (1 lsl 53) + 1; (1 lsl 60) + 7; max_int; min_int; -(1 lsl 53) - 1 ] in
  let nans =
    [ Float.nan; Float.neg Float.nan; Int64.float_of_bits 0x7ff0000000000001L;
      Int64.float_of_bits 0xfff8000000000123L ]
  in
  let number =
    oneof
      [
        map (fun i -> Value.Int i) (int_range (-3) 3);
        map (fun i -> Value.Float (float_of_int i)) (int_range (-3) 3);
        map (fun i -> Value.Int i) (oneofl big);
        map (fun i -> Value.Float (float_of_int i)) (oneofl big);
        map (fun f -> Value.Float f) (oneofl ([ 0.0; -0.0; 0.5; Float.infinity ] @ nans));
      ]
  in
  frequency
    [
      (8, number);
      (1, map (fun s -> Value.Str s) (oneofl [ ""; "a"; "b" ]));
      (1, map (fun b -> Value.Bool b) bool);
      (1, return Value.Null);
    ]

let prop_equal_implies_same_hash =
  QCheck.Test.make ~name:"Value.equal a b implies equal hashes" ~count:2000
    (QCheck.make ~print:(fun (a, b) -> Value.to_string a ^ ", " ^ Value.to_string b)
       QCheck.Gen.(pair collision_prone_value collision_prone_value))
    (fun (a, b) -> (not (Value.equal a b)) || Value.hash a = Value.hash b)

let test_value_hash_edge_cases () =
  let same label a b = checki label (Value.hash a) (Value.hash b) in
  same "0. and -0." (vf 0.0) (vf (-0.0));
  same "0 and -0." (vi 0) (vf (-0.0));
  same "nan payloads" (vf Float.nan) (vf (Int64.float_of_bits 0xfff8000000000123L));
  same "2^53 as int and float" (vi (1 lsl 53)) (vf (float_of_int (1 lsl 53)));
  same "2^53+1 equals its rounded float" (vi ((1 lsl 53) + 1))
    (vf (float_of_int ((1 lsl 53) + 1)));
  checkb "hash_int" true (Value.hash_int (-7) = Value.hash (vi (-7)));
  checkb "hash_float" true (Value.hash_float 2.5 = Value.hash (vf 2.5));
  checkb "small ints spread over low bits" true
    (List.length
       (List.sort_uniq compare (List.init 64 (fun i -> Value.hash (vi i) land 63)))
    > 32)

let test_value_hash_allocation_free () =
  let values = [| vi 5; vf 2.5; vi ((1 lsl 53) + 1); vf Float.nan; Value.Null |] in
  let acc = ref 0 in
  let before = Gc.minor_words () in
  for i = 0 to 9_999 do
    acc := !acc lxor Value.hash values.(i mod Array.length values)
  done;
  let words = Gc.minor_words () -. before in
  ignore (Sys.opaque_identity !acc);
  Alcotest.check (Alcotest.float 0.0) "minor words" 0.0 words

let test_value_to_string () =
  checks "int" "42" (Value.to_string (vi 42));
  checks "null" "NULL" (Value.to_string Value.Null);
  checks "str" "hi" (Value.to_string (vs "hi"))

let test_value_coercions () =
  checki "as_int" 3 (Value.as_int (vi 3));
  Alcotest.check (Alcotest.float 0.0) "as_float of int" 3.0 (Value.as_float (vi 3));
  Alcotest.check_raises "as_int of str" (Invalid_argument "Value.as_int")
    (fun () -> ignore (Value.as_int (vs "x")))

(* --- Schema -------------------------------------------------------------- *)

let test_schema_basic () =
  let s = Schema.make [ ("a", ti); ("b", tf) ] in
  checki "arity" 2 (Schema.arity s);
  checki "index_of a" 0 (Schema.index_of s "a");
  checki "index_of b" 1 (Schema.index_of s "b");
  checkb "mem" true (Schema.mem s "a");
  checkb "not mem" false (Schema.mem s "z")

let test_schema_duplicate_rejected () =
  Alcotest.check_raises "dup" (Invalid_argument "Schema.make: duplicate column \"a\"")
    (fun () -> ignore (Schema.make [ ("a", ti); ("a", tf) ]))

let test_schema_qualify_and_suffix_lookup () =
  let s = Schema.qualify "t" (Schema.make [ ("a", ti); ("b", tf) ]) in
  checki "qualified exact" 0 (Schema.index_of s "t.a");
  checki "suffix match" 1 (Schema.index_of s "b")

let test_schema_ambiguous () =
  let s =
    Schema.concat
      (Schema.qualify "x" (Schema.make [ ("k", ti) ]))
      (Schema.qualify "y" (Schema.make [ ("k", ti) ]))
  in
  checki "x.k" 0 (Schema.index_of s "x.k");
  checki "y.k" 1 (Schema.index_of s "y.k");
  Alcotest.check_raises "ambiguous suffix"
    (Invalid_argument "Schema: ambiguous column reference \"k\"") (fun () ->
      ignore (Schema.index_of s "k"))

let test_schema_concat_conflict () =
  let a = Schema.make [ ("k", ti) ] in
  Alcotest.check_raises "conflict"
    (Invalid_argument "Schema.concat: duplicate column \"k\"") (fun () ->
      ignore (Schema.concat a a))

let test_schema_project () =
  let s = Schema.make [ ("a", ti); ("b", tf); ("c", ts) ] in
  let p, positions = Schema.project s [ "c"; "a" ] in
  checki "projected arity" 2 (Schema.arity p);
  checks "first col" "c" (Schema.column_name p 0);
  Alcotest.check (Alcotest.array Alcotest.int) "positions" [| 2; 0 |] positions

(* --- Tuple --------------------------------------------------------------- *)

let test_tuple_ops () =
  let t = Tuple.make [ vi 1; vs "x" ] in
  checki "arity" 2 (Tuple.arity t);
  checkb "get" true (Value.equal (vi 1) (Tuple.get t 0));
  let t2 = Tuple.set t 0 (vi 9) in
  checkb "set is functional" true (Value.equal (vi 1) (Tuple.get t 0));
  checkb "new value" true (Value.equal (vi 9) (Tuple.get t2 0))

let test_tuple_compare () =
  let a = Tuple.make [ vi 1; vi 2 ] and b = Tuple.make [ vi 1; vi 3 ] in
  checkb "a < b" true (Tuple.compare a b < 0);
  checkb "prefix shorter" true (Tuple.compare (Tuple.make [ vi 1 ]) a < 0);
  checkb "equal numeric" true (Tuple.equal (Tuple.make [ vi 2 ]) (Tuple.make [ vf 2.0 ]))

let test_tuple_conforms () =
  let s = Schema.make [ ("a", ti); ("b", tf) ] in
  checkb "ok" true (Tuple.conforms s (Tuple.make [ vi 1; vf 2.0 ]));
  checkb "int widens to float" true (Tuple.conforms s (Tuple.make [ vi 1; vi 2 ]));
  checkb "null ok" true (Tuple.conforms s (Tuple.make [ Value.Null; vf 0.0 ]));
  checkb "wrong arity" false (Tuple.conforms s (Tuple.make [ vi 1 ]));
  checkb "wrong type" false (Tuple.conforms s (Tuple.make [ vs "x"; vf 0.0 ]))

(* --- Expr ---------------------------------------------------------------- *)

let abc = Schema.make [ ("a", ti); ("b", tf); ("c", ts) ]

let test_expr_arith () =
  let f = Expr.compile abc Expr.(Add (col "a", int 5)) in
  checkb "1+5" true (Value.equal (vi 6) (f (Tuple.make [ vi 1; vf 0.0; vs "" ])));
  let g = Expr.compile abc Expr.(Mul (col "b", float 2.0)) in
  checkb "2.5*2" true
    (Value.equal (vf 5.0) (g (Tuple.make [ vi 0; vf 2.5; vs "" ])))

let test_expr_mixed_arith () =
  let f = Expr.compile abc Expr.(Add (col "a", col "b")) in
  checkb "int+float is float" true
    (Value.equal (vf 3.5) (f (Tuple.make [ vi 1; vf 2.5; vs "" ])))

let test_expr_div_by_zero () =
  let f = Expr.compile abc Expr.(Div (col "a", int 0)) in
  Alcotest.check_raises "div0" (Invalid_argument "Expr: division by zero")
    (fun () -> ignore (f (Tuple.make [ vi 1; vf 0.0; vs "" ])))

let test_expr_comparisons () =
  let p = Expr.compile_pred abc Expr.(And (Ge (col "a", int 2), Eq (col "c", str "hit"))) in
  checkb "match" true (p (Tuple.make [ vi 2; vf 0.0; vs "hit" ]));
  checkb "fail left" false (p (Tuple.make [ vi 1; vf 0.0; vs "hit" ]));
  checkb "fail right" false (p (Tuple.make [ vi 2; vf 0.0; vs "miss" ]))

let test_expr_null_semantics () =
  let p = Expr.compile_pred abc Expr.(Eq (col "a", int 1)) in
  checkb "null comparison filters out" false
    (p (Tuple.make [ Value.Null; vf 0.0; vs "" ]));
  let q = Expr.compile_pred abc Expr.(Or (Eq (col "a", int 1), bool true)) in
  checkb "null OR true = true" true
    (q (Tuple.make [ Value.Null; vf 0.0; vs "" ]))

let test_expr_not () =
  let p = Expr.compile_pred abc Expr.(Not (Lt (col "a", int 5))) in
  checkb "not (3 < 5)" false (p (Tuple.make [ vi 3; vf 0.0; vs "" ]));
  checkb "not (7 < 5)" true (p (Tuple.make [ vi 7; vf 0.0; vs "" ]))

let test_expr_unknown_column () =
  Alcotest.check_raises "unknown" (Invalid_argument "Schema: unknown column \"zz\"")
    (fun () ->
      let (_ : Tuple.t -> Value.t) = Expr.compile abc (Expr.col "zz") in
      ())

let test_expr_columns () =
  let e = Expr.(And (Eq (col "a", int 1), Or (Gt (col "b", col "a"), Eq (col "c", str "x")))) in
  Alcotest.check (Alcotest.list Alcotest.string) "columns in order"
    [ "a"; "b"; "c" ] (Expr.columns e)

let test_expr_to_string () =
  checks "rendering" "(a = 1)" (Expr.to_string Expr.(Eq (col "a", int 1)))

(* --- Vmultiset ----------------------------------------------------------- *)

(* The grouped-aggregate oracle's multiset (test/groups_oracle.ml). *)
module Vmultiset = Groups_oracle.Vmultiset

let test_vmultiset_basics () =
  let m = Vmultiset.of_list [ vi 3; vi 1; vi 3 ] in
  checki "cardinal" 3 (Vmultiset.cardinal m);
  checki "distinct" 2 (Vmultiset.distinct m);
  checki "count 3" 2 (Vmultiset.count m (vi 3));
  checkb "min" true (Vmultiset.min_elt m = Some (vi 1));
  checkb "max" true (Vmultiset.max_elt m = Some (vi 3))

let test_vmultiset_remove_min_exposes_next () =
  let m = Vmultiset.of_list [ vi 5; vi 2; vi 8 ] in
  let m = Vmultiset.remove m (vi 2) in
  checkb "next min" true (Vmultiset.min_elt m = Some (vi 5))

let test_vmultiset_remove_too_many () =
  let m = Vmultiset.of_list [ vi 1 ] in
  Alcotest.check_raises "underflow"
    (Invalid_argument "Vmultiset.remove: removing more copies than present")
    (fun () -> ignore (Vmultiset.remove ~times:2 m (vi 1)))

let test_vmultiset_sum_empty () =
  Alcotest.check (Alcotest.float 1e-9) "sum" 9.0
    (Vmultiset.sum (Vmultiset.of_list [ vi 4; vi 5 ]));
  checkb "empty min" true (Vmultiset.min_elt Vmultiset.empty = None)

(* --- Index / Table ------------------------------------------------------- *)

let mk_table ?meter () =
  let schema = Schema.make [ ("k", ti); ("grp", ti); ("v", tf) ] in
  Table.create ?meter ~name:"t" ~schema ()

let row k grp v = Tuple.make [ vi k; vi grp; vf v ]

let test_table_insert_count () =
  let t = mk_table () in
  ignore (Table.insert t (row 1 0 1.0));
  ignore (Table.insert t (row 2 1 2.0));
  checki "count" 2 (Table.row_count t)

let test_table_insert_type_error () =
  let t = mk_table () in
  Alcotest.check_raises "bad tuple"
    (Invalid_argument
       "Table.insert(t): tuple (x) does not conform to (k:int, grp:int, v:float)")
    (fun () -> ignore (Table.insert t (Tuple.make [ vs "x" ])))

let test_table_delete_row () =
  let t = mk_table () in
  let id = Table.insert t (row 1 0 1.0) in
  checkb "delete" true (Table.delete_row t id);
  checkb "double delete" false (Table.delete_row t id);
  checki "count" 0 (Table.row_count t);
  checkb "get deleted" true (Table.get_row t id = None)

let test_table_index_lookup () =
  let t = mk_table () in
  for i = 1 to 10 do
    ignore (Table.insert t (row i (i mod 3) (float_of_int i)))
  done;
  Table.create_index t "grp";
  checki "grp 0 bucket" 3 (List.length (Table.lookup t "grp" (vi 0)));
  checki "grp 1 bucket" 4 (List.length (Table.lookup t "grp" (vi 1)));
  checki "missing value" 0 (List.length (Table.lookup t "grp" (vi 99)))

let test_table_index_after_delete () =
  let t = mk_table () in
  Table.create_index t "grp";
  let id = Table.insert t (row 1 7 1.0) in
  ignore (Table.insert t (row 2 7 2.0));
  ignore (Table.delete_row t id);
  checki "bucket shrinks" 1 (List.length (Table.lookup t "grp" (vi 7)))

(* The row-id accessors read back exactly what the boxed ones
   materialize, and [iter_ids] is metered like [lookup]. *)
let test_table_row_id_access () =
  let meter = Meter.create () in
  let t =
    Table.create ~meter ~name:"ids"
      ~schema:
        (Schema.make
           [ ("i", Datatype.TInt); ("f", Datatype.TFloat); ("s", Datatype.TString);
             ("b", Datatype.TBool) ])
      ()
  in
  let rows =
    [
      [| vi 1; vf (-0.0); vs "a"; Value.Bool true |];
      [| vi 1; vi ((1 lsl 53) + 1); vs "b"; Value.Null |];
      [| Value.Null; vf Float.nan; Value.Null; Value.Bool false |];
      [| vi 1; vf 0.0; vs "a"; Value.Bool true |];
      [| vi 2; vi 3; vs "a"; Value.Bool false |];
    ]
  in
  let ids = List.map (Table.insert t) rows in
  List.iter
    (fun id ->
      let tuple = Option.get (Table.get_row t id) in
      checki "hash_row = Tuple.hash" (Tuple.hash tuple) (Table.hash_row t id);
      let blitted = Array.make 6 Value.Null in
      Table.blit_row t id blitted 2;
      checkb "blit_row" true (Tuple.equal (Array.sub blitted 2 4) tuple);
      checkb "cell" true (Value.equal (Table.cell t id 1) tuple.(1)))
    ids;
  (match ids with
  | first :: second :: _ :: fourth :: _ ->
      checkb "equal values, different ids" true (Table.equal_rows t first fourth);
      checkb "different values" false (Table.equal_rows t first second)
  | _ -> assert false);
  Table.create_index t "i";
  let metered f =
    let before = Meter.snapshot meter in
    let r = f () in
    (r, Meter.diff (Meter.snapshot meter) before)
  in
  let tuples, by_lookup = metered (fun () -> Table.lookup t "i" (vi 1)) in
  let found, by_ids =
    metered (fun () ->
        let ids = ref [] in
        Table.iter_ids t "i" (vi 1) (fun id -> ids := id :: !ids);
        List.rev !ids)
  in
  checkb "same meter" true (by_lookup = by_ids);
  checki "three entries" 3 by_ids.Meter.index_entries;
  checkb "ids materialize to the lookup's rows" true
    (List.equal Tuple.equal tuples (List.map (fun id -> Option.get (Table.get_row t id)) found))

let test_table_lookup_without_index () =
  let t = mk_table () in
  Alcotest.check_raises "no index"
    (Invalid_argument "Table.lookup(t): no index on column \"v\"") (fun () ->
      ignore (Table.lookup t "v" (vf 0.0)))

let test_table_delete_tuple_with_index () =
  let t = mk_table () in
  Table.create_index t "k";
  ignore (Table.insert t (row 1 0 1.0));
  ignore (Table.insert t (row 2 0 2.0));
  checkb "deleted" true (Table.delete_tuple t (row 1 0 1.0));
  checki "one left" 1 (Table.row_count t);
  checkb "missing tuple" false (Table.delete_tuple t (row 9 9 9.0))

let test_table_delete_tuple_scan () =
  let t = mk_table () in
  ignore (Table.insert t (row 1 0 1.0));
  checkb "deleted by scan" true (Table.delete_tuple t (row 1 0 1.0));
  checki "empty" 0 (Table.row_count t)

let test_table_delete_tuple_duplicates () =
  let t = mk_table () in
  ignore (Table.insert t (row 1 0 1.0));
  ignore (Table.insert t (row 1 0 1.0));
  checkb "first copy" true (Table.delete_tuple t (row 1 0 1.0));
  checki "one copy left" 1 (Table.row_count t)

let test_table_delete_tuple_picks_selective_index () =
  (* Index on k is unique, index on grp is all-same: deletion must probe k
     (most distinct keys) so the probe returns one entry, not the table. *)
  let meter = Meter.create () in
  let t = mk_table ~meter () in
  Table.create_index t "k";
  Table.create_index t "grp";
  for i = 1 to 50 do
    ignore (Table.insert t (row i 0 0.0))
  done;
  let before = Meter.snapshot meter in
  checkb "deleted" true (Table.delete_tuple t (row 25 0 0.0));
  let d = Meter.diff (Meter.snapshot meter) before in
  checki "one probe" 1 d.Meter.index_probes;
  checki "one entry" 1 d.Meter.index_entries

let test_table_scan_skips_tombstones () =
  let t = mk_table () in
  let id = Table.insert t (row 1 0 1.0) in
  ignore (Table.insert t (row 2 0 2.0));
  ignore (Table.delete_row t id);
  checki "live rows" 1 (List.length (Table.to_list t));
  checki "unmetered same" 1 (List.length (Table.to_list_unmetered t))

let test_table_meter_counts () =
  let meter = Meter.create () in
  let t = mk_table ~meter () in
  ignore (Table.insert t (row 1 0 1.0));
  ignore (Table.insert t (row 2 0 2.0));
  ignore (Table.to_list t);
  let s = Meter.snapshot meter in
  checki "inserted" 2 s.Meter.inserted;
  checki "scanned" 2 s.Meter.seq_scanned;
  ignore (Table.to_list_unmetered t);
  let s2 = Meter.snapshot meter in
  checki "unmetered does not count" 2 s2.Meter.seq_scanned

let test_index_direct () =
  let idx = Index.create ~column:0 in
  Index.add idx (vi 1) 10;
  Index.add idx (vi 1) 11;
  Index.add idx (vi 1) 10;
  (* duplicate ignored *)
  checki "entries" 2 (Index.entry_count idx);
  checki "cardinality" 1 (Index.cardinality idx);
  Index.remove idx (vi 1) 10;
  checki "after remove" 1 (Index.entry_count idx);
  Index.remove idx (vi 1) 99;
  (* absent pair: no-op *)
  checki "no-op remove" 1 (Index.entry_count idx)

(* Random add/remove sequences against an [Int_set] reference per key:
   after every operation each key's bucket holds the reference's ids in
   ascending order ([iter], [size], [find_first]), and [cardinality] and
   [entry_count] agree.  A copy taken midway follows its own reference
   while the original moves on, and the original ignores the copy's
   changes. *)
module Int_set = Set.Make (Int)

let index_keys = [| vi 0; vi 1; vi 2; vs "a"; vs "b"; Value.Null; vf 2.5 |]

let check_index_model label idx (model : Int_set.t array) =
  let nonempty = Array.fold_left (fun n s -> if Int_set.is_empty s then n else n + 1) 0 model in
  checki (label ^ ": cardinality") nonempty (Index.cardinality idx);
  checki
    (label ^ ": entry_count")
    (Array.fold_left (fun n s -> n + Int_set.cardinal s) 0 model)
    (Index.entry_count idx);
  Array.iteri
    (fun k v ->
      let ids = ref [] in
      Index.iter idx v (fun id -> ids := id :: !ids);
      Alcotest.check
        Alcotest.(list int)
        (label ^ ": ascending ids")
        (Int_set.elements model.(k))
        (List.rev !ids);
      checki (label ^ ": size") (Int_set.cardinal model.(k)) (Index.size idx v);
      let third id = id mod 3 = 0 in
      checki (label ^ ": find_first")
        (Option.value ~default:(-1) (List.find_opt third (Int_set.elements model.(k))))
        (Index.find_first idx v third))
    index_keys

let index_step g idx (model : Int_set.t array) =
  let k = Util.Prng.int g (Array.length index_keys) in
  let row =
    (* half the removals hit a present id *)
    if Util.Prng.int g 2 = 0 && not (Int_set.is_empty model.(k)) then
      Int_set.choose model.(k)
    else Util.Prng.int g 64
  in
  if Util.Prng.int g 3 > 0 then begin
    Index.add idx index_keys.(k) row;
    model.(k) <- Int_set.add row model.(k)
  end
  else begin
    Index.remove idx index_keys.(k) row;
    model.(k) <- Int_set.remove row model.(k)
  end

let test_index_model () =
  for seed = 1 to 60 do
    let g = Util.Prng.create ~seed in
    let idx = Index.create ~column:0 in
    let model = Array.make (Array.length index_keys) Int_set.empty in
    let label = Printf.sprintf "seed %d" seed in
    for _ = 1 to 150 do
      index_step g idx model;
      check_index_model label idx model
    done;
    let copy = Index.copy idx and copy_model = Array.copy model in
    for _ = 1 to 50 do
      index_step g idx model
    done;
    check_index_model (label ^ " copy after original moved") copy copy_model;
    let frozen = Array.copy model in
    for _ = 1 to 50 do
      index_step g copy copy_model
    done;
    check_index_model (label ^ " copy after its own changes") copy copy_model;
    check_index_model (label ^ " original after copy moved") idx frozen
  done

(* Among equal live rows, [delete_tuple] deletes the one with the lowest
   row id, through an index (walking its bucket in place) or by a scan,
   whatever order the rows were inserted and deleted in. *)
let test_delete_tuple_lowest_equal () =
  List.iter
    (fun indexed ->
      for seed = 1 to 40 do
        let g = Util.Prng.create ~seed in
        let t = mk_table () in
        if indexed then Table.create_index t "grp";
        let live = Hashtbl.create 64 in
        let label = Printf.sprintf "%s seed %d" (if indexed then "index" else "scan") seed in
        for _ = 1 to 120 do
          match Util.Prng.int g 3 with
          | 0 | 1 ->
              let tuple = row (Util.Prng.int g 3) (Util.Prng.int g 2) 1.0 in
              Hashtbl.replace live (Table.insert t tuple) tuple
          | _ ->
              if Util.Prng.int g 2 = 0 then begin
                let victim = Util.Prng.int g 200 in
                if Table.delete_row t victim then Hashtbl.remove live victim
              end
              else begin
                let tuple = row (Util.Prng.int g 3) (Util.Prng.int g 2) 1.0 in
                let lowest =
                  Hashtbl.fold
                    (fun id u acc -> if Tuple.equal u tuple then min id acc else acc)
                    live max_int
                in
                checkb (label ^ ": found") (lowest < max_int) (Table.delete_tuple t tuple);
                if lowest < max_int then begin
                  checkb (label ^ ": lowest equal row deleted") true
                    (Table.get_row t lowest = None);
                  Hashtbl.remove live lowest
                end
              end
        done;
        checki (label ^ ": live rows") (Hashtbl.length live) (Table.row_count t)
      done)
    [ true; false ]

(* A copied column owns its buffers, bitmaps, string dictionary and exact
   side table: the copy and the original append different values at the
   same rows (a new string; null against non-null, an int past the
   float53 range against another, an int against a float) and each reads
   back its own. *)
let test_column_copy () =
  let strs = Column.create Datatype.TString in
  List.iter (fun s -> Column.append strs (vs s)) [ "a"; "b"; "a" ];
  let strs' = Column.copy strs in
  Column.append strs' (vs "c");
  checki "original length" 3 (Column.length strs);
  checki "copy length" 4 (Column.length strs');
  checkb "copy decodes" true (Column.get strs' 3 = vs "c");
  checkb "copy keeps the codes" true
    (Bigarray.Array1.get (Column.codes strs') 2 = Bigarray.Array1.get (Column.codes strs) 2);
  Alcotest.check_raises "new code unknown to the original"
    (Invalid_argument "Vec: index out of bounds") (fun () ->
      ignore (Column.dict_string strs (Bigarray.Array1.get (Column.codes strs') 3)));
  let big = (1 lsl 60) + 1 in
  let floats = Column.create Datatype.TFloat in
  Column.append floats (vf 1.5);
  Column.append floats Value.Null;
  let floats' = Column.copy floats in
  List.iter (Column.append floats') [ Value.Null; vi big; vi 7 ];
  List.iter (Column.append floats) [ vf 2.5; vi (big + 2); vf 4.5 ];
  checkb "null copied" true (Column.get floats' 1 = Value.Null);
  checkb "copy's rows are its own" true
    (List.init 3 (fun i -> Column.get floats' (i + 2)) = [ Value.Null; vi big; vi 7 ]);
  checkb "original's rows are its own" true
    (List.init 3 (fun i -> Column.get floats (i + 2))
    = [ vf 2.5; vi (big + 2); vf 4.5 ])

(* A column image of the live rows — captured, or encoded and decoded —
   loads into the very column that appending those values builds: same
   values, same string codes and dictionary order, same float bits. *)
let test_column_image () =
  let big = (1 lsl 60) + 1 in
  let cases =
    [
      (ti, [ vi 3; Value.Null; vi (-7); vi max_int; vi 0; vi 9 ]);
      (tf, [ vf 1.5; vi big; Value.Null; vi 4; vf (-0.); vi (big + 2) ]);
      (ts, [ vs "b"; vs "a"; Value.Null; vs "b"; vs "c"; vs "a" ]);
      (Datatype.TBool, [ Value.Bool true; Value.Null; Value.Bool false; Value.Bool true; Value.Bool false; Value.Null ]);
    ]
  in
  (* rows 0 and 3 are tombstones *)
  let live = Bytes.make 1 '\000' in
  List.iter (Column.set_bit live) [ 1; 2; 4; 5 ];
  List.iter
    (fun (ty, values) ->
      let label = Datatype.to_string ty in
      let col = Column.create ty in
      List.iter (Column.append col) values;
      let want = Column.create ty in
      List.iteri (fun i v -> if Column.bit live i then Column.append want v) values;
      let img = Column.capture col in
      let buf = Buffer.create 64 in
      let w = Util.Bin.writer ~size:8 (fun b n -> Buffer.add_subbytes buf b 0 n) in
      Column.encode img ~live w;
      Util.Bin.flush w;
      let rd = Util.Bin.reader (Buffer.contents buf) in
      let decoded = Column.decode ty ~rows:4 rd in
      checki (label ^ ": the image is read to its end") 0 (Util.Bin.remaining rd);
      List.iter
        (fun (how, got) ->
          let label = label ^ " " ^ how in
          checki (label ^ ": length") 4 (Column.length got);
          for i = 0 to 3 do
            checkb (Printf.sprintf "%s: row %d" label i) true
              (Column.get got i = Column.get want i)
          done;
          if ty = ts then
            for i = 0 to 3 do
              checki (label ^ ": code") (Column.codes want).{i} (Column.codes got).{i}
            done;
          if ty = tf then
            for i = 0 to 3 do
              checkb (label ^ ": float bits") true
                (Int64.bits_of_float (Column.float_data want).{i}
                = Int64.bits_of_float (Column.float_data got).{i})
            done)
        [
          ("from the capture", Column.of_image ty img ~live);
          ("through the bytes", Column.of_image ty decoded ~live:(Bytes.make 1 '\255'));
        ])
    cases;
  (* later appends, past a growth boundary, leave the capture as it was *)
  let col = Column.create ~capacity:8 ts in
  List.iter (Column.append col) [ vs "x"; vs "y" ];
  let img = Column.capture col in
  for i = 1 to 40 do
    Column.append col (vs (string_of_int i))
  done;
  let back = Column.of_image ts img ~live:(Bytes.make 1 '\255') in
  checki "capture keeps its length" 2 (Column.length back);
  checkb "capture keeps its values" true (Column.get back 1 = vs "y");
  Alcotest.check_raises "a short image is Corrupt"
    (Util.Bin.Corrupt "truncated image: expected an 8-byte word") (fun () ->
      ignore (Column.decode ti ~rows:2 (Util.Bin.reader "\003\001\000")))

(* A copied table is metered on its own meter and shares no rows or index
   buckets with the original. *)
let test_table_copy () =
  let t = mk_table () in
  for i = 1 to 10 do
    ignore (Table.insert t (row i (i mod 3) (float_of_int i)))
  done;
  Table.create_index t "grp";
  ignore (Table.delete_row t 0);
  let meter = Meter.create () in
  let c = Table.copy ~meter t in
  checkb "copy on the new meter" true (Table.meter c == meter);
  checkb "same rows" true (Table.to_list_unmetered c = Table.to_list_unmetered t);
  checkb "tombstone kept" true (Table.get_row c 0 = None);
  let before = Meter.snapshot (Table.meter t) in
  ignore (Table.insert c (row 11 1 11.0));
  checkb "copy deletes" true (Table.delete_tuple c (row 4 1 4.0));
  checki "copy's grp 1 bucket" 3 (List.length (Table.lookup c "grp" (vi 1)));
  checki "original's grp 1 bucket" 3 (List.length (Table.lookup t "grp" (vi 1)));
  checki "original's count" 9 (Table.row_count t);
  checkb "original has row 4" true (Table.get_row t 3 = Some (row 4 1 4.0));
  checki "original's meter: only its own probe" 1
    (Meter.diff (Meter.snapshot (Table.meter t)) before).Meter.index_probes;
  checki "copy's meter counts the copy's work" 1 (Meter.snapshot meter).Meter.inserted

(* The distinct-row certificate against brute force, through random
   inserts, deletes, copies and image round trips over a small domain
   that repeats rows: NULLs, [Int 2] and [Float 2.0] in one float
   column (and [Int 0] with [-0.], NaN, an int beyond 2^53 with its
   rounded float), repeated strings.  The certificate is asked for at random
   points only, so some sequences build it early and maintain it through
   many changes, others build it late or never.  At every ask: [true]
   implies no two live rows are equal, and no two live rows sharing a
   [hash_row] implies [true]. *)
type cert_op = Ins of Tuple.t | Del of Tuple.t | Copy | Image | Ask

let cert_schema = Schema.make [ ("a", ti); ("b", tf); ("c", ts) ]

let cert_op_gen =
  let open QCheck.Gen in
  let tuple =
    map3
      (fun a b c -> [| a; b; c |])
      (oneofl [ vi 0; vi 1; Value.Null ])
      (oneofl
         [ vi 2; vf 2.0; vf 0.5; Value.Null; vi 0; vf (-0.0); vf Float.nan;
           vi ((1 lsl 53) + 1); vf (float_of_int ((1 lsl 53) + 1)) ])
      (oneofl [ vs "x"; vs "x"; vs "yy"; Value.Null ])
  in
  frequency
    [
      (6, map (fun t -> Ins t) tuple);
      (3, map (fun t -> Del t) tuple);
      (1, return Copy);
      (1, return Image);
      (2, return Ask);
    ]

let cert_op_to_string = function
  | Ins t -> "ins " ^ Tuple.to_string t
  | Del t -> "del " ^ Tuple.to_string t
  | Copy -> "copy"
  | Image -> "image"
  | Ask -> "ask"

let live_ids t =
  let ids = ref [] in
  Table.scan t (fun id _ -> ids := id :: !ids);
  !ids

let rec all_pairs f = function
  | [] -> true
  | x :: rest -> List.for_all (f x) rest && all_pairs f rest

let certificate_holds t =
  let ids = live_ids t in
  let cert = Table.distinct_rows t in
  let distinct = all_pairs (fun a b -> not (Table.equal_rows t a b)) ids in
  let hashes_distinct =
    all_pairs (fun a b -> Table.hash_row t a <> Table.hash_row t b) ids
  in
  ((not cert) || distinct) && ((not hashes_distinct) || cert)

let prop_distinct_rows =
  QCheck.Test.make ~name:"distinct_rows against brute force" ~count:500
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map cert_op_to_string ops))
       QCheck.Gen.(list_size (int_range 0 80) cert_op_gen))
    (fun ops ->
      let t = ref (Table.create ~name:"c" ~schema:cert_schema ()) in
      List.for_all
        (fun op ->
          match op with
          | Ins tuple ->
              ignore (Table.insert !t tuple);
              true
          | Del tuple ->
              ignore (Table.delete_tuple !t tuple);
              true
          | Copy ->
              t := Table.copy ~meter:(Meter.create ()) !t;
              true
          | Image ->
              t :=
                Table.of_image ~name:"c" ~schema:cert_schema (Table.capture !t);
              true
          | Ask -> certificate_holds !t)
        (ops @ [ Ask ]))

(* --- Meter --------------------------------------------------------------- *)

let test_meter_diff () =
  let m = Meter.create () in
  Meter.bump_seq_scanned m 10;
  let a = Meter.snapshot m in
  Meter.bump_seq_scanned m 5;
  let b = Meter.snapshot m in
  let d = Meter.diff b a in
  checki "diff" 5 d.Meter.seq_scanned

let test_meter_cost_units () =
  let m = Meter.create () in
  Meter.bump_index_probes m 2;
  Meter.bump_batch_setup m 1;
  Alcotest.check (Alcotest.float 1e-9) "weighted" 58.0
    (Meter.cost_units (Meter.snapshot m))

let test_meter_reset () =
  let m = Meter.create () in
  Meter.bump_inserted m 3;
  Meter.reset m;
  checki "reset" 0 (Meter.snapshot m).Meter.inserted

(* --- Agg ----------------------------------------------------------------- *)

let grp_schema = Schema.make [ ("g", ti); ("x", ti); ("y", tf) ]

let grp_rows =
  [
    Tuple.make [ vi 0; vi 1; vf 10.0 ];
    Tuple.make [ vi 0; vi 3; vf 30.0 ];
    Tuple.make [ vi 1; vi 5; vf 50.0 ];
  ]

let test_agg_apply () =
  checkb "count" true (Value.equal (vi 3) (Agg.apply grp_schema Agg.Count grp_rows));
  checkb "sum int stays int" true
    (Value.equal (vi 9) (Agg.apply grp_schema (Agg.Sum "x") grp_rows));
  checkb "min" true (Value.equal (vi 1) (Agg.apply grp_schema (Agg.Min "x") grp_rows));
  checkb "max" true (Value.equal (vf 50.0) (Agg.apply grp_schema (Agg.Max "y") grp_rows));
  checkb "avg" true (Value.equal (vf 30.0) (Agg.apply grp_schema (Agg.Avg "y") grp_rows))

let test_agg_empty () =
  checkb "count empty" true (Value.equal (vi 0) (Agg.apply grp_schema Agg.Count []));
  checkb "min empty is null" true
    (Value.equal Value.Null (Agg.apply grp_schema (Agg.Min "x") []))

let test_agg_nulls_skipped () =
  let rows = [ Tuple.make [ vi 0; Value.Null; vf 1.0 ]; Tuple.make [ vi 0; vi 4; vf 2.0 ] ] in
  checkb "sum skips null" true
    (Value.equal (vi 4) (Agg.apply grp_schema (Agg.Sum "x") rows))

let test_agg_output_types () =
  checkb "count is int" true (Agg.output_type grp_schema Agg.Count = ti);
  checkb "avg is float" true (Agg.output_type grp_schema (Agg.Avg "x") = tf);
  checkb "min inherits" true (Agg.output_type grp_schema (Agg.Min "x") = ti)

(* --- Ra ------------------------------------------------------------------ *)

let mk_join_db () =
  let meter = Meter.create () in
  let r =
    Table.create ~meter ~name:"r"
      ~schema:(Schema.make [ ("rk", ti); ("jk", ti) ])
      ()
  in
  let s =
    Table.create ~meter ~name:"s"
      ~schema:(Schema.make [ ("sk", ti); ("jk", ti); ("w", tf) ])
      ()
  in
  for i = 0 to 5 do
    ignore (Table.insert r (Tuple.make [ vi i; vi (i mod 2) ]))
  done;
  for i = 0 to 8 do
    ignore (Table.insert s (Tuple.make [ vi i; vi (i mod 3); vf (float_of_int i) ]))
  done;
  (r, s)

let count_rows plan = List.length (Ra.eval plan)

let test_ra_scan_select_project () =
  let r, _ = mk_join_db () in
  let plan = Ra.select Expr.(Eq (col "jk", int 0)) (Ra.scan r) in
  checki "selected" 3 (count_rows plan);
  let proj = Ra.project [ "r.rk" ] plan in
  checki "projected arity" 1 (Schema.arity (Ra.schema_of proj));
  checki "same rows" 3 (count_rows proj)

let test_ra_join_expected_cardinality () =
  let r, s = mk_join_db () in
  (* r.jk: 3 zeros, 3 ones; s.jk: 3 each of 0,1,2 -> 9 + 9 output pairs. *)
  let plan = Ra.equijoin ~on:[ ("r.jk", "s.jk") ] (Ra.scan r) (Ra.scan s) in
  checki "join cardinality" 18 (count_rows plan)

let test_ra_aggregate_group_by () =
  let _, s = mk_join_db () in
  let plan =
    Ra.aggregate ~group_by:[ "s.jk" ]
      [ Agg.count "n"; Agg.sum "s.w" ~as_name:"total" ]
      (Ra.scan s)
  in
  let rows = List.sort Tuple.compare (Ra.eval plan) in
  checki "three groups" 3 (List.length rows);
  (* group jk = 0 holds s rows 0, 3, 6: total w = 9. *)
  match rows with
  | first :: _ ->
      checkb "group key" true (Value.equal (vi 0) (Tuple.get first 0));
      checkb "count" true (Value.equal (vi 3) (Tuple.get first 1));
      checkb "sum" true (Value.equal (vf 9.0) (Tuple.get first 2))
  | [] -> Alcotest.fail "no rows"

let test_ra_aggregate_global () =
  let _, s = mk_join_db () in
  let plan = Ra.aggregate ~group_by:[] [ Agg.count "n" ] (Ra.scan s) in
  match Ra.eval plan with
  | [ r ] -> checkb "count 9" true (Value.equal (vi 9) (Tuple.get r 0))
  | _ -> Alcotest.fail "expected single row"

let test_ra_aggregate_global_empty_input () =
  let t = mk_table () in
  let plan =
    Ra.aggregate ~group_by:[] [ Agg.count "n"; Agg.min_of "v" ~as_name:"m" ]
      (Ra.scan t)
  in
  match Ra.eval plan with
  | [ r ] ->
      checkb "count 0" true (Value.equal (vi 0) (Tuple.get r 0));
      checkb "min null" true (Value.equal Value.Null (Tuple.get r 1))
  | _ -> Alcotest.fail "expected single row"

let test_ra_schema_of_join () =
  let r, s = mk_join_db () in
  let plan = Ra.equijoin ~on:[ ("r.jk", "s.jk") ] (Ra.scan r) (Ra.scan s) in
  let schema = Ra.schema_of plan in
  checki "arity" 5 (Schema.arity schema);
  checks "qualified" "r.rk" (Schema.column_name schema 0)

let test_ra_explain () =
  let r, s = mk_join_db () in
  let plan =
    Ra.aggregate ~group_by:[] [ Agg.count "n" ]
      (Ra.equijoin ~on:[ ("r.jk", "s.jk") ] (Ra.scan r) (Ra.scan s))
  in
  let text = Ra.explain plan in
  checkb "mentions join" true (contains text "Join");
  checkb "mentions aggregate" true (contains text "COUNT(*) AS n")

(* --- batch ownership ------------------------------------------------------ *)

let test_batch_project_owns_selection () =
  (* Regression: [project] used to alias the source's selection vector,
     so narrowing the projection compacted the source batch's [sel] in
     place under any other consumer of the same chunk. *)
  let s = Schema.make [ ("a", ti); ("b", tf) ] in
  let tuples = List.init 8 (fun i -> [| vi i; vf (float_of_int i) |]) in
  match Batch.of_tuples s tuples with
  | [ b ] ->
      let proj = Batch.project b [| 0 |] (Schema.make [ ("a", ti) ]) in
      Batch.filter_in_place proj (fun r -> r mod 2 = 0);
      checki "projection narrowed" 4 (Batch.length proj);
      checki "source still full" 8 (Batch.length b);
      checkb "source rows intact, in order" true (Batch.to_tuples b = tuples)
  | _ -> Alcotest.fail "expected a single batch"

let test_batch_filter_after_project_independent () =
  let s = Schema.make [ ("a", ti) ] in
  let tuples = List.init 6 (fun i -> [| vi i |]) in
  match Batch.of_tuples s tuples with
  | [ b ] ->
      let p1 = Batch.project b [| 0 |] s in
      let p2 = Batch.project b [| 0 |] s in
      Batch.filter_in_place p1 (fun r -> r < 2);
      Batch.filter_in_place p2 (fun r -> r >= 4);
      checki "p1" 2 (Batch.length p1);
      checki "p2" 2 (Batch.length p2);
      checki "source" 6 (Batch.length b)
  | _ -> Alcotest.fail "expected a single batch"

(* --- ihash sizing --------------------------------------------------------- *)

let test_ihash_huge_hint_safe () =
  (* Regression: [create hint] sized via a doubling loop toward
     [4 * hint]; for huge hints the product (or the doubling) overflowed
     and the loop never reached its target — and even short of overflow
     the hint demanded absurd up-front allocations.  The hint is now
     clamped; the table still grows on demand. *)
  List.iter
    (fun hint ->
      let h = Ihash.create hint in
      Ihash.add h 42 1;
      Ihash.add h 42 2;
      Ihash.add h 7 3;
      checki "length" 3 (Ihash.length h);
      let acc = ref [] in
      Ihash.iter_matches h 42 (fun p -> acc := p :: !acc);
      checkb "insertion order kept" true (List.rev !acc = [ 1; 2 ]);
      checkb "other key present" true (Ihash.mem h 7);
      checkb "absent key absent" false (Ihash.mem h 9))
    [ max_int; max_int / 2; 1 lsl 40; 1 lsl 21 ]

let test_ihash_grows_past_clamped_hint () =
  let h = Ihash.create max_int in
  for i = 0 to 9_999 do
    Ihash.add h (i mod 97) i
  done;
  checki "all payloads kept" 10_000 (Ihash.length h);
  let n = ref 0 in
  Ihash.iter_matches h 0 (fun _ -> incr n);
  checki "chain complete" (10_000 / 97 + 1) !n

(* A scan's windows share one selection vector, the cursor's own or a
   caller's.  When each window allocated its own, one unmetered scan of
   500 rows took 528 major words (a vector over 256 words goes straight
   to the major heap), and a 3,000-row scan three such vectors. *)
let test_scan_shares_selection_vector () =
  let fill n =
    let t = mk_table () in
    for k = 1 to n do
      ignore (Table.insert t (row k (k mod 7) 1.0))
    done;
    t
  in
  let small = fill 500 and big = fill 3000 in
  checkb "tombstone" true (Table.delete_row big 1500);
  (* Words allocated on the major heap directly, not promoted there by a
     minor collection that happens to fall inside [f]. *)
  let major_words f =
    let direct () =
      let s = Gc.quick_stat () in
      s.Gc.major_words -. s.Gc.promoted_words
    in
    let w0 = direct () in
    f ();
    direct () -. w0
  in
  let scan ?sel t =
    let ids = Array.make 4096 (-1) and k = ref 0 in
    let w =
      major_words (fun () ->
          Table.scan_batches ~metered:false ?sel t (fun b ->
              Batch.iter_sel
                (fun r ->
                  ids.(!k) <- b.Batch.base + r;
                  incr k)
                b))
    in
    (Array.to_list (Array.sub ids 0 !k), w)
  in
  let ids, w = scan ~sel:(Array.make Batch.capacity 0) small in
  checkb "every row, in order" true (ids = List.init 500 Fun.id);
  if w > 0. then Alcotest.failf "500-row scan: %.0f major words" w;
  let ids, w = scan big in
  checkb "every live row, in order" true
    (ids = List.filter (fun i -> i <> 1500) (List.init 3000 Fun.id));
  if w > float_of_int (Batch.capacity + 1) then
    Alcotest.failf "3,000-row scan: %.0f major words" w;
  match (Table.batch_cursor ~sel:[| 0 |] small : Ra.cursor) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a short selection vector was taken"

let () =
  Alcotest.run "relation"
    [
      ( "value",
        [
          Alcotest.test_case "numeric compare" `Quick test_value_compare_numeric;
          Alcotest.test_case "rank order" `Quick test_value_compare_ranks;
          Alcotest.test_case "equal/hash consistent" `Quick
            test_value_equal_hash_consistent;
          QCheck_alcotest.to_alcotest prop_equal_implies_same_hash;
          Alcotest.test_case "hash edge cases" `Quick test_value_hash_edge_cases;
          Alcotest.test_case "hash allocates nothing" `Quick
            test_value_hash_allocation_free;
          Alcotest.test_case "to_string" `Quick test_value_to_string;
          Alcotest.test_case "coercions" `Quick test_value_coercions;
        ] );
      ( "schema",
        [
          Alcotest.test_case "basic" `Quick test_schema_basic;
          Alcotest.test_case "duplicate rejected" `Quick test_schema_duplicate_rejected;
          Alcotest.test_case "qualify + suffix" `Quick
            test_schema_qualify_and_suffix_lookup;
          Alcotest.test_case "ambiguous" `Quick test_schema_ambiguous;
          Alcotest.test_case "concat conflict" `Quick test_schema_concat_conflict;
          Alcotest.test_case "project" `Quick test_schema_project;
        ] );
      ( "tuple",
        [
          Alcotest.test_case "ops" `Quick test_tuple_ops;
          Alcotest.test_case "compare" `Quick test_tuple_compare;
          Alcotest.test_case "conforms" `Quick test_tuple_conforms;
        ] );
      ( "expr",
        [
          Alcotest.test_case "arith" `Quick test_expr_arith;
          Alcotest.test_case "mixed arith" `Quick test_expr_mixed_arith;
          Alcotest.test_case "div by zero" `Quick test_expr_div_by_zero;
          Alcotest.test_case "comparisons" `Quick test_expr_comparisons;
          Alcotest.test_case "null semantics" `Quick test_expr_null_semantics;
          Alcotest.test_case "not" `Quick test_expr_not;
          Alcotest.test_case "unknown column" `Quick test_expr_unknown_column;
          Alcotest.test_case "columns" `Quick test_expr_columns;
          Alcotest.test_case "to_string" `Quick test_expr_to_string;
        ] );
      ( "vmultiset",
        [
          Alcotest.test_case "basics" `Quick test_vmultiset_basics;
          Alcotest.test_case "remove min exposes next" `Quick
            test_vmultiset_remove_min_exposes_next;
          Alcotest.test_case "remove too many" `Quick test_vmultiset_remove_too_many;
          Alcotest.test_case "sum/empty" `Quick test_vmultiset_sum_empty;
        ] );
      ( "table",
        [
          Alcotest.test_case "insert count" `Quick test_table_insert_count;
          Alcotest.test_case "insert type error" `Quick test_table_insert_type_error;
          Alcotest.test_case "delete row" `Quick test_table_delete_row;
          Alcotest.test_case "index lookup" `Quick test_table_index_lookup;
          Alcotest.test_case "row-id access" `Quick test_table_row_id_access;
          Alcotest.test_case "index after delete" `Quick test_table_index_after_delete;
          Alcotest.test_case "lookup without index" `Quick
            test_table_lookup_without_index;
          Alcotest.test_case "delete_tuple with index" `Quick
            test_table_delete_tuple_with_index;
          Alcotest.test_case "delete_tuple scan" `Quick test_table_delete_tuple_scan;
          Alcotest.test_case "delete_tuple duplicates" `Quick
            test_table_delete_tuple_duplicates;
          Alcotest.test_case "delete_tuple selective index" `Quick
            test_table_delete_tuple_picks_selective_index;
          Alcotest.test_case "scan skips tombstones" `Quick
            test_table_scan_skips_tombstones;
          Alcotest.test_case "meter counts" `Quick test_table_meter_counts;
          Alcotest.test_case "index direct" `Quick test_index_direct;
          Alcotest.test_case "column copy" `Quick test_column_copy;
          Alcotest.test_case "column image" `Quick test_column_image;
          Alcotest.test_case "table copy" `Quick test_table_copy;
          QCheck_alcotest.to_alcotest prop_distinct_rows;
          Alcotest.test_case "index model against Int_set" `Quick test_index_model;
          Alcotest.test_case "delete_tuple deletes the lowest equal row" `Quick
            test_delete_tuple_lowest_equal;
          Alcotest.test_case "scan shares one selection vector" `Quick
            test_scan_shares_selection_vector;
        ] );
      ( "meter",
        [
          Alcotest.test_case "diff" `Quick test_meter_diff;
          Alcotest.test_case "cost units" `Quick test_meter_cost_units;
          Alcotest.test_case "reset" `Quick test_meter_reset;
        ] );
      ( "agg",
        [
          Alcotest.test_case "apply" `Quick test_agg_apply;
          Alcotest.test_case "empty" `Quick test_agg_empty;
          Alcotest.test_case "nulls skipped" `Quick test_agg_nulls_skipped;
          Alcotest.test_case "output types" `Quick test_agg_output_types;
        ] );
      ( "batch",
        [
          Alcotest.test_case "project owns selection" `Quick
            test_batch_project_owns_selection;
          Alcotest.test_case "independent projections" `Quick
            test_batch_filter_after_project_independent;
        ] );
      ( "ihash",
        [
          Alcotest.test_case "huge hint safe" `Quick test_ihash_huge_hint_safe;
          Alcotest.test_case "grows past clamped hint" `Quick
            test_ihash_grows_past_clamped_hint;
        ] );
      ( "ra",
        [
          Alcotest.test_case "scan/select/project" `Quick test_ra_scan_select_project;
          Alcotest.test_case "join cardinality" `Quick test_ra_join_expected_cardinality;
          Alcotest.test_case "aggregate group-by" `Quick test_ra_aggregate_group_by;
          Alcotest.test_case "aggregate global" `Quick test_ra_aggregate_global;
          Alcotest.test_case "aggregate empty input" `Quick
            test_ra_aggregate_global_empty_input;
          Alcotest.test_case "schema of join" `Quick test_ra_schema_of_join;
          Alcotest.test_case "explain" `Quick test_ra_explain;
        ] );
    ]
