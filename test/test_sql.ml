(* Tests for the SQL front-end: lexer, parser, and translation to
   maintainable view definitions, including an end-to-end check that a
   SQL-defined view maintains identically to a hand-built one. *)

open Relation

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int
let checks = Alcotest.check Alcotest.string

let ti = Datatype.TInt
let vi x = Value.Int x

(* --- lexer ---------------------------------------------------------------- *)

let tokens text =
  match Sqlview.Lexer.tokenize text with
  | Ok ts -> ts
  | Error msg -> Alcotest.fail msg

let test_lexer_basics () =
  checki "token count" 4 (List.length (tokens "select * from t"));
  checkb "keywords case-insensitive" true
    (tokens "SELECT" = tokens "select" && tokens "Select" = [ Sqlview.Lexer.Kw_select ]);
  checkb "idents lowercased" true
    (tokens "FooBar" = [ Sqlview.Lexer.Ident "foobar" ])

let test_lexer_literals () =
  checkb "int" true (tokens "42" = [ Sqlview.Lexer.Int_lit 42 ]);
  checkb "float" true (tokens "3.5" = [ Sqlview.Lexer.Float_lit 3.5 ]);
  checkb "string" true
    (tokens "'MIDDLE EAST'" = [ Sqlview.Lexer.String_lit "MIDDLE EAST" ]);
  checkb "bools" true
    (tokens "true false" = [ Sqlview.Lexer.Kw_true; Sqlview.Lexer.Kw_false ])

let test_lexer_operators () =
  checkb "two-char ops" true
    (tokens "<> <= >= !="
    = [ Sqlview.Lexer.Neq; Sqlview.Lexer.Le; Sqlview.Lexer.Ge; Sqlview.Lexer.Neq ]);
  checkb "punctuation" true
    (tokens "( ) , . *"
    = [ Sqlview.Lexer.Lparen; Sqlview.Lexer.Rparen; Sqlview.Lexer.Comma;
        Sqlview.Lexer.Dot; Sqlview.Lexer.Star ])

let test_lexer_errors () =
  (match Sqlview.Lexer.tokenize "a ; b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "semicolon should be rejected");
  (match Sqlview.Lexer.tokenize "'unterminated" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated string should be rejected");
  (* An integer literal beyond the int range is an error naming its
     offset, not an exception out of the parser. *)
  let text = "SELECT a FROM t WHERE a = 99999999999999999999" in
  match Sqlview.Parser.parse text with
  | Error msg ->
      Alcotest.check Alcotest.string "out-of-range integer"
        "integer literal out of range at offset 26" msg
  | Ok _ -> Alcotest.fail "out-of-range integer should be rejected"

(* --- parser --------------------------------------------------------------- *)

let parse text =
  match Sqlview.Parser.parse text with
  | Ok q -> q
  | Error msg -> Alcotest.fail msg

let test_parse_star () =
  let q = parse "SELECT * FROM t" in
  checkb "star" true (q.Sqlview.Ast.select = [ Sqlview.Ast.Sel_star ]);
  checki "one table" 1 (List.length q.Sqlview.Ast.from);
  checkb "no where" true (q.Sqlview.Ast.where = None)

let test_parse_aliases () =
  let q = parse "SELECT ps.supplycost FROM partsupp AS ps, supplier s" in
  (match q.Sqlview.Ast.from with
  | [ a; b ] ->
      checkb "as-alias" true (a.Sqlview.Ast.alias = Some "ps");
      checkb "bare alias" true (b.Sqlview.Ast.alias = Some "s")
  | _ -> Alcotest.fail "two tables expected");
  match q.Sqlview.Ast.select with
  | [ Sqlview.Ast.Sel_col (c, None) ] ->
      checks "qualified col" "ps.supplycost" (Sqlview.Ast.colref_to_string c)
  | _ -> Alcotest.fail "one column expected"

let test_parse_aggregates () =
  let q =
    parse "SELECT nation, COUNT(*) AS n, MIN(cost) FROM t GROUP BY nation"
  in
  (match q.Sqlview.Ast.select with
  | [ Sqlview.Ast.Sel_col _; Sqlview.Ast.Sel_agg (Sqlview.Ast.Agg_count_star, None, Some "n");
      Sqlview.Ast.Sel_agg (Sqlview.Ast.Agg_min, Some arg, None) ] ->
      checks "min arg" "cost" (Sqlview.Ast.colref_to_string arg)
  | _ -> Alcotest.fail "unexpected select list");
  checki "group by" 1 (List.length q.Sqlview.Ast.group_by)

let test_parse_where_precedence () =
  (* a = 1 OR b = 2 AND c = 3  parses as  a = 1 OR (b = 2 AND c = 3) *)
  let q = parse "SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3" in
  match q.Sqlview.Ast.where with
  | Some (Sqlview.Ast.Binop (Sqlview.Ast.Op_or, _, Sqlview.Ast.Binop (Sqlview.Ast.Op_and, _, _))) -> ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_arith_precedence () =
  (* a + b * 2 parses as a + (b * 2) *)
  let q = parse "SELECT * FROM t WHERE a + b * 2 > 10" in
  match q.Sqlview.Ast.where with
  | Some
      (Sqlview.Ast.Binop
         ( Sqlview.Ast.Op_gt,
           Sqlview.Ast.Binop
             (Sqlview.Ast.Op_add, _, Sqlview.Ast.Binop (Sqlview.Ast.Op_mul, _, _)),
           _ )) ->
      ()
  | _ -> Alcotest.fail "precedence wrong"

let test_parse_parens_and_not () =
  let q = parse "SELECT * FROM t WHERE NOT (a = 1 AND b = 2)" in
  match q.Sqlview.Ast.where with
  | Some (Sqlview.Ast.Unop_not (Sqlview.Ast.Binop (Sqlview.Ast.Op_and, _, _))) -> ()
  | _ -> Alcotest.fail "not/parens wrong"

let test_parse_errors () =
  List.iter
    (fun text ->
      match Sqlview.Parser.parse text with
      | Ok _ -> Alcotest.fail (text ^ " should not parse")
      | Error _ -> ())
    [
      "FROM t";
      "SELECT FROM t";
      "SELECT * FROM";
      "SELECT * FROM t WHERE";
      "SELECT * FROM t GROUP nation";
      "SELECT * FROM t WHERE a = 1 2";
      "SELECT COUNT(x) FROM t";
    ]

(* --- translation ------------------------------------------------------------ *)

let small_catalog () =
  let meter = Meter.create () in
  let r =
    Table.create ~meter ~name:"r"
      ~schema:(Schema.make [ ("rk", Datatype.TInt); ("jk", Datatype.TInt) ])
      ()
  in
  let s =
    Table.create ~meter ~name:"s"
      ~schema:
        (Schema.make
           [ ("sk", Datatype.TInt); ("jk", Datatype.TInt); ("w", Datatype.TFloat) ])
      ()
  in
  Table.create_index r "jk";
  for i = 0 to 9 do
    ignore (Table.insert r (Tuple.make [ Value.Int i; Value.Int (i mod 3) ]))
  done;
  for i = 0 to 14 do
    ignore
      (Table.insert s
         (Tuple.make [ Value.Int i; Value.Int (i mod 5); Value.Float (float_of_int i) ]))
  done;
  let catalog name =
    match name with "r" -> Some r | "s" -> Some s | _ -> None
  in
  (meter, r, s, catalog)

let view_of sql =
  let _, _, _, catalog = small_catalog () in
  match Sqlview.Translate.view_of_sql ~name:"v" ~catalog sql with
  | Ok v -> v
  | Error msg -> Alcotest.fail msg

let test_translate_join_and_filter () =
  let v = view_of "SELECT * FROM r, s WHERE r.jk = s.jk AND s.w > 3.5" in
  checki "one join edge" 1 (List.length (Ivm.Viewdef.join_edges v));
  checkb "has filter" true (Ivm.Viewdef.filter v <> None);
  checki "two tables" 2 (Ivm.Viewdef.n_tables v)

let test_translate_unqualified_columns () =
  (* rk only lives in r; w only in s: unqualified references resolve. *)
  let v = view_of "SELECT rk, w FROM r, s WHERE r.jk = s.jk" in
  match Ivm.Viewdef.projection v with
  | Some [ "r.rk"; "s.w" ] -> ()
  | Some other -> Alcotest.fail (String.concat "," other)
  | None -> Alcotest.fail "projection expected"

let test_translate_aggregate_view () =
  let v =
    view_of
      "SELECT r.jk, COUNT(*) AS n, SUM(s.w) AS total FROM r, s WHERE r.jk = \
       s.jk GROUP BY r.jk"
  in
  checki "two aggs" 2 (List.length (Ivm.Viewdef.aggs v));
  checkb "grouped" true (Ivm.Viewdef.group_by v = [ "r.jk" ])

let test_translate_errors () =
  let _, _, _, catalog = small_catalog () in
  let expect_error sql =
    match Sqlview.Translate.view_of_sql ~name:"v" ~catalog sql with
    | Ok _ -> Alcotest.fail (sql ^ " should fail")
    | Error _ -> ()
  in
  expect_error "SELECT * FROM nope";
  expect_error "SELECT * FROM r, s";
  (* no join: disconnected *)
  expect_error "SELECT jk FROM r, s WHERE r.jk = s.jk";
  (* ambiguous jk *)
  expect_error "SELECT zz FROM r";
  expect_error "SELECT rk, COUNT(*) FROM r, s WHERE r.jk = s.jk";
  (* rk not grouped *)
  expect_error "SELECT rk FROM r GROUP BY rk";
  (* group by without aggregates *)
  expect_error "SELECT x.rk FROM r WHERE x.rk = 1"
(* unknown alias *)

let test_translate_parallel_equalities () =
  (* Two equality conditions between the same table pair: one becomes the
     join edge, the other a filter — and both must constrain the result. *)
  let meter = Meter.create () in
  let a =
    Table.create ~meter ~name:"a"
      ~schema:(Schema.make [ ("k1", ti); ("k2", ti) ]) ()
  in
  let b =
    Table.create ~meter ~name:"b"
      ~schema:(Schema.make [ ("k1", ti); ("k2", ti) ]) ()
  in
  ignore (Table.insert a (Tuple.make [ vi 1; vi 1 ]));
  ignore (Table.insert a (Tuple.make [ vi 1; vi 2 ]));
  ignore (Table.insert b (Tuple.make [ vi 1; vi 1 ]));
  let catalog name = match name with "a" -> Some a | "b" -> Some b | _ -> None in
  match
    Sqlview.Translate.view_of_sql ~name:"v" ~catalog
      "SELECT COUNT(*) AS n FROM a, b WHERE a.k1 = b.k1 AND a.k2 = b.k2"
  with
  | Error msg -> Alcotest.fail msg
  | Ok v ->
      checki "one edge, second equality is a filter" 1
        (List.length (Ivm.Viewdef.join_edges v));
      checkb "filter present" true (Ivm.Viewdef.filter v <> None);
      let m = Ivm.Maintainer.create ~meter v in
      checkb "consistent" true (Ivm.Maintainer.check_consistent m = Ok ());
      (match Ivm.Maintainer.rows m with
      | [ row ] ->
          (* Only (1,1)x(1,1) matches both equalities, not (1,2). *)
          checkb "both equalities enforced" true
            (Value.equal (vi 1) (Tuple.get row 0))
      | _ -> Alcotest.fail "single row expected");
      (* An insert matching k1 but not k2 must not join. *)
      Ivm.Maintainer.on_arrive m 0 (Ivm.Change.Insert (Tuple.make [ vi 1; vi 9 ]));
      ignore (Ivm.Maintainer.refresh m);
      checkb "still consistent" true (Ivm.Maintainer.check_consistent m = Ok ());
      match Ivm.Maintainer.rows m with
      | [ row ] -> checkb "count unchanged" true (Value.equal (vi 1) (Tuple.get row 0))
      | _ -> Alcotest.fail "single row expected"

let test_translate_same_table_equality_is_filter () =
  let v = view_of "SELECT * FROM r, s WHERE r.jk = s.jk AND s.sk = s.jk" in
  checki "one join edge only" 1 (List.length (Ivm.Viewdef.join_edges v));
  checkb "same-table equality became filter" true (Ivm.Viewdef.filter v <> None)

let test_sql_view_maintains () =
  (* A SQL-defined aggregate view goes through the full incremental
     maintenance pipeline and stays consistent with recompute. *)
  let meter, _, _, catalog = small_catalog () in
  let sql_view =
    match
      Sqlview.Translate.view_of_sql ~name:"v" ~catalog
        "SELECT COUNT(*) AS n, MIN(s.w) AS mn FROM r, s WHERE r.jk = s.jk"
    with
    | Ok v -> v
    | Error msg -> Alcotest.fail msg
  in
  let m = Ivm.Maintainer.create ~meter sql_view in
  Ivm.Maintainer.on_arrive m 0
    (Ivm.Change.Insert (Tuple.make [ Value.Int 100; Value.Int 0 ]));
  Ivm.Maintainer.on_arrive m 1
    (Ivm.Change.Delete (Tuple.make [ Value.Int 0; Value.Int 0; Value.Float 0.0 ]));
  ignore (Ivm.Maintainer.process m 1 1);
  checkb "consistent after partial processing" true
    (Ivm.Maintainer.check_consistent m = Ok ());
  ignore (Ivm.Maintainer.refresh m);
  checkb "consistent after refresh" true
    (Ivm.Maintainer.check_consistent m = Ok ());
  match Ivm.Maintainer.rows m with
  | [ row ] -> checki "arity n,mn" 2 (Tuple.arity row)
  | _ -> Alcotest.fail "single row expected"

let test_translate_four_way_tpcr () =
  (* The paper's view, written as SQL against a real TPC-R catalog. *)
  let db = Tpcr.Gen.generate ~scale:0.002 () in
  let catalog name =
    match name with
    | "partsupp" -> Some db.Tpcr.Gen.partsupp
    | "supplier" -> Some db.Tpcr.Gen.supplier
    | "nation" -> Some db.Tpcr.Gen.nation
    | "region" -> Some db.Tpcr.Gen.region
    | _ -> None
  in
  let sql =
    "SELECT MIN(ps.supplycost) FROM partsupp AS ps, supplier AS s, nation AS \
     n, region AS r WHERE s.suppkey = ps.suppkey AND s.nationkey = \
     n.nationkey AND n.regionkey = r.regionkey AND r.name = 'MIDDLE EAST'"
  in
  match Sqlview.Translate.view_of_sql ~name:"min_supplycost" ~catalog sql with
  | Error msg -> Alcotest.fail msg
  | Ok v ->
      let m = Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter v in
      checkb "consistent" true (Ivm.Maintainer.check_consistent m = Ok ());
      (* Same single-row result as the hand-built view. *)
      let hand =
        Ivm.Maintainer.create ~meter:db.Tpcr.Gen.meter
          (Tpcr.Gen.min_supplycost_view db)
      in
      checkb "same min" true
        (List.equal Tuple.equal (Ivm.Maintainer.rows m) (Ivm.Maintainer.rows hand))

let () =
  Alcotest.run "sql"
    [
      ( "lexer",
        [
          Alcotest.test_case "basics" `Quick test_lexer_basics;
          Alcotest.test_case "literals" `Quick test_lexer_literals;
          Alcotest.test_case "operators" `Quick test_lexer_operators;
          Alcotest.test_case "errors" `Quick test_lexer_errors;
        ] );
      ( "parser",
        [
          Alcotest.test_case "star" `Quick test_parse_star;
          Alcotest.test_case "aliases" `Quick test_parse_aliases;
          Alcotest.test_case "aggregates" `Quick test_parse_aggregates;
          Alcotest.test_case "where precedence" `Quick test_parse_where_precedence;
          Alcotest.test_case "arith precedence" `Quick test_parse_arith_precedence;
          Alcotest.test_case "parens and not" `Quick test_parse_parens_and_not;
          Alcotest.test_case "errors" `Quick test_parse_errors;
        ] );
      ( "translate",
        [
          Alcotest.test_case "join and filter" `Quick test_translate_join_and_filter;
          Alcotest.test_case "unqualified columns" `Quick
            test_translate_unqualified_columns;
          Alcotest.test_case "aggregate view" `Quick test_translate_aggregate_view;
          Alcotest.test_case "errors" `Quick test_translate_errors;
          Alcotest.test_case "same-table equality" `Quick
            test_translate_same_table_equality_is_filter;
          Alcotest.test_case "parallel equalities" `Quick
            test_translate_parallel_equalities;
          Alcotest.test_case "maintains incrementally" `Quick
            test_sql_view_maintains;
          Alcotest.test_case "four-way TPC-R view" `Quick test_translate_four_way_tpcr;
        ] );
    ]
