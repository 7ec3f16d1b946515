(** Translate a parsed SQL query into a maintainable view definition.

    Restrictions (checked, reported as [Error]):
    - every FROM table must exist in the catalog;
    - WHERE must be a conjunction whose equality conjuncts between columns
      of two different tables become equi-join edges (in source order —
      this order is also the maintenance join order, see
      {!Ivm.Viewdef.make}), except one between tables that earlier edges
      already connect (it would close a cycle); all remaining conjuncts
      become the filter;
    - with aggregates in SELECT, the non-aggregate items must appear in
      GROUP BY;
    - unqualified column references must be unambiguous across the FROM
      tables. *)

val view_of_query :
  name:string ->
  catalog:(string -> Relation.Table.t option) ->
  Ast.query ->
  (Ivm.Viewdef.t, string) result

val view_of_sql :
  name:string ->
  catalog:(string -> Relation.Table.t option) ->
  string ->
  (Ivm.Viewdef.t, string) result
(** {!Parser.parse} composed with {!view_of_query}. *)
