type stats = {
  expanded : int;
  generated : int;
  reopened : int;
  pruned : int;
  max_queue : int;
  max_live : int;
}

type result = { cost : float; plan : Plan.t; stats : stats }

module Ktbl = Statekey.Tbl

(* Per-solve precomputation shared by the heuristic and the edge-weight
   evaluator: suffix sums K.(t).(i) = total arrivals to table i during
   [t, T], the global per-table one-step maximum m_i, the paper's batch
   bounds b_i, each f_i tabulated over the reachable argument range
   [0, K.(0).(i) + m_i] so hot-path cost lookups are array reads instead
   of closure calls, and the per-table decomposition lower bounds lb_i
   (see below). *)
type tables = {
  suffix : int array array;
  bounds : int array;
  f_tab : float array array;
  lb : float array array;
}

let precompute spec =
  let n = Spec.n_tables spec in
  let horizon = Spec.horizon spec in
  let suffix = Array.make_matrix (horizon + 2) n 0 in
  for t = horizon downto 0 do
    for i = 0 to n - 1 do
      suffix.(t).(i) <- suffix.(t + 1).(i) + (Spec.arrivals spec).(t).(i)
    done
  done;
  let m = Array.make n 0 in
  Array.iter
    (fun row -> Array.iteri (fun i c -> m.(i) <- max m.(i) c) row)
    (Spec.arrivals spec);
  let bounds =
    Array.init n (fun i ->
        let cap = max 1 (suffix.(0).(i) + m.(i) + 1) in
        let best =
          Cost.Check.max_batch (Spec.cost_fn spec i) ~limit:(Spec.limit spec)
            ~cap
        in
        max 1 (m.(i) + best))
  in
  let f_tab =
    Array.init n (fun i ->
        Array.init
          (suffix.(0).(i) + m.(i) + 1)
          (fun k -> Cost.Func.eval (Spec.cost_fn spec i) k))
  in
  (* lb.(i).(M) = min over decompositions M = k_1 + ... + k_j with every
     k_j <= b_i of Σ_j f_i(k_j): the exact optimum of the single-table
     relaxation.  Any plan reaching the horizon from a node with M
     modifications of table i left must process exactly M of them in
     batches of at most b_i (a post-action state is never full, so
     s_i <= max_batch_i, and one step adds at most m_i), so lb_i(M) is
     admissible — and it dominates both of the paper's §4.1 terms:
     lb_i(M) >= f_i(M) by subadditivity, and the batch-count floor bound
     floor(M / b_i) * f_i(b_i) is NOT sound in general (for subadditive
     but non-concave f, e.g. the blocked family, f(k)/k can increase, so
     the floor bound can exceed the cheapest decomposition), which this
     re-derivation fixes.  Tabulated once per solve: O(M_max * b_i) per
     table. *)
  let lb =
    Array.init n (fun i ->
        let mmax = suffix.(0).(i) + m.(i) in
        let tab = Array.make (mmax + 1) 0.0 in
        for mm = 1 to mmax do
          let best = ref Float.infinity in
          for k = 1 to min bounds.(i) mm do
            let c = f_tab.(i).(k) +. tab.(mm - k) in
            if c < !best then best := c
          done;
          tab.(mm) <- !best
        done;
        tab)
  in
  { suffix; bounds; f_tab; lb }

(* Tabulated f_i(k); falls back to a direct evaluation for arguments
   beyond the reachable range (only possible for caller-supplied states,
   never for search-generated ones). *)
let f_component spec tables i k =
  let tab = tables.f_tab.(i) in
  if k < Array.length tab then tab.(k) else Cost.Func.eval (Spec.cost_fn spec i) k

(* Σ_i f_i(v_i), summed in ascending table order so the result is
   bit-identical to [Spec.f] (each term is the same float, and adding a
   0.0 term is exact). *)
let f_vector spec tables (v : Statevec.t) =
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. f_component spec tables i v.(i)
  done;
  !acc

(* h(t, s) = Σ_i lb_i(s_i + K_i) with K_i the arrivals in (t, T] — each
   table's exact decomposition optimum (see [precompute]).  Along any
   search edge the action satisfies a_i <= b_i and shrinks each table's
   remaining count by exactly a_i, and lb_i(M) <= f_i(a_i) + lb_i(M - a_i)
   by DP optimality, so on search-generated nodes the heuristic is both
   admissible and consistent — strictly tighter than the paper's
   floor(M / b_i) * f_i(b_i) ∨ f_i(M), whose floor term is additionally
   unsound for non-concave subadditive costs (Lemma 7's consistency claim
   already failed for it; see DESIGN.md §13).  Node reopening below is
   kept: callers may evaluate the heuristic on states outside the
   reachable range, where the fallback is only admissible. *)
let heuristic_of spec tables =
  let horizon = Spec.horizon spec in
  fun ~t (s : Statevec.t) ->
    (* K_i counts arrivals in (t, T]. *)
    let start = min (t + 1) (horizon + 1) in
    let acc = ref 0.0 in
    Array.iteri
      (fun i si ->
        let remaining = si + tables.suffix.(start).(i) in
        let tab = tables.lb.(i) in
        let bound =
          if remaining < Array.length tab then tab.(remaining)
          else
            (* Caller-supplied states can exceed the reachable range; the
               table's last entry (lb is monotone in M) and the
               subadditive one-batch bound both lower-bound any
               continuation. *)
            Float.max
              tab.(Array.length tab - 1)
              (f_component spec tables i remaining)
        in
        acc := !acc +. bound)
      s;
    !acc

let make_heuristic spec = heuristic_of spec (precompute spec)

let batch_bounds spec = (precompute spec).bounds

let table_lower_bound spec ~table ~remaining =
  if remaining < 0 then
    invalid_arg "Astar.table_lower_bound: negative remaining";
  let tables = precompute spec in
  if table < 0 || table >= Array.length tables.lb then
    invalid_arg "Astar.table_lower_bound: bad table index";
  let tab = tables.lb.(table) in
  if remaining < Array.length tab then tab.(remaining)
  else
    Float.max
      tab.(Array.length tab - 1)
      (f_component spec tables table remaining)

(* Partial application memoizes the precomputation: [heuristic spec] does
   the O(T·n) suffix-sum / batch-bound / tabulation work once and returns
   a closure that is pure array arithmetic per call.  (This used to
   rebuild everything on every [~t s] invocation.) *)
let heuristic = make_heuristic

(* Walk arrivals forward from [t0 + 1] accumulating into a copy of [s];
   return either the first full pre-action time with its state, or the
   final (non-full) pre-action state at the horizon. *)
type scan_result =
  | Full_at of int * Statevec.t
  | Horizon_state of Statevec.t

let scan_to_full spec t0 s =
  let horizon = Spec.horizon spec in
  let acc = Statevec.copy s in
  let rec loop t =
    if t > horizon then Horizon_state acc
    else begin
      Statevec.add_in_place acc (Spec.arrivals spec).(t);
      if t < horizon && Spec.is_full spec acc then Full_at (t, Statevec.copy acc)
      else loop (t + 1)
    end
  in
  loop (t0 + 1)

let solve_exclusive ~use_heuristic spec =
  let n = Spec.n_tables spec in
  let horizon = Spec.horizon spec in
  let tables = precompute spec in
  let h =
    if use_heuristic then heuristic_of spec tables else fun ~t:_ _ -> 0.0
  in
  let queue = Util.Pqueue.create () in
  let g : float Ktbl.t = Ktbl.create 4096 in
  let parent : (Statekey.t * int * Statevec.t) Ktbl.t = Ktbl.create 4096 in
  let expanded = ref 0 and generated = ref 0 in
  let reopened = ref 0 and pruned = ref 0 in
  let max_queue = ref 0 and max_live = ref 0 in
  let source = Statekey.make ~time:(-1) (Statevec.zero n) in
  let dest = Statekey.make ~time:horizon (Statevec.zero n) in
  Ktbl.replace g source 0.0;
  Util.Pqueue.push queue
    ~priority:(h ~t:(-1) (Statevec.zero n))
    (source, 0.0);
  (* Relax one edge.  [g_from] is the settled g-value of the node being
     expanded (passed in once per expansion instead of re-probing the
     hashtable per generated edge). *)
  let relax ~from ~g_from ~time ~action node_key =
    incr generated;
    let tentative = g_from +. f_vector spec tables action in
    match Ktbl.find_opt g node_key with
    | Some existing when tentative >= existing ->
        (* Closed-set dominance: a recorded path to this key is already at
           least as good — drop the node without touching the queue.  The
           comparison is exact (no epsilon): each path's cost is a fixed
           float, so keeping strict improvements makes the recorded
           g-values the true minimum over relaxed paths — independent of
           relaxation order. *)
        incr pruned
    | known ->
        (* The heuristic is admissible but not consistent (see above), so
           a shorter path to an already-recorded node must reopen it. *)
        if known <> None then incr reopened;
        Ktbl.replace g node_key tentative;
        Ktbl.replace parent node_key (from, time, action);
        max_live := max !max_live (Ktbl.length g);
        Util.Pqueue.push queue
          ~priority:
            (tentative +. h ~t:(Statekey.time node_key) (Statekey.state node_key))
          (node_key, tentative);
        max_queue := max !max_queue (Util.Pqueue.length queue)
  in
  let expand node_key g_node =
    let t0 = Statekey.time node_key and s = Statekey.state node_key in
    match scan_to_full spec t0 s with
    | Horizon_state pre ->
        (* Single edge to the destination: flush everything at T (also
           covers the t2 = T case). *)
        relax ~from:node_key ~g_from:g_node ~time:horizon ~action:pre dest
    | Full_at (t2, pre) ->
        List.iter
          (fun action ->
            let post = Statevec.sub pre action in
            relax ~from:node_key ~g_from:g_node ~time:t2 ~action
              (Statekey.make ~time:t2 post))
          (Actions.minimal_greedy_actions spec pre)
  in
  let rec search () =
    match Util.Pqueue.pop queue with
    | None -> None
    | Some (_, (node_key, g_at_push)) ->
        if Statekey.equal node_key dest then Some (Ktbl.find g node_key)
        else begin
          (* Lazy deletion: the g-value recorded at push time tells us
             whether the node was relaxed to something better since (no
             heuristic re-evaluation needed). *)
          let g_now = Ktbl.find g node_key in
          if g_at_push > g_now then begin
            incr pruned;
            search ()
          end
          else begin
            incr expanded;
            expand node_key g_now;
            search ()
          end
        end
  in
  match search () with
  | None -> invalid_arg "Astar.solve: no plan found (unreachable)"
  | Some cost ->
      (* Rebuild the plan by following parent pointers from the
         destination. *)
      let rec rebuild node acc =
        if Statekey.equal node source then acc
        else
          match Ktbl.find_opt parent node with
          | Some (from, time, action) -> rebuild from ((time, action) :: acc)
          | None -> acc
      in
      let actions =
        List.filter (fun (_, a) -> not (Statevec.is_zero a)) (rebuild dest [])
      in
      let stats =
        {
          expanded = !expanded;
          generated = !generated;
          reopened = !reopened;
          pruned = !pruned;
          max_queue = !max_queue;
          max_live = !max_live;
        }
      in
      (* One booking per solve, so the disabled-path overhead stays a few
         ref reads regardless of search size. *)
      Telemetry.add "astar.expanded" (float_of_int stats.expanded);
      Telemetry.add "astar.generated" (float_of_int stats.generated);
      Telemetry.add "astar.reopened" (float_of_int stats.reopened);
      Telemetry.add "astar.pruned" (float_of_int stats.pruned);
      Telemetry.add "astar.key_collisions"
        (float_of_int (Statekey.collisions g));
      Telemetry.max_gauge "astar.queue_peak" (float_of_int stats.max_queue);
      Telemetry.max_gauge "astar.live_peak" (float_of_int stats.max_live);
      { cost; plan = Plan.of_actions actions; stats }

let solve ?(use_heuristic = true) spec =
  Telemetry.with_span ~name:"astar.solve" (fun () ->
      solve_exclusive ~use_heuristic spec)
