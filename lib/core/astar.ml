type stats = {
  expanded : int;
  generated : int;
  reopened : int;
  pruned : int;
  max_queue : int;
  max_live : int;
}

type result = { cost : float; plan : Plan.t; stats : stats }

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
let[@inline] f_component spec tables i k =
  let tab = tables.f_tab.(i) in
  if k < Array.length tab then tab.(k)
  else Cost.Func.eval (Spec.cost_fn spec i) k

(* lb_i(M), with a fallback for caller-supplied states beyond the
   reachable range: the table's last entry (lb is monotone in M) and the
   subadditive one-batch bound both lower-bound any continuation. *)
let lb_beyond spec tables i remaining =
  let tab = tables.lb.(i) in
  Float.max tab.(Array.length tab - 1) (f_component spec tables i remaining)

let[@inline] lb_at spec tables i remaining =
  let tab = tables.lb.(i) in
  if remaining < Array.length tab then tab.(remaining)
  else lb_beyond spec tables i remaining

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
let heuristic_value spec tables ~t (s : Statevec.t) =
  let start = Int.min (t + 1) (Spec.horizon spec + 1) in
  let row = tables.suffix.(start) in
  let acc = ref 0.0 in
  for i = 0 to Array.length s - 1 do
    acc := !acc +. lb_at spec tables i (s.(i) + row.(i))
  done;
  !acc

(* Partial application memoizes the precomputation: [heuristic spec] does
   the O(T·n) suffix-sum / batch-bound / tabulation work once and returns
   a closure that is pure array arithmetic per call. *)
let heuristic spec = heuristic_value spec (precompute spec)

let batch_bounds spec = (precompute spec).bounds

let table_lower_bound spec ~table ~remaining =
  if remaining < 0 then
    invalid_arg "Astar.table_lower_bound: negative remaining";
  let tables = precompute spec in
  if table < 0 || table >= Array.length tables.lb then
    invalid_arg "Astar.table_lower_bound: bad table index";
  lb_at spec tables table remaining

(* The flat node store.  A node is an int id; its fields live in growable
   arrays: the post-action state as the [width] ints of [states] from
   [id * width], and its time, parent id, [Statekey.hash_of] and g-value.
   [index] maps (time, state) to an id by open addressing with linear
   probing, at most half full; [-1] marks a free slot.  Probing a
   candidate held in a scratch buffer allocates nothing, so neither does
   a pruned edge. *)
type store = {
  width : int;
  mutable count : int;
  mutable states : int array;
  mutable times : int array;
  mutable parents : int array;
  mutable hashes : int array;
  mutable g : Float.Array.t;
  mutable index : int array;
}

let create_store width =
  let cap = 1024 in
  {
    width;
    count = 0;
    states = Array.make (cap * width) 0;
    times = Array.make cap 0;
    parents = Array.make cap (-1);
    hashes = Array.make cap 0;
    g = Float.Array.make cap 0.0;
    index = Array.make (2 * cap) (-1);
  }

let same_state st id (buf : Statevec.t) =
  let base = id * st.width in
  let i = ref 0 in
  while !i < st.width && st.states.(base + !i) = buf.(!i) do
    incr i
  done;
  !i = st.width

(* The slot holding node (time, buf), or the free slot where it belongs. *)
let find_slot st ~time ~hash buf =
  let mask = Array.length st.index - 1 in
  let slot = ref (hash land mask) in
  while
    let id = st.index.(!slot) in
    id >= 0
    && not
         (st.hashes.(id) = hash && st.times.(id) = time
        && same_state st id buf)
  do
    slot := (!slot + 1) land mask
  done;
  !slot

let grow_nodes st =
  let cap = Array.length st.times in
  let extend a fill =
    let b = Array.make (2 * Array.length a) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  st.states <- extend st.states 0;
  st.times <- extend st.times 0;
  st.parents <- extend st.parents (-1);
  st.hashes <- extend st.hashes 0;
  let g = Float.Array.make (2 * cap) 0.0 in
  Float.Array.blit st.g 0 g 0 cap;
  st.g <- g

let grow_index st =
  let index = Array.make (2 * Array.length st.index) (-1) in
  let mask = Array.length index - 1 in
  for id = 0 to st.count - 1 do
    let slot = ref (st.hashes.(id) land mask) in
    while index.(!slot) >= 0 do
      slot := (!slot + 1) land mask
    done;
    index.(!slot) <- id
  done;
  st.index <- index

(* Record node (time, buf) in the free [slot] [find_slot] returned. *)
let add st ~slot ~time ~hash buf =
  if st.count = Array.length st.times then grow_nodes st;
  let id = st.count in
  Array.blit buf 0 st.states (id * st.width) st.width;
  st.times.(id) <- time;
  st.hashes.(id) <- hash;
  st.index.(slot) <- id;
  st.count <- id + 1;
  if 2 * st.count > Array.length st.index then grow_index st;
  id

(* Bindings minus occupied home slots: the nodes that had to probe past
   their hash's slot (booked as [astar.key_collisions]). *)
let collisions st =
  let mask = Array.length st.index - 1 in
  let home = Bytes.make (mask + 1) '\000' in
  let occupied = ref 0 in
  for id = 0 to st.count - 1 do
    let slot = st.hashes.(id) land mask in
    if Bytes.get home slot = '\000' then begin
      Bytes.set home slot '\001';
      incr occupied
    end
  done;
  st.count - !occupied

(* [Spec.is_full] from the tabulated costs: each term is the same float
   and the sum runs in the same ascending table order, so the answer is
   the same bit for bit. *)
let is_full_tab spec tables (v : Statevec.t) =
  let acc = ref 0.0 in
  for i = 0 to Array.length v - 1 do
    acc := !acc +. f_component spec tables i v.(i)
  done;
  !acc > Spec.limit spec

(* The action of the edge into [id]: the parent's post-state plus the
   arrivals in (t_parent, t], minus the node's post-state. *)
let action_into tables st id =
  let n = st.width and p = st.parents.(id) in
  let from_row = tables.suffix.(st.times.(p) + 1)
  and to_row = tables.suffix.(st.times.(id) + 1) in
  Array.init n (fun i ->
      st.states.((p * n) + i) + from_row.(i) - to_row.(i)
      - st.states.((id * n) + i))

let solve_exclusive ~use_heuristic spec =
  let n = Spec.n_tables spec in
  let horizon = Spec.horizon spec in
  let arrivals = Spec.arrivals spec in
  let tables = precompute spec in
  let st = create_store n in
  let queue = Util.Pqueue.create () in
  let expanded = ref 0 and generated = ref 0 in
  let reopened = ref 0 and pruned = ref 0 in
  let max_queue = ref 0 in
  let h ~t s =
    if use_heuristic then heuristic_value spec tables ~t s else 0.0
  in
  (* Scratch, reused by every expansion: the pre-action state, a candidate
     post-state, the active tables with their f_i(pre_i), and the
     tentative g-value of the edge being relaxed (a float argument would
     be boxed). *)
  let pre = Statevec.zero n and post = Statevec.zero n in
  let active = Array.make n 0 and weights = Array.make n 0.0 in
  let n_active = ref 0 in
  let tentative_cell = Float.Array.make 1 0.0 in
  let from = ref 0 and edge_time = ref 0 in
  (* The source (time -1, zero state) is node 0. *)
  let source = Statevec.zero n in
  let hash = Statekey.hash_of ~time:(-1) source in
  ignore
    (add st ~slot:(find_slot st ~time:(-1) ~hash source) ~time:(-1) ~hash
       source);
  Util.Pqueue.push queue ~priority:(h ~t:(-1) source) (0, 0.0);
  (* Relax the edge from [!from] to (time, post) at the tentative g-value
     in [tentative_cell]. *)
  let relax time =
    incr generated;
    let tentative = Float.Array.get tentative_cell 0 in
    let hash = Statekey.hash_of ~time post in
    let slot = find_slot st ~time ~hash post in
    let known = st.index.(slot) in
    if known >= 0 && tentative >= Float.Array.get st.g known then
      (* Closed-set dominance: a recorded path to this node is already at
         least as good — drop it without touching the queue.  The
         comparison is exact (no epsilon): each path's cost is a fixed
         float, so keeping strict improvements makes the recorded g-values
         the true minimum over relaxed paths — independent of relaxation
         order. *)
      incr pruned
    else begin
      (* The heuristic is admissible but not consistent (see above), so a
         shorter path to an already-recorded node must reopen it. *)
      let id =
        if known >= 0 then begin
          incr reopened;
          known
        end
        else add st ~slot ~time ~hash post
      in
      Float.Array.set st.g id tentative;
      st.parents.(id) <- !from;
      Util.Pqueue.push queue
        ~priority:(tentative +. h ~t:time post)
        (id, tentative);
      max_queue := Int.max !max_queue (Util.Pqueue.length queue)
    end
  in
  (* One minimal greedy edge: flush the tables of [mask] (bits index
     [active]).  The weight sums the flushed tables' f_i(pre_i) in
     ascending table order; the skipped terms are f_i(0) = 0.0. *)
  let greedy_edge mask =
    Array.blit pre 0 post 0 n;
    let w = ref 0.0 in
    for j = 0 to !n_active - 1 do
      if mask land (1 lsl j) <> 0 then begin
        w := !w +. weights.(j);
        post.(active.(j)) <- 0
      end
    done;
    Float.Array.set tentative_cell 0 (Float.Array.get st.g !from +. !w);
    relax !edge_time
  in
  let expand id =
    from := id;
    Array.blit st.states (id * n) pre 0 n;
    (* Walk arrivals forward to the first full pre-action state before the
       horizon, or to the horizon. *)
    let t = ref (st.times.(id) + 1) and full = ref false in
    while (not !full) && !t <= horizon do
      let row = arrivals.(!t) in
      for i = 0 to n - 1 do
        pre.(i) <- pre.(i) + row.(i)
      done;
      if !t < horizon && is_full_tab spec tables pre then full := true
      else incr t
    done;
    let g_from = Float.Array.get st.g id in
    if not !full then begin
      (* Single edge to the destination: flush everything at T (also
         covers the t2 = T case). *)
      let w = ref 0.0 in
      for i = 0 to n - 1 do
        w := !w +. f_component spec tables i pre.(i)
      done;
      Float.Array.set tentative_cell 0 (g_from +. !w);
      Array.fill post 0 n 0;
      relax horizon
    end
    else begin
      n_active := 0;
      for i = 0 to n - 1 do
        if pre.(i) > 0 then begin
          active.(!n_active) <- i;
          weights.(!n_active) <- f_component spec tables i pre.(i);
          incr n_active
        end
      done;
      edge_time := !t;
      Actions.iter_minimal_masks weights ~count:!n_active
        ~limit:(Spec.limit spec) greedy_edge
    end
  in
  let rec search () =
    match Util.Pqueue.pop queue with
    | None -> invalid_arg "Astar.solve: no plan found (unreachable)"
    | Some (_, (id, g_at_push)) ->
        (* Only the edge into (T, zero) reaches the horizon. *)
        if st.times.(id) = horizon then id
        else if g_at_push > Float.Array.get st.g id then begin
          (* Lazy deletion: the g-value recorded at push time tells us
             whether the node was relaxed to something better since (no
             heuristic re-evaluation needed). *)
          incr pruned;
          search ()
        end
        else begin
          incr expanded;
          expand id;
          search ()
        end
  in
  let dest = search () in
  (* Rebuild the plan from the parent chain; actions are not stored. *)
  let rec rebuild id acc =
    if id = 0 then acc
    else
      rebuild st.parents.(id) ((st.times.(id), action_into tables st id) :: acc)
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
      (* Nodes are only ever added, so the peak is the final count. *)
      max_live = st.count;
    }
  in
  (* One booking per solve, so the disabled-path overhead stays a few ref
     reads regardless of search size. *)
  if Telemetry.enabled () then begin
    Telemetry.add "astar.expanded" (float_of_int stats.expanded);
    Telemetry.add "astar.generated" (float_of_int stats.generated);
    Telemetry.add "astar.reopened" (float_of_int stats.reopened);
    Telemetry.add "astar.pruned" (float_of_int stats.pruned);
    Telemetry.add "astar.key_collisions" (float_of_int (collisions st));
    Telemetry.max_gauge "astar.queue_peak" (float_of_int stats.max_queue);
    Telemetry.max_gauge "astar.live_peak" (float_of_int stats.max_live)
  end;
  { cost = Float.Array.get st.g dest; plan = Plan.of_actions actions; stats }

let solve ?(use_heuristic = true) spec =
  Telemetry.with_span ~name:"astar.solve" (fun () ->
      solve_exclusive ~use_heuristic spec)
