module G = Dsd_graph.Graph
module Dyn = Dsd_graph.Dynamic
module P = Dsd_pattern.Pattern
module F = Dsd_flow.Flow_network
module Store = Dsd_clique.Instance_store.Dyn
module Vec = Dsd_util.Vec.Int
module Counter = Dsd_obs.Counter

(* An incremental DSD session: a live h-clique instance store and a
   pds-style flow arena over a mutable graph handle, which sessions for
   other patterns of the same graph may read too.  Store and arena are
   patched in place as edge batches arrive, so each query re-solves
   from the previous committed flow instead of rebuilding from scratch.

   The arena is the one-node-per-instance pds network (Section 7) over
   the vertices that lie in a live instance.  Node 0 is the source and
   node 1 the sink.  A vertex gets its node, a source -> v arc of cap
   deg(v, Psi) and an alpha arc v -> sink with the law h * alpha when
   it first joins a live instance (a build joins them in ascending
   order, a delta appends them), so a vertex in no instance costs
   nothing.
   Per live instance there is a fresh node with v -> inst cap 1 and
   inst -> v cap h-1 arcs.  A retired instance keeps its node with
   zero-capacity arcs, and a vertex that leaves every live instance
   keeps its node with a zero-capacity source arc, until the
   compaction rebuild drops both; zero-capacity arcs are invisible to
   cuts, so the arena always equals the pds network of the live
   instances.  Each probe's retarget, max flow, min cut and decoding,
   and the query's degree bound and c(S) count, therefore cost
   O(vertices in live instances + instance nodes), not O(n).
   Patching preserves two invariants between solver runs: flow <= cap
   on every arc and conservation at every internal node — every
   lowered capacity goes through [Flow_network.set_cap_warm]'s repair —
   which is feasibility, not optimality: the next probe's augmentations
   restore that.  Each probe re-aims the arena with
   [Flow_network.retarget], which reads the alpha arcs' laws from the
   network and keeps the committed flow.

   Queries run the float bisection of Dsd_check.Oracle.reference_cds
   — bounds [0, max live instance-degree], stopping gap, probe
   decision (is the min-cut source side empty?) — rather than the
   exact search, whose cold probes would reset the flow that must stay
   warm across deltas (cold, a query took about 27 times the augmenting
   paths, and a serve tick about 5 times as long: DESIGN §6); and a
   session which has answered before warm-brackets the search around
   its previous optimum (gallop out from [last_opt], then bisect),
   collapsing the probe count to a handful when a delta batch barely
   moved the density.  This is sound because the answer is canonical
   for any probe history: the loop exits with [u - l < stop_gap n],
   which is below the minimum spacing of distinct candidate densities,
   so the last feasible probe lies in the breakpoint-free interval just
   under the optimum, where the inclusion-minimal min-cut source side
   (what residual reachability computes, independent of which max flow
   the solver arrived at) is exactly the canonical CDS.  A patched
   session, a fresh session on the rebuilt graph, and any probe
   history therefore report the identical vertex set, whatever order
   the arena's nodes and arcs were added in.
   [test_incremental] and the delta-equals-rebuild relation pin
   this. *)

type t = {
  psi : P.t;
  h : int;
  dyn : Dyn.t;
  mutable store : Store.store;
  (* The arena's [n_vertices] and [node_count] are not read:
     [vertices_on] decodes the cut. *)
  mutable arena : Flow_build.t;
  node : int array;     (* vertex -> arena node; -1 until it joins *)
  src_arc : int array;  (* vertex -> source-arc id, once it has a node *)
  joined : Vec.t;       (* vertices with a node, in join order *)
  first_arc : Vec.t;
      (* instance id -> its first arc id: an instance's 2h member arcs
         are created back to back, so they are first, first + 2, ...,
         first + 2(2h - 1) (each arc's twin sits between) *)
  inside : bool array;  (* [count_inside]'s marks, all false between calls *)
  mutable last_opt : float;  (* previous query's density; < 0 = none *)
}

let net t = t.arena.Flow_build.net
let source t = t.arena.Flow_build.source
let sink t = t.arena.Flow_build.sink

(* Give [v] its node, a cap-0 source arc (raised as its instances
   arrive) and an alpha arc of law h * alpha (capacitated by the next
   retarget), unless it has them already. *)
let join t v =
  if t.node.(v) < 0 then begin
    let net = net t in
    let x = F.add_node net in
    t.node.(v) <- x;
    t.src_arc.(v) <- F.add_edge net ~src:(source t) ~dst:x ~cap:0.;
    ignore
      (F.add_edge net ~coef:(float_of_int t.h) ~src:x ~dst:(sink t) ~cap:0.);
    Vec.push t.joined v
  end

(* Wire one instance into the arena: its members' nodes if new, a fresh
   node, member arcs, and the member source caps raised to the new
   degrees.  Instances are wired in id order (a build wires a fresh
   store's ids, all live, and a delta each id it appends), so the
   instance's first arc is pushed at index [id]. *)
let arena_add_instance t id =
  Store.iter_members t.store id ~f:(join t);
  let net = net t in
  let node = F.add_node net in
  Vec.push t.first_arc (F.arc_count net);
  Store.iter_members t.store id ~f:(fun v ->
      let x = t.node.(v) in
      ignore (F.add_edge net ~src:x ~dst:node ~cap:1.);
      ignore (F.add_edge net ~src:node ~dst:x ~cap:(float_of_int (t.h - 1)));
      F.set_cap net t.src_arc.(v) (float_of_int (Store.degree t.store v)))

(* Unwire a retired instance: zero its arcs and shrink the member
   source caps, repairing any committed flow they carried.
   Zero-capacity arcs are invisible to cut values and residual
   reachability, so the dead node is semantically absent from every
   later probe. *)
let arena_retire_instance t id =
  let net = net t and s = source t and sink = sink t in
  let first = Vec.get t.first_arc id in
  for j = 0 to (2 * t.h) - 1 do
    ignore (F.set_cap_warm net ~s ~sink (first + (2 * j)) 0.)
  done;
  Store.iter_members t.store id ~f:(fun v ->
      ignore
        (F.set_cap_warm net ~s ~sink t.src_arc.(v)
           (float_of_int (Store.degree t.store v))))

(* The arena with no vertex: the source (node 0) and the sink
   (node 1). *)
let empty_arena () =
  { Flow_build.net = F.create 2; source = 0; sink = 1; n_vertices = 0;
    node_count = 2 }

(* The arena of the live instances: the source, the sink, every vertex
   in a live instance in ascending order (so the solver meets the
   source arcs in vertex order, as in [Flow_build]'s networks), then
   the instances in id order.  Both callers build over a fresh store,
   whose instances are all live. *)
let build_arena t =
  t.arena <- empty_arena ();
  Array.fill t.node 0 (Array.length t.node) (-1);
  Vec.clear t.joined;
  Vec.clear t.first_arc;
  Counter.incr Counter.Flow_networks_built;
  for v = 0 to Array.length t.node - 1 do
    if Store.degree t.store v > 0 then join t v
  done;
  for id = 0 to Store.total t.store - 1 do
    arena_add_instance t id
  done

let attach dyn (psi : P.t) =
  if psi.P.kind <> P.Clique then
    invalid_arg "Inc_dsd.attach: only h-clique patterns are supported";
  let g = Dyn.snapshot dyn in
  let n = G.n g in
  let t =
    {
      psi;
      h = psi.P.size;
      dyn;
      store = Store.create ~n (Enumerate.instances g psi);
      arena = empty_arena ();
      node = Array.make n (-1);
      src_arc = Array.make n (-1);
      joined = Vec.create ();
      first_arc = Vec.create ();
      inside = Array.make n false;
      last_opt = -1.;
    }
  in
  build_arena t;
  t

let create g psi = attach (Dyn.of_graph g) psi

(* New h-clique instances created by inserting edge (u,v): {u,v} plus
   every (h-2)-subset of the common neighbourhood that is itself a
   clique.  The common array is sorted, and candidates are extended in
   index order, so discovery order is canonical. *)
let discover_instances t u v =
  if t.h = 2 then [ [| min u v; max u v |] ]
  else begin
    let common = Dyn.common_neighbors t.dyn u v in
    let found = ref [] in
    let chosen = Array.make (t.h - 2) 0 in
    let rec extend depth lo =
      if depth = t.h - 2 then begin
        let members = Array.make t.h 0 in
        members.(0) <- u;
        members.(1) <- v;
        Array.blit chosen 0 members 2 (t.h - 2);
        Array.sort compare members;
        found := members :: !found
      end
      else
        for i = lo to Array.length common - 1 do
          let w = common.(i) in
          let ok = ref true in
          for j = 0 to depth - 1 do
            if not (Dyn.mem_edge t.dyn chosen.(j) w) then ok := false
          done;
          if !ok then begin
            chosen.(depth) <- w;
            extend (depth + 1) (i + 1)
          end
        done
    in
    extend 0 0;
    List.rev !found
  end

(* Tombstones never shrink the arena, so once they dominate we compact:
   rebuild the store and arena from the live instances (in stable id
   order), which also drops the nodes of vertices left in no live
   instance.  The committed flow is dropped — the next probe starts cold
   — but results are unaffected, and the threshold keeps the amortised
   cost negligible. *)
let maybe_compact t =
  let dead = Store.total t.store - Store.live_total t.store in
  if dead > 64 && dead > 3 * Store.live_total t.store then begin
    Counter.incr Counter.Delta_arena_rebuilds;
    t.store <- Store.create ~n:(Dyn.n t.dyn) (Store.live_members t.store);
    build_arena t
  end

(* Each op changes the handle once; every session is then patched for
   it before the next op, so each discovers its instances on the graph
   as it stands after that op, exactly as a session that owned the
   handle would. *)
let apply_op dyn sessions op =
  match op with
  | Dyn.Add (u, v) ->
    let changed = Dyn.add_edge dyn u v in
    if changed then
      List.iter
        (fun t ->
          List.iter
            (fun members ->
              let id = Store.append t.store members in
              arena_add_instance t id;
              Counter.incr Counter.Delta_instances_added)
            (discover_instances t u v))
        sessions;
    changed
  | Dyn.Remove (u, v) ->
    let changed = Dyn.remove_edge dyn u v in
    if changed then
      List.iter
        (fun t ->
          ignore
            (Store.retire_edge t.store u v ~f:(fun id ->
                 arena_retire_instance t id;
                 Counter.incr Counter.Delta_instances_retired)))
        sessions;
    changed

let apply_all dyn sessions ops =
  if List.exists (fun t -> t.dyn != dyn) sessions then
    invalid_arg "Inc_dsd.apply_all: a session reads another handle";
  Dsd_obs.Span.with_ Dsd_obs.Phase.incremental @@ fun () ->
  let applied =
    Array.fold_left
      (fun acc op -> if apply_op dyn sessions op then acc + 1 else acc)
      0 ops
  in
  List.iter maybe_compact sessions;
  applied

let apply t ops = apply_all t.dyn [ t ] ops

(* Only joined vertices can have a live instance. *)
let max_live_degree t =
  Vec.fold (fun best v -> max best (Store.degree t.store v)) 0 t.joined

(* The data vertices whose nodes lie on the source side of a min cut,
   ascending. *)
let vertices_on t side =
  let out = Vec.create () in
  Vec.iter (fun v -> if side.(t.node.(v)) then Vec.push out v) t.joined;
  let vs = Vec.to_array out in
  Array.sort Int.compare vs;
  vs

(* c(S) for the sorted, duplicate-free S that [vertices_on] returns:
   the live store holds exactly the current graph's h-cliques, so c(S)
   is its live instances inside S, each counted once, from the
   postings of its smallest member. *)
let count_inside t vs =
  let inside = t.inside in
  Array.iter (fun v -> inside.(v) <- true) vs;
  let c = ref 0 in
  Array.iter
    (fun v ->
      Store.iter_live_of_vertex t.store v ~f:(fun id ->
          let ok = ref true in
          Store.iter_members t.store id ~f:(fun w ->
              if w < v || not inside.(w) then ok := false);
          if !ok then incr c))
    vs;
  Array.iter (fun v -> inside.(v) <- false) vs;
  !c

let query t =
  Dsd_obs.Span.with_ Dsd_obs.Phase.incremental @@ fun () ->
  let n = Dyn.n t.dyn in
  let mu = Store.live_total t.store in
  if n = 0 || mu = 0 then Density.empty
  else begin
    let l = ref 0. and u = ref (float_of_int (max_live_degree t)) in
    let gap = Density.stop_gap n in
    let best_vertices = ref [||] in
    (* Each probe re-points the alpha arcs warm from the committed
       flow. *)
    let feasible alpha =
      Counter.incr Counter.Core_iterations;
      F.retarget (net t) ~s:(source t) ~sink:(sink t) ~alpha;
      let s_side = Flow_build.cut t.arena ~f:(fun _ -> vertices_on t) in
      if Array.length s_side > 0 then best_vertices := s_side;
      Array.length s_side > 0
    in
    let probe alpha = if feasible alpha then l := alpha else u := alpha in
    (* Warm bracket: the answer is canonical for any probe history (see
       the module comment), so a patched session may narrow [l, u)
       around its previous optimum instead of bisecting the full range.
       Probe just below the last density — if the optimum is unchanged
       that probe is feasible and the next one closes the bracket — and
       gallop with doubling steps in whichever direction it moved.  A
       fresh session ([last_opt < 0]) takes the plain bisection. *)
    let a0 = t.last_opt -. (gap /. 2.) in
    if a0 > !l && a0 < !u then begin
      probe a0;
      let step = ref gap in
      let live = ref true in
      while !live && !u -. !l >= gap do
        let x = if !l >= a0 then !l +. !step else !u -. !step in
        if x <= !l || x >= !u then live := false
        else begin
          probe x;
          step := !step *. 2.
        end
      done
    end;
    Parametric.bisect ~gap:(Fun.const gap) ~l:!l ~u:!u (fun alpha ->
        if feasible alpha then Some alpha else None);
    let result =
      Density.of_count !best_vertices (count_inside t !best_vertices)
    in
    t.last_opt <- result.Density.density;
    result
  end

let density t = (query t).Density.density
let graph t = Dyn.snapshot t.dyn
let dynamic t = t.dyn
let psi t = t.psi
let live_instances t = Store.live_total t.store
