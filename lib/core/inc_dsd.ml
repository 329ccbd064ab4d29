module G = Dsd_graph.Graph
module Dyn = Dsd_graph.Dynamic
module P = Dsd_pattern.Pattern
module F = Dsd_flow.Flow_network
module Store = Dsd_clique.Instance_store.Dyn
module Counter = Dsd_obs.Counter

(* An incremental DSD session: a mutable graph handle plus a live
   h-clique instance store and a pds-style flow arena that are patched
   in place as edge batches arrive, so each query re-solves from the
   previous committed flow instead of rebuilding from scratch.

   The arena is the one-node-per-instance pds network (Section 7):
   source -> v with cap deg(v, Psi) for every vertex (cap 0 arcs stand
   in for absent ones so a later degree increase is a plain cap
   raise), v -> sink with cap h * alpha (the alpha-dependent class),
   and per live instance a fresh node with v -> inst cap 1 and
   inst -> v cap h-1 arcs.  Patching preserves two invariants between
   solver runs: flow <= cap on every arc (the drain repairs) and
   conservation at every internal node — feasibility, not optimality,
   which the next probe's augmentations restore.

   Queries run the float bisection of Dsd_check.Oracle.reference_cds
   — bounds [0, max live instance-degree], stopping gap, probe
   decision (is the min-cut source side empty?) — rather than the
   exact search, whose cold probes would reset the flow that must stay
   warm across deltas; and a session which has
   answered before warm-brackets the search around its previous
   optimum (gallop out from [last_opt], then bisect), collapsing the
   probe count to a handful when a delta batch barely moved the
   density.  This is sound because the answer is canonical for any
   probe history: the loop exits with [u - l < stop_gap n], which is
   below the minimum spacing of distinct candidate densities, so the
   last feasible probe lies in the breakpoint-free interval just under
   the optimum, where the inclusion-minimal min-cut source side (what
   residual reachability computes, independent of which max flow the
   solver arrived at) is exactly the canonical CDS.  A patched
   session, a fresh session on the rebuilt graph, and any probe
   history therefore report the identical vertex set.
   [test_incremental] and the delta-equals-rebuild relation pin
   this. *)

type t = {
  psi : P.t;
  h : int;
  dyn : Dyn.t;
  mutable store : Store.store;
  (* The arena and its alpha arcs v -> sink (base 0, coefficient h).
     Its [node_count] is the build-time size: instance nodes added
     later are not counted, and nothing here reads it. *)
  mutable arena : Flow_build.prepared;
  mutable src_arc : int array;    (* v -> source-arc id *)
  mutable inst_node : int array;  (* instance id -> arena node *)
  mutable inst_arcs : int array array;  (* instance id -> its arc ids *)
  mutable last_opt : float;  (* previous query's density; < 0 = none *)
}

let net t = t.arena.Flow_build.network.Flow_build.net
let source t = t.arena.Flow_build.network.Flow_build.source
let sink t = t.arena.Flow_build.network.Flow_build.sink

let grow_inst t id =
  if id >= Array.length t.inst_node then begin
    let cap = max 16 (2 * Array.length t.inst_node) in
    let node = Array.make cap (-1) in
    let arcs = Array.make cap [||] in
    Array.blit t.inst_node 0 node 0 (Array.length t.inst_node);
    Array.blit t.inst_arcs 0 arcs 0 (Array.length t.inst_arcs);
    t.inst_node <- node;
    t.inst_arcs <- arcs
  end

(* Wire one instance into the arena: a fresh node, member arcs, and the
   member source caps raised to the new degrees. *)
let arena_add_instance t id =
  grow_inst t id;
  let net = net t in
  let node = F.add_node net in
  let arcs = Array.make (2 * t.h) 0 in
  let i = ref 0 in
  Store.iter_members t.store id ~f:(fun v ->
      arcs.(2 * !i) <- F.add_edge net ~src:(v + 1) ~dst:node ~cap:1.;
      arcs.((2 * !i) + 1) <-
        F.add_edge net ~src:node ~dst:(v + 1) ~cap:(float_of_int (t.h - 1));
      F.set_cap net t.src_arc.(v) (float_of_int (Store.degree t.store v));
      incr i);
  t.inst_node.(id) <- node;
  t.inst_arcs.(id) <- arcs

(* Unwire a retired instance: zero its arcs (carrying then draining any
   committed flow) and shrink the member source caps.  Zero-capacity
   arcs are invisible to cut values and residual reachability, so the
   dead node is semantically absent from every later probe. *)
let arena_retire_instance t id =
  let net = net t and s = source t and sink = sink t in
  Array.iter
    (fun a ->
      F.set_cap_carry net a 0.;
      ignore (F.restore_arc_full net ~s ~sink a))
    t.inst_arcs.(id);
  Store.iter_members t.store id ~f:(fun v ->
      F.set_cap_carry net t.src_arc.(v) (float_of_int (Store.degree t.store v));
      ignore (F.restore_arc_head net ~sink t.src_arc.(v)));
  t.inst_arcs.(id) <- [||];
  t.inst_node.(id) <- -1

(* The instance-free arena: source -> v arcs at cap 0 (raised as
   instances arrive) and the alpha arcs v -> sink, cap h * alpha. *)
let empty_arena ~n ~h =
  let net = F.create (n + 2) in
  let sink = n + 1 in
  let src_arc = Array.make (max 1 n) (-1) and alpha_arcs = Array.make n (-1) in
  for v = 0 to n - 1 do
    src_arc.(v) <- F.add_edge net ~src:0 ~dst:(v + 1) ~cap:0.;
    alpha_arcs.(v) <- F.add_edge net ~src:(v + 1) ~dst:sink ~cap:0.
  done;
  ( { Flow_build.network =
        { net; source = 0; sink; n_vertices = n; node_count = n + 2 };
      alpha_arcs;
      alpha_base = Array.make n 0.;
      alpha_coef = Array.make n (float_of_int h) },
    src_arc )

let build_arena t =
  let arena, src_arc = empty_arena ~n:(Dyn.n t.dyn) ~h:t.h in
  t.arena <- arena;
  t.src_arc <- src_arc;
  t.inst_node <- Array.make 16 (-1);
  t.inst_arcs <- Array.make 16 [||];
  Counter.incr Counter.Flow_networks_built;
  for id = 0 to Store.total t.store - 1 do
    if Store.is_live t.store id then arena_add_instance t id
  done

let create g (psi : P.t) =
  if psi.P.kind <> P.Clique then
    invalid_arg "Inc_dsd.create: only h-clique patterns are supported";
  let dyn = Dyn.of_graph g in
  let instances = Enumerate.instances g psi in
  let store = Store.create ~n:(G.n g) instances in
  let t =
    {
      psi;
      h = psi.P.size;
      dyn;
      store;
      arena = fst (empty_arena ~n:0 ~h:psi.P.size);
      src_arc = [||];
      inst_node = [||];
      inst_arcs = [||];
      last_opt = -1.;
    }
  in
  build_arena t;
  t

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
   order).  The committed flow is dropped — the next probe starts cold
   — but results are unaffected, and the threshold keeps the amortised
   cost negligible. *)
let maybe_compact t =
  let dead = Store.total t.store - Store.live_total t.store in
  if dead > 64 && dead > 3 * Store.live_total t.store then begin
    Counter.incr Counter.Delta_arena_rebuilds;
    t.store <- Store.create ~n:(Dyn.n t.dyn) (Store.live_members t.store);
    build_arena t
  end

let apply_op t op =
  match op with
  | Dyn.Add (u, v) ->
    if Dyn.add_edge t.dyn u v then begin
      List.iter
        (fun members ->
          let id = Store.append t.store members in
          arena_add_instance t id;
          Counter.incr Counter.Delta_instances_added)
        (discover_instances t u v);
      true
    end
    else false
  | Dyn.Remove (u, v) ->
    if Dyn.remove_edge t.dyn u v then begin
      ignore
        (Store.retire_edge t.store u v ~f:(fun id ->
             arena_retire_instance t id;
             Counter.incr Counter.Delta_instances_retired));
      true
    end
    else false

let apply t ops =
  Dsd_obs.Span.with_ Dsd_obs.Phase.incremental @@ fun () ->
  let applied =
    Array.fold_left
      (fun acc op -> if apply_op t op then acc + 1 else acc)
      0 ops
  in
  maybe_compact t;
  applied

let max_live_degree t =
  let best = ref 0 in
  for v = 0 to Dyn.n t.dyn - 1 do
    if Store.degree t.store v > !best then best := Store.degree t.store v
  done;
  !best

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
      let s_side = Flow_build.solve (Flow_build.retarget t.arena ~alpha) in
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
      if Array.length !best_vertices = 0 then Density.empty
      else Density.of_vertices (Dyn.snapshot t.dyn) t.psi !best_vertices
    in
    t.last_opt <- result.Density.density;
    result
  end

let density t = (query t).Density.density
let graph t = Dyn.snapshot t.dyn
let dynamic t = t.dyn
let psi t = t.psi
let core_numbers t = Dyn.core_numbers t.dyn
let live_instances t = Store.live_total t.store
let total_instances t = Store.total t.store
