module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern

type t = {
  psi : P.t;
  core : int array;
  kmax : int;
  order : int array;
  mu_total : int;
  best_residual_density : float;
  best_residual_start : int;
  best_residual_count : int;
  residual_densities : float array;
}

(* Shared peel skeleton.  [pop] yields the next minimum-degree vertex
   with its degree; [retire v] kills v's live instances, returning how
   many died, and updates co-member degrees (and whatever priority
   structure backs [pop]). *)
let peel ~n ~mu_total ~track_density ~pop ~retire =
  let core = Array.make n 0 in
  let order = Array.make n 0 in
  let mu_live = ref mu_total in
  let initial_density =
    if n = 0 then 0. else float_of_int mu_total /. float_of_int n
  in
  let residuals =
    if track_density then Array.make (max 1 n) initial_density else [||]
  in
  let best_density = ref initial_density in
  let best_start = ref 0 in
  let best_count = ref mu_total in
  let run_max = ref 0 in
  for i = 0 to n - 1 do
    match pop () with
    | None -> assert false
    | Some (v, deg) ->
      Dsd_obs.Counter.incr Dsd_obs.Counter.Peeled_vertices;
      if deg > !run_max then run_max := deg;
      core.(v) <- !run_max;
      order.(i) <- v;
      let killed = retire v in
      mu_live := !mu_live - killed;
      if track_density && i < n - 1 then begin
        let d = float_of_int !mu_live /. float_of_int (n - i - 1) in
        residuals.(i + 1) <- d;
        if d > !best_density then begin
          best_density := d;
          best_start := i + 1;
          best_count := !mu_live
        end
      end
  done;
  assert (!mu_live = 0);
  ( core,
    order,
    !run_max,
    (if track_density then !best_density else 0.),
    (if track_density then !best_start else 0),
    (if track_density then !best_count else 0),
    residuals )

(* Round-synchronous (bucket-free) peel over an instance store — the
   canonical engine for clique/generic patterns.

   Threshold peeling's core numbers are order-independent: core(v) is
   the largest k such that v survives deleting everything of
   instance-degree < k, however ties are broken.  So instead of
   popping one minimum at a time, each level k removes the entire
   cascade of vertices whose live degree falls to <= k, in batched
   sub-rounds; every removed vertex gets core number k, which is
   exactly what a sequential bucket peel's running maximum assigns.
   Peeling whole levels keeps the Theorem 3/4 guarantees: at the first
   position of level k the residual graph has minimum degree k, so the
   best level-boundary suffix already attains the rho*/|Psi| bound
   PeelApp needs.

   The canonical peel order: each sub-round's frontier (the vertices at
   or below k when it starts) leaves the live set at once and is
   retired in ascending vertex id.  Each vertex's retirement kills the
   live instances it is still in, which are exactly those whose
   minimum in-frontier member it is, and that count is the degree
   charged to it (the residual densities of Pruning1 and Greedy++'s
   loads, via [on_peel]).  The co-members that fall to <= k form the
   next sub-round, sorted; when none do, k rises to the minimum live
   degree.  [pop] walks this order on the shared skeleton, reporting
   each vertex at level k, whose running maximum is k itself. *)
let peel_store ?(on_peel = fun _ _ -> ()) ~track_density ~n store =
  let module IS = Dsd_clique.Instance_store in
  let module V = Dsd_util.Vec.Int in
  (* A vertex leaves the live set when it joins a frontier. *)
  let live = Array.make n true in
  let k = ref 0 in
  (* Survivors, compacted in place per level so the level scans cost
     O(live) rather than O(n); compaction keeps them ascending. *)
  let active = Array.init n Fun.id and active_n = ref n in
  let cascade = V.create () in
  let on_comember u =
    if live.(u) && IS.degree store u <= !k then begin
      live.(u) <- false;
      V.push cascade u
    end
  in
  let next_frontier () =
    let cascaded = V.length cascade > 0 in
    if not cascaded then begin
      let kept = ref 0 in
      k := max_int;
      for i = 0 to !active_n - 1 do
        let v = active.(i) in
        if live.(v) then begin
          active.(!kept) <- v;
          incr kept;
          let d = IS.degree store v in
          if d < !k then k := d
        end
      done;
      active_n := !kept;
      for i = 0 to !active_n - 1 do
        let v = active.(i) in
        if IS.degree store v <= !k then begin
          live.(v) <- false;
          V.push cascade v
        end
      done
    end;
    let fr = V.to_array cascade in
    V.clear cascade;
    (* A cascade arrives in posting order; a level's frontier is
       collected ascending already. *)
    if cascaded then Array.sort compare fr;
    fr
  in
  let frontier = ref [||] and next = ref 0 in
  let pop () =
    if !next = Array.length !frontier then begin
      frontier := next_frontier ();
      next := 0
    end;
    let v = !frontier.(!next) in
    incr next;
    Some (v, !k)
  in
  let retire v =
    let killed = IS.kill_vertex store v ~on_comember in
    on_peel v killed;
    killed
  in
  peel ~n ~mu_total:(IS.total store) ~track_density ~pop ~retire

let decompose_generic ~track_density g psi =
  let n = G.n g in
  let insts = Enumerate.instances g psi in
  let store = Dsd_clique.Instance_store.create ~n insts in
  let mu_total = Dsd_clique.Instance_store.total store in
  let core, order, kmax, bd, bs, bc, residuals =
    peel_store ~track_density ~n store
  in
  (core, order, kmax, bd, bs, bc, residuals, mu_total)

(* Star / 4-cycle engine: closed-form degrees, decrement rules, lazy
   heap (degrees like C(d, x) overflow a bucket array). *)
let decompose_special g ~degrees_of ~on_delete =
  let n = G.n g in
  let live = Dsd_graph.Subgraph.of_graph g in
  let degs = degrees_of live in
  let heap = Dsd_util.Lazy_heap.create ~n in
  for v = 0 to n - 1 do
    Dsd_util.Lazy_heap.add heap ~item:v ~key:degs.(v)
  done;
  let psize_sum = Array.fold_left ( + ) 0 degs in
  let stamp = Array.make n (-1) in
  let touched = Dsd_util.Vec.Int.create () in
  let retire v =
    let killed = degs.(v) in
    Dsd_util.Vec.Int.clear touched;
    on_delete live ~v ~apply:(fun u delta ->
        degs.(u) <- degs.(u) - delta;
        if stamp.(u) <> v then begin
          stamp.(u) <- v;
          Dsd_util.Vec.Int.push touched u
        end);
    Dsd_graph.Subgraph.delete live v;
    degs.(v) <- 0;
    Dsd_util.Vec.Int.iter
      (fun u ->
        if Dsd_util.Lazy_heap.mem heap u then
          Dsd_util.Lazy_heap.update heap ~item:u ~key:degs.(u))
      touched;
    killed
  in
  (psize_sum, retire, heap)

let decompose ?(track_density = true) g (psi : P.t) =
  Dsd_obs.Span.with_ Dsd_obs.Phase.decompose @@ fun () ->
  let n = G.n g in
  let core_arr, order, kmax, best_density, best_start, best_count, residuals,
      mu_total =
    match psi.kind with
    | P.Star x ->
      let sum, retire, heap =
        decompose_special g
          ~degrees_of:(fun live -> Dsd_pattern.Special.star_degrees live ~x)
          ~on_delete:(fun live ~v ~apply ->
            Dsd_pattern.Special.star_on_delete live ~x ~v ~apply)
      in
      let mu_total = sum / psi.size in
      let core, order, kmax, bd, bs, bc, residuals =
        peel ~n ~mu_total ~track_density
          ~pop:(fun () -> Dsd_util.Lazy_heap.pop_min heap)
          ~retire
      in
      (core, order, kmax, bd, bs, bc, residuals, mu_total)
    | P.Cycle4 ->
      let sum, retire, heap =
        decompose_special g
          ~degrees_of:Dsd_pattern.Special.c4_degrees
          ~on_delete:(fun live ~v ~apply ->
            Dsd_pattern.Special.c4_on_delete live ~v ~apply)
      in
      let mu_total = sum / 4 in
      let core, order, kmax, bd, bs, bc, residuals =
        peel ~n ~mu_total ~track_density
          ~pop:(fun () -> Dsd_util.Lazy_heap.pop_min heap)
          ~retire
      in
      (core, order, kmax, bd, bs, bc, residuals, mu_total)
    | P.Clique | P.Generic -> decompose_generic ~track_density g psi
  in
  {
    psi;
    core = core_arr;
    kmax;
    order;
    mu_total;
    best_residual_density = best_density;
    best_residual_start = best_start;
    best_residual_count = best_count;
    residual_densities = residuals;
  }

let core_vertices t ~k =
  let out = Dsd_util.Vec.Int.create () in
  Array.iteri (fun v c -> if c >= k then Dsd_util.Vec.Int.push out v) t.core;
  Dsd_util.Vec.Int.to_array out

let kmax_core t = core_vertices t ~k:t.kmax

let best_residual t =
  let len = Array.length t.order - t.best_residual_start in
  let vs = Array.sub t.order t.best_residual_start len in
  Array.sort compare vs;
  vs
