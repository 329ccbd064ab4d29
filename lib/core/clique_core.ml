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
   canonical engine for clique/generic patterns, sequential and
   parallel alike.

   Threshold peeling's core numbers are order-independent: core(v) is
   the largest k such that v survives deleting everything of
   instance-degree < k, however ties are broken.  So instead of
   popping one minimum at a time, each level k removes the entire
   cascade of vertices whose live degree falls to <= k, in batched
   sub-rounds; every removed vertex gets core number k, which is
   exactly what a sequential bucket peel's running maximum assigns.

   The canonical peel order: each sub-round's frontier is linearised
   in ascending vertex id.  Under that linearisation the number of
   instances vertex v retires at its own removal step — and hence its
   live degree at removal time — equals the number of live instances
   whose minimum in-frontier member is v (every instance with a
   smaller in-frontier member died at that earlier member's step).
   Those "owned counts" come out of a read-only scan, so the
   per-step residual densities of Pruning1 (and Greedy++'s load
   updates, via [on_peel]) are computed exactly, without any
   sequential re-walk.  Peeling whole levels keeps the Theorem 3/4
   guarantees: at the first position of level k the residual graph has
   minimum degree k, so the best level-boundary suffix already attains
   the rho*/|Psi| bound PeelApp needs.

   Parallel structure per sub-round: the scan that maps each frontier
   vertex to the live instances it owns fans out across the pool;
   mutations (liveness bits, degree decrements, the next sub-frontier)
   are applied sequentially from the chunk-ordered scan results.
   Ownership (minimum in-frontier member — member slices are sorted)
   is a pure function of sub-round-start state, so it needs no
   synchronisation to agree across domains.  Chunk sizes are fixed
   constants, hence boundaries — and with them every merged result —
   are independent of the pool size: the transcript is bit-identical
   from one domain to as many as the hardware has. *)
let peel_store ?pool ?(on_peel = fun _ _ -> ()) ~track_density ~n store =
  let module IS = Dsd_clique.Instance_store in
  (* Fixed chunk sizes: scan results merge in chunk order, and with
     boundaries independent of the pool size the peel order is the
     same for every domain count. *)
  let scan_chunk = 4096 and frontier_chunk = 256 in
  let map_chunks ~chunk ~n f =
    match pool with
    | Some pool -> Dsd_util.Pool.map_chunks pool ~chunk ~n f
    | None ->
      if n = 0 then [||]
      else
        Array.init
          ((n + chunk - 1) / chunk)
          (fun c ->
            let lo = c * chunk in
            f lo (min n (lo + chunk)))
  in
  let core = Array.make n 0 in
  let order = Array.make n 0 in
  let mu_total = IS.total store in
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
  let pos = ref 0 in
  let alive = Array.make n true in
  let in_frontier = Array.make n false in
  let queued = Array.make n false in
  let k = ref 0 in
  let kmax = ref 0 in
  (* Survivors, compacted per level so the level scans cost O(live)
     rather than O(n); filtering preserves ascending order. *)
  let active = ref (Array.init n (fun v -> v)) in
  while !pos < n do
    let act = !active in
    let an = Array.length act in
    (* Next level: the minimum live degree (strictly above the level
       just drained, so k advances past empty levels in one step). *)
    let level =
      Array.fold_left min max_int
        (map_chunks ~chunk:scan_chunk ~n:an (fun lo hi ->
             let m = ref max_int in
             for idx = lo to hi - 1 do
               let v = act.(idx) in
               if alive.(v) then begin
                 let d = IS.degree store v in
                 if d < !m then m := d
               end
             done;
             !m))
    in
    assert (level < max_int);
    k := level;
    kmax := level;
    let frontier =
      ref
        (Array.concat
           (Array.to_list
              (map_chunks ~chunk:scan_chunk ~n:an (fun lo hi ->
                   let out = Dsd_util.Vec.Int.create () in
                   for idx = lo to hi - 1 do
                     let v = act.(idx) in
                     if alive.(v) && IS.degree store v <= !k then
                       Dsd_util.Vec.Int.push out v
                   done;
                   Dsd_util.Vec.Int.to_array out))))
    in
    while Array.length !frontier > 0 do
      let fr = !frontier in
      let fn = Array.length fr in
      Array.iter (fun v -> in_frontier.(v) <- true) fr;
      (* Read-only ownership scan: liveness and degrees are not
         mutated until the kill lists and owned counts are complete. *)
      let scans =
        map_chunks ~chunk:frontier_chunk ~n:fn (fun lo hi ->
            let kills = Dsd_util.Vec.Int.create () in
            let owned = Array.make (hi - lo) 0 in
            for idx = lo to hi - 1 do
              let v = fr.(idx) in
              IS.iter_live_of_vertex store v ~f:(fun i ->
                  let rec owner j =
                    let u = IS.member store i j in
                    if in_frontier.(u) then u else owner (j + 1)
                  in
                  if owner 0 = v then begin
                    owned.(idx - lo) <- owned.(idx - lo) + 1;
                    Dsd_util.Vec.Int.push kills i
                  end)
            done;
            (kills, owned))
      in
      (* Linearised removal in ascending id order (fr is sorted):
         vertex bookkeeping, density tracking and the on_peel hook see
         exactly the sequential one-at-a-time transcript. *)
      Array.iteri
        (fun c (_, owned) ->
          let lo = c * frontier_chunk in
          Array.iteri
            (fun d cnt ->
              let v = fr.(lo + d) in
              let i = !pos in
              alive.(v) <- false;
              core.(v) <- !k;
              order.(i) <- v;
              pos := i + 1;
              Dsd_obs.Counter.incr Dsd_obs.Counter.Peeled_vertices;
              on_peel v cnt;
              mu_live := !mu_live - cnt;
              if track_density && i < n - 1 then begin
                let d = float_of_int !mu_live /. float_of_int (n - i - 1) in
                residuals.(i + 1) <- d;
                if d > !best_density then begin
                  best_density := d;
                  best_start := i + 1;
                  best_count := !mu_live
                end
              end)
            owned)
        scans;
      (* Store mutation: retire owned instances, decrement co-member
         degrees, and queue the cascade that fell to <= k. *)
      let next = Dsd_util.Vec.Int.create () in
      Array.iter
        (fun (kills, _) ->
          Dsd_util.Vec.Int.iter
            (fun i ->
              IS.kill_instance_with store i ~on_comember:(fun u ->
                  if
                    alive.(u) && (not queued.(u)) && IS.degree store u <= !k
                  then begin
                    queued.(u) <- true;
                    Dsd_util.Vec.Int.push next u
                  end))
            kills)
        scans;
      Array.iter (fun v -> in_frontier.(v) <- false) fr;
      let nf = Dsd_util.Vec.Int.to_array next in
      (* Cascade discovery order depends on posting layout; sorting
         restores the canonical ascending linearisation. *)
      Array.sort compare nf;
      Array.iter (fun v -> queued.(v) <- false) nf;
      frontier := nf
    done;
    if !pos < n then begin
      let out = Dsd_util.Vec.Int.create ~capacity:(Array.length act) () in
      Array.iter
        (fun v -> if alive.(v) then Dsd_util.Vec.Int.push out v)
        act;
      active := Dsd_util.Vec.Int.to_array out
    end
  done;
  assert (!mu_live = 0);
  ( core,
    order,
    !kmax,
    (if track_density then !best_density else 0.),
    (if track_density then !best_start else 0),
    (if track_density then !best_count else 0),
    residuals )

let decompose_generic ?pool ~track_density g psi =
  let n = G.n g in
  let insts = Enumerate.instances ?pool g psi in
  let store = Dsd_clique.Instance_store.create ~n insts in
  let mu_total = Dsd_clique.Instance_store.total store in
  let core, order, kmax, bd, bs, bc, residuals =
    peel_store ?pool ~track_density ~n store
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

let decompose ?pool ?(track_density = true) g (psi : P.t) =
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
    | P.Clique | P.Generic -> decompose_generic ?pool ~track_density g psi
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
