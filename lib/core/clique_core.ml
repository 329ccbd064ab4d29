module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module IS = Dsd_clique.Instance_store

type t = {
  core : int array;
  kmax : int;
  kmax_count : int;
  order : int array;
  mu_total : int;
  best_residual_density : float;
  best_residual_start : int;
  best_residual_count : int;
  residual_densities : float array;
}

(* Shared peel skeleton.  [pop] yields the next vertex with its degree;
   [retire v] kills v's live instances, returning how many died, and
   updates co-member degrees (and whatever priority structure backs
   [pop]).  Core numbers are the running maximum of the popped degrees,
   so the (kmax, Psi)-core is the suffix from the pop where that
   maximum last rises, and the live count there is its instance
   count. *)
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
  let kmax_count = ref mu_total in
  for i = 0 to n - 1 do
    match pop () with
    | None -> assert false
    | Some (v, deg) ->
      Dsd_obs.Counter.incr Dsd_obs.Counter.Peeled_vertices;
      if deg > !run_max then begin
        run_max := deg;
        kmax_count := !mu_live
      end;
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
  {
    core;
    kmax = !run_max;
    kmax_count = !kmax_count;
    order;
    mu_total;
    best_residual_density = (if track_density then !best_density else 0.);
    best_residual_start = (if track_density then !best_start else 0);
    best_residual_count = (if track_density then !best_count else 0);
    residual_densities = residuals;
  }

(* Live instance-degrees and vertex retirement, from a materialised
   instance store or, for h = 2, straight off the CSR: there a vertex's
   live edges are its edges to unretired neighbours, so the degree
   array and a retired mask are the whole state.  [deg] is the store's
   own degree array or the CSR engine's, so the peel reads degrees
   without a dispatch. *)
type source =
  | Store of IS.t
  | Edges of {
      g : G.t;
      retired : Bytes.t;
      rank : int array Lazy.t;  (* kClist's degeneracy rank, for [kill] *)
    }

type engine = { n : int; deg : int array; source : source }

let of_instances ~n instances =
  let store = IS.create ~n instances in
  { n; deg = IS.degrees store; source = Store store }

let engine g (psi : P.t) =
  let n = G.n g in
  if psi.kind = P.Clique && psi.size = 2 then
    { n;
      deg = G.degrees g;
      source =
        Edges
          { g;
            retired = Bytes.make n '\000';
            rank = lazy (Dsd_graph.Degeneracy.compute g).rank } }
  else of_instances ~n (Enumerate.instances g psi)

let total e =
  match e.source with Store store -> IS.total store | Edges { g; _ } -> G.m g

let degree e v = e.deg.(v)

(* One walk of v's CSR row, retiring the live edges to the neighbours
   that [pick] accepts. *)
let retire_edges g deg retired v ~pick ~on_comember killed =
  Bytes.set retired v '\001';
  deg.(v) <- 0;
  G.fold_neighbors g v ~init:killed ~f:(fun killed u ->
      if pick u && Bytes.get retired u = '\000' then begin
        deg.(u) <- deg.(u) - 1;
        on_comember u;
        killed + 1
      end
      else killed)

(* Co-members in whatever order the engine meets them. *)
let kill_any e v ~on_comember =
  match e.source with
  | Store store -> IS.kill_vertex store v ~on_comember
  | Edges { g; retired; _ } ->
    retire_edges g e.deg retired v ~pick:(fun _ -> true) ~on_comember 0

(* Co-members in the order of the instance ids of [Enumerate.instances],
   as the store reports them.  kClist lists edge {u, w} in the block of
   its lower-ranked endpoint, blocks by ascending id and targets
   ascending within one, so v's edges come as its lower-ranked
   neighbours below v, then v's own block, then its lower-ranked
   neighbours above v. *)
let kill e v ~on_comember =
  match e.source with
  | Store _ -> kill_any e v ~on_comember
  | Edges { g; retired; rank } ->
    let rank = Lazy.force rank in
    let r = rank.(v) in
    let walk pick = retire_edges g e.deg retired v ~pick ~on_comember in
    walk (fun u -> rank.(u) < r && u < v) 0
    |> walk (fun u -> rank.(u) > r)
    |> walk (fun u -> rank.(u) < r && u > v)

let reset e =
  match e.source with
  | Store store -> IS.reset store
  | Edges { g; retired; _ } ->
    Bytes.fill retired 0 (Bytes.length retired) '\000';
    Array.iteri (fun v _ -> e.deg.(v) <- G.degree g v) e.deg

(* Round-synchronous (bucket-free) peel over an engine — the canonical
   peel for clique/generic patterns.

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
   next sub-round, sorted, so the order does not depend on the order in
   which an engine reports co-members; when none fall, k rises to the
   minimum live degree.  [pop] walks this order on the shared skeleton,
   reporting each vertex at level k, whose running maximum is k
   itself. *)
let peel_canonical ?(on_peel = fun _ _ -> ()) ~track_density e =
  let module V = Dsd_util.Vec.Int in
  let n = e.n and deg = e.deg in
  (* A vertex leaves the live set when it joins a frontier. *)
  let live = Array.make n true in
  let k = ref 0 in
  (* Survivors, compacted in place per level so the level scans cost
     O(live) rather than O(n); compaction keeps them ascending. *)
  let active = Array.init n Fun.id and active_n = ref n in
  let cascade = V.create () in
  let on_comember u =
    if live.(u) && deg.(u) <= !k then begin
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
          let d = deg.(v) in
          if d < !k then k := d
        end
      done;
      active_n := !kept;
      for i = 0 to !active_n - 1 do
        let v = active.(i) in
        if deg.(v) <= !k then begin
          live.(v) <- false;
          V.push cascade v
        end
      done
    end;
    let fr = V.to_array cascade in
    V.clear cascade;
    (* A cascade arrives in the engine's co-member order; a level's
       frontier is collected ascending already. *)
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
    let killed = kill_any e v ~on_comember in
    on_peel v killed;
    killed
  in
  peel ~n ~mu_total:(total e) ~track_density ~pop ~retire

(* Star / 4-cycle engine: closed-form degrees, decrement rules, lazy
   heap (degrees like C(d, x) overflow a bucket array). *)
let peel_special ~track_density g ~size ~degrees_of ~on_delete =
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
  peel ~n ~mu_total:(psize_sum / size) ~track_density
    ~pop:(fun () -> Dsd_util.Lazy_heap.pop_min heap)
    ~retire

let decompose ?(track_density = true) g (psi : P.t) =
  Dsd_obs.Span.with_ Dsd_obs.Phase.decompose @@ fun () ->
  match psi.kind with
  | P.Star x ->
    peel_special ~track_density g ~size:psi.size
      ~degrees_of:(fun live -> Dsd_pattern.Special.star_degrees live ~x)
      ~on_delete:(fun live ~v ~apply ->
        Dsd_pattern.Special.star_on_delete live ~x ~v ~apply)
  | P.Cycle4 ->
    peel_special ~track_density g ~size:psi.size
      ~degrees_of:Dsd_pattern.Special.c4_degrees
      ~on_delete:(fun live ~v ~apply ->
        Dsd_pattern.Special.c4_on_delete live ~v ~apply)
  | P.Clique | P.Generic -> peel_canonical ~track_density (engine g psi)

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
