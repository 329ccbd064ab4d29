module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern

type result = {
  subgraph : Density.subgraph;
  iterations : int;
  elapsed_s : float;
}

let validate g query =
  if Array.length query = 0 then invalid_arg "Query_dsd: empty query";
  Array.iter
    (fun q ->
      if q < 0 || q >= G.n g then invalid_arg "Query_dsd: query vertex out of range")
    query

(* Binary search with query vertices pinned to the source side.  The
   min cut maximises mu(A1) - alpha |A1| over A1 containing the query,
   so the decision "exists S containing Q with density > alpha" is read
   off the exact density of the returned side (which is itself the
   witness).  Pinned arcs are alpha-independent, so the pinned network
   retargets like any other: built once, re-capacitated per
   iteration. *)
let search ?pool ?warm g psi ~query ~candidates ~l0 ~u0 ~witness0 ~iterations =
  let gc, map = G.induced g candidates in
  let back = Array.make (G.n g) (-1) in
  Array.iteri (fun i v -> back.(v) <- i) map;
  let pinned = Array.map (fun q -> back.(q)) query in
  (* Candidates must cover the query (the k_loc-core does by
     construction). *)
  assert (Array.for_all (fun q -> q >= 0) pinned);
  let instances = Enumerate.instances ?pool gc psi in
  let arena =
    Parametric.arena ?pool ~pinned ?warm (Parametric.pinned_family psi) gc psi
      ~instances
  in
  let best = ref witness0 in
  Parametric.bisect
    ~gap:(Fun.const (Density.stop_gap (G.n gc)))
    ~l:(max l0 witness0.Density.density) ~u:u0
    (fun alpha ->
      incr iterations;
      let side = Parametric.probe arena alpha in
      let cand =
        Density.of_vertices g psi (Array.map (fun v -> map.(v)) side)
      in
      if cand.Density.density > alpha then begin
        best := cand;
        Some cand.Density.density
      end
      else None);
  !best

let run_naive ?pool ?warm g psi ~query =
  validate g query;
  let t0 = Dsd_util.Timer.now_s () in
  let iterations = ref 0 in
  let everything = Array.init (G.n g) Fun.id in
  let u0 = float_of_int (Enumerate.max_degree ?pool g psi) in
  let witness0 = Density.of_vertices g psi everything in
  let best =
    if u0 = 0. then Density.of_vertices g psi query
    else
      search ?pool ?warm g psi ~query ~candidates:everything ~l0:0. ~u0
        ~witness0 ~iterations
  in
  { subgraph = best; iterations = !iterations; elapsed_s = Dsd_util.Timer.now_s () -. t0 }

let run ?pool ?warm ?decomp g psi ~query =
  validate g query;
  let t0 = Dsd_util.Timer.now_s () in
  let iterations = ref 0 in
  (* Only [core] and [mu_total] are read below, and those are identical
     whether or not the decomposition tracked densities — so a cached
     decomposition from the serving layer drops in directly. *)
  let decomp =
    match decomp with
    | Some d -> d
    | None -> Clique_core.decompose ?pool ~track_density:false g psi
  in
  (* x = minimum clique-core number over the query: the x-core is the
     densest core certain to contain Q. *)
  let x =
    Array.fold_left
      (fun acc q -> min acc decomp.Clique_core.core.(q))
      max_int query
  in
  let p = psi.P.size in
  let x_core = Clique_core.core_vertices decomp ~k:x in
  (* The x-core contains Q and has density >= x/p (Theorem 1): both a
     lower bound and an initial witness. *)
  let witness0 = Density.of_vertices g psi x_core in
  let l0 = max (float_of_int x /. float_of_int p) witness0.Density.density in
  (* Optimal S lives in the min(ceil(l), x)-core: S's non-query
     vertices have at least ceil(rho_opt) instances inside S, and Q
     survives any peeling up to level x. *)
  let k_loc = min x (max 0 (Dsd_util.Float_guard.safe_ceil l0)) in
  let candidates = Clique_core.core_vertices decomp ~k:k_loc in
  let u0 =
    float_of_int
      (Array.fold_left
         (fun acc v -> max acc decomp.Clique_core.core.(v))
         0 candidates)
  in
  let best =
    if decomp.Clique_core.mu_total = 0 then Density.of_vertices g psi query
    else search ?pool ?warm g psi ~query ~candidates ~l0 ~u0 ~witness0 ~iterations
  in
  { subgraph = best; iterations = !iterations; elapsed_s = Dsd_util.Timer.now_s () -. t0 }
