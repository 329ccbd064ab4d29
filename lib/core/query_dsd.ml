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

(* The pinned arena over G[within] (default all of g): the min cut
   maximises c(S) - alpha |S| over S containing the query.  Pinned arcs
   are alpha-independent, so the network is built once. *)
let arena ?pool ?within g psi ~query =
  Parametric.arena ?pool ?within ~pinned:query (Parametric.pinned_family psi)
    g psi

(* The exact search from the witness [(vertices, c)], which must contain
   the query and lie in the arena: the last side that beats its probe
   is the maximal densest set containing the query. *)
let search arena witness =
  let side, c = Parametric.dinkelbach arena witness in
  (Density.of_count side c, Parametric.probes arena)

let timed f =
  let t0 = Dsd_util.Timer.now_s () in
  let subgraph, iterations = f () in
  { subgraph; iterations; elapsed_s = Dsd_util.Timer.now_s () -. t0 }

let run_naive ?pool g psi ~query =
  validate g query;
  timed @@ fun () ->
  let a = arena ?pool g psi ~query in
  let mu = Parametric.total a in
  if mu = 0 then (Density.of_vertices g psi query, 0)
  else search a (Array.init (G.n g) Fun.id, mu)

let run ?pool ?decomp g psi ~query =
  validate g query;
  timed @@ fun () ->
  (* Only [core] and [mu_total] are read below, and those are identical
     whether or not the decomposition tracked densities — so a cached
     decomposition from the serving layer drops in directly. *)
  let decomp =
    match decomp with
    | Some d -> d
    | None -> Clique_core.decompose ?pool ~track_density:false g psi
  in
  if decomp.Clique_core.mu_total = 0 then (Density.of_vertices g psi query, 0)
  else begin
    (* x = minimum clique-core number over the query: the x-core is the
       densest core certain to contain Q. *)
    let x =
      Array.fold_left
        (fun acc q -> min acc decomp.Clique_core.core.(q))
        max_int query
    in
    (* The x-core contains Q and has density >= x / |V_Psi| (Theorem 1):
       the start witness. *)
    let x_core = Clique_core.core_vertices decomp ~k:x in
    let c = Density.count g psi x_core in
    (* The optimum S lives in the min(ceil(rho(x-core)), x)-core: S's
       non-query vertices have at least ceil(rho_opt) instances inside
       S, and Q survives any peeling up to level x. *)
    let n_x = Array.length x_core in
    let k_loc = min x (Density.ceil_ratio c n_x) in
    let within = Clique_core.core_vertices decomp ~k:k_loc in
    search (arena ?pool ~within g psi ~query) (x_core, c)
  end
