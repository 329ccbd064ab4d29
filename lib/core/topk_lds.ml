module G = Dsd_graph.Graph

type stats = {
  rounds : int;
  iterations : int;
  elapsed_s : float;
}

type result = {
  regions : Density.subgraph list;
  stats : stats;
}

(* The vertices of G[rest] a densest subset of it can use: the
   ceil(rho')-core — every densest subset S has instance-degree
   >= ceil(rho_opt) >= ceil(rho') inside S, so S survives peeling to
   that level.  None when G[rest] holds no instance. *)
let candidates ~decomp g psi rest =
  let gr, map_r = G.induced g rest in
  let d =
    match decomp with
    | Some d
      when Array.length d.Clique_core.residual_densities > 0
           || d.Clique_core.mu_total = 0 ->
      d
    | _ -> Clique_core.decompose ~track_density:true gr psi
  in
  if d.Clique_core.mu_total = 0 then None
  else begin
    let size = Array.length d.Clique_core.order - d.Clique_core.best_residual_start in
    let k = max 1 (Density.ceil_ratio d.Clique_core.best_residual_count size) in
    Some (Array.map (Array.get map_r) (Clique_core.core_vertices d ~k))
  end

(* One extraction round: the maximal densest subgraph of G[rest], from
   one exact search over the candidate set that starts at the set's own
   density (the set itself is the region when no side beats it). *)
let round ~decomp g psi rest ~iterations =
  match candidates ~decomp g psi rest with
  | None -> None
  | Some set ->
    let arena =
      Parametric.arena ~within:set (Parametric.pinned_family psi) g psi
    in
    let total = Parametric.total arena in
    if total = 0 then None
    else begin
      let side, c = Parametric.dinkelbach arena (set, total) in
      iterations := !iterations + Parametric.probes arena;
      Some (Density.of_count side c)
    end

let run ?decomp ~k g psi =
  if k < 1 then invalid_arg "Topk_lds: k must be >= 1";
  Dsd_obs.Span.with_ Dsd_obs.Phase.topk @@ fun () ->
  let t0 = Dsd_util.Timer.now_s () in
  let n = G.n g in
  let iterations = ref 0 in
  let rounds = ref 0 in
  let remaining = Array.make n true in
  let regions = ref [] in
  let stop = ref (n = 0) in
  while (not !stop) && List.length !regions < k do
    incr rounds;
    Dsd_obs.Counter.incr Dsd_obs.Counter.Topk_rounds;
    let rest = List.filter (Array.get remaining) (List.init n Fun.id) in
    let rest = Array.of_list rest in
    (* A caller-supplied decomposition describes the full graph, so it
       only matches the first round. *)
    let decomp = if !rounds = 1 then decomp else None in
    match round ~decomp g psi rest ~iterations with
    | None -> stop := true
    | Some region ->
      regions := region :: !regions;
      Dsd_obs.Counter.incr Dsd_obs.Counter.Topk_regions;
      Array.iter (fun v -> remaining.(v) <- false) region.Density.vertices;
      if Array.length region.Density.vertices = Array.length rest then
        stop := true
  done;
  { regions = List.rev !regions;
    stats =
      { rounds = !rounds;
        iterations = !iterations;
        elapsed_s = Dsd_util.Timer.now_s () -. t0 } }
