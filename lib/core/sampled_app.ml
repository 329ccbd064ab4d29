module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern

type result = {
  subgraph : Density.subgraph;
  sampled_instances : int;
  total_instances : int;
  elapsed_s : float;
}

let run ?(core_first = true) ~seed ~p g (psi : P.t) =
  if not (p > 0. && p <= 1.) then invalid_arg "Sampled_app.run: p must be in (0, 1]";
  let t0 = Dsd_util.Timer.now_s () in
  let rng = Dsd_util.Prng.create seed in
  (* Candidate region: the whole graph, or the core certified to
     contain the CDS. *)
  let region, map =
    if core_first then begin
      let decomp = Clique_core.decompose ~track_density:false g psi in
      let k =
        (decomp.Clique_core.kmax + psi.size - 1) / psi.size   (* ceil(kmax/p) *)
      in
      G.induced g (Clique_core.core_vertices decomp ~k)
    end
    else (g, Array.init (G.n g) Fun.id)
  in
  let all = Enumerate.instances region psi in
  let sample =
    Dsd_clique.Instances.filter all ~keep:(fun _ ->
        Dsd_util.Prng.float rng 1.0 < p)
  in
  let subgraph =
    if sample.count = 0 then Density.empty
    else begin
      (* The shared peel on the sample; its best residual suffix under
         the sampled density is re-scored against the full graph. *)
      let local =
        Clique_core.best_residual
          (Clique_core.peel_canonical ~track_density:true
             (Clique_core.of_instances ~n:(G.n region) sample))
      in
      Density.of_vertices g psi (Array.map (fun v -> map.(v)) local)
    end
  in
  { subgraph;
    sampled_instances = sample.count;
    total_instances = all.count;
    elapsed_s = Dsd_util.Timer.now_s () -. t0 }
