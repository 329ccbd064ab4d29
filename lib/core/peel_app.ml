type result = {
  subgraph : Density.subgraph;
  mu : int;
  elapsed_s : float;
}

let run g psi =
  Dsd_obs.Span.with_ Dsd_obs.Phase.peel_app @@ fun () ->
  let t0 = Dsd_util.Timer.now_s () in
  let decomp = Clique_core.decompose ~track_density:true g psi in
  let subgraph =
    if decomp.Clique_core.mu_total = 0 then Density.empty
    else
      { Density.vertices = Clique_core.best_residual decomp;
        density = decomp.Clique_core.best_residual_density }
  in
  { subgraph;
    mu = decomp.Clique_core.mu_total;
    elapsed_s = Dsd_util.Timer.now_s () -. t0 }
