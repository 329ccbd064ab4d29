type result = {
  subgraph : Density.subgraph;
  kmax : int;
  elapsed_s : float;
}

let run g psi =
  let t0 = Dsd_util.Timer.now_s () in
  let decomp = Clique_core.decompose ~track_density:false g psi in
  let subgraph =
    if decomp.Clique_core.mu_total = 0 then Density.empty
    else
      Density.of_count (Clique_core.kmax_core decomp)
        decomp.Clique_core.kmax_count
  in
  { subgraph;
    kmax = decomp.Clique_core.kmax;
    elapsed_s = Dsd_util.Timer.now_s () -. t0 }
