module G = Dsd_graph.Graph

type stats = {
  iterations : int;
  last_network_nodes : int;
  mu : int;
  elapsed_s : float;
}

type result = {
  subgraph : Density.subgraph;
  stats : stats;
}

let run ?family ?instances ?prepared g psi =
  Dsd_obs.Span.with_ Dsd_obs.Phase.exact @@ fun () ->
  let t0 = Dsd_util.Timer.now_s () in
  let n = G.n g in
  let family =
    match family with
    | Some f -> f
    | None -> Flow_build.auto_family psi
  in
  (* The network is built on the first probe and only re-capacitated
     later.  A caller-owned [?prepared] slot survives this call, so a
     server answering the same (g, psi) twice pays the build once. *)
  let arena = Parametric.arena ?instances ?slot:prepared family g psi in
  let mu = Parametric.total arena in
  let best =
    if n = 0 || mu = 0 then Density.empty
    else
      (* Algorithm 1 as one exact search from V itself. *)
      let side, c = Parametric.dinkelbach arena (Array.init n Fun.id, mu) in
      Density.of_count side c
  in
  let iterations = Parametric.probes arena in
  Dsd_obs.Counter.add Dsd_obs.Counter.Core_iterations iterations;
  { subgraph = best;
    stats =
      { iterations;
        last_network_nodes = Parametric.nodes arena;
        mu;
        elapsed_s = Dsd_util.Timer.now_s () -. t0 } }
