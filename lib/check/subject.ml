type subgraph = Dsd_core.Density.subgraph

type t = {
  name : string;
  exact :
    ?pool:Dsd_util.Pool.t ->
    Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
  core_exact :
    ?pool:Dsd_util.Pool.t ->
    Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
  peel :
    ?pool:Dsd_util.Pool.t ->
    Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
  inc_app :
    ?pool:Dsd_util.Pool.t ->
    Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
  core_app :
    ?pool:Dsd_util.Pool.t ->
    Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
  core_numbers :
    ?pool:Dsd_util.Pool.t ->
    Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int array;
}

let default =
  {
    name = "library";
    exact =
      (fun ?pool g psi ->
        (Dsd_core.Exact.run ?pool g psi).Dsd_core.Exact.subgraph);
    core_exact =
      (fun ?pool g psi ->
        (Dsd_core.Core_exact.run ?pool g psi).Dsd_core.Core_exact.subgraph);
    peel =
      (fun ?pool g psi ->
        (Dsd_core.Peel_app.run ?pool g psi).Dsd_core.Peel_app.subgraph);
    inc_app =
      (fun ?pool g psi ->
        (Dsd_core.Inc_app.run ?pool g psi).Dsd_core.Inc_app.subgraph);
    core_app =
      (fun ?pool g psi ->
        (Dsd_core.Core_app.run ?pool g psi).Dsd_core.Core_app.subgraph);
    core_numbers =
      (fun ?pool g psi ->
        (Dsd_core.Clique_core.decompose ?pool ~track_density:false g psi)
          .Dsd_core.Clique_core.core);
  }

let kmax t g psi = Array.fold_left max 0 (t.core_numbers g psi)
