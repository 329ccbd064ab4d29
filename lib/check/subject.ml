type subgraph = Dsd_core.Density.subgraph

type t = {
  name : string;
  exact : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
  core_exact : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
  peel : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
  inc_app : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
  core_app : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
  core_numbers : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int array;
}

let default =
  {
    name = "library";
    exact = (fun g psi -> (Dsd_core.Exact.run g psi).Dsd_core.Exact.subgraph);
    core_exact =
      (fun g psi -> (Dsd_core.Core_exact.run g psi).Dsd_core.Core_exact.subgraph);
    peel = (fun g psi -> (Dsd_core.Peel_app.run g psi).Dsd_core.Peel_app.subgraph);
    inc_app =
      (fun g psi -> (Dsd_core.Inc_app.run g psi).Dsd_core.Inc_app.subgraph);
    core_app =
      (fun g psi -> (Dsd_core.Core_app.run g psi).Dsd_core.Core_app.subgraph);
    core_numbers =
      (fun g psi ->
        (Dsd_core.Clique_core.decompose ~track_density:false g psi)
          .Dsd_core.Clique_core.core);
  }

let kmax t g psi = Array.fold_left max 0 (t.core_numbers g psi)
