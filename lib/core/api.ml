type algorithm =
  | Exact_flow
  | Core_exact
  | Peel
  | Inc_app
  | Core_app

let algorithm_name = function
  | Exact_flow -> "Exact"
  | Core_exact -> "CoreExact"
  | Peel -> "PeelApp"
  | Inc_app -> "IncApp"
  | Core_app -> "CoreApp"

let densest_subgraph ?(psi = Dsd_pattern.Pattern.edge)
    ?(algorithm = Core_exact) g =
  match algorithm with
  | Exact_flow -> (Exact.run g psi).subgraph
  | Core_exact -> (Core_exact.run g psi).subgraph
  | Peel -> (Peel_app.run g psi).subgraph
  | Inc_app -> (Inc_app.run g psi).subgraph
  | Core_app -> (Core_app.run g psi).subgraph

let core_numbers g psi =
  (Clique_core.decompose ~track_density:false g psi).Clique_core.core

let kmax_core g psi = (Inc_app.run g psi).subgraph
