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

let densest_subgraph ?pool ?(psi = Dsd_pattern.Pattern.edge)
    ?(algorithm = Core_exact) g =
  match algorithm with
  | Exact_flow -> (Exact.run ?pool g psi).subgraph
  | Core_exact -> (Core_exact.run ?pool g psi).subgraph
  | Peel -> (Peel_app.run ?pool g psi).subgraph
  | Inc_app -> (Inc_app.run ?pool g psi).subgraph
  | Core_app -> (Core_app.run ?pool g psi).subgraph

let core_numbers ?pool g psi =
  (Clique_core.decompose ?pool ~track_density:false g psi).Clique_core.core

let kmax_core ?pool g psi = (Inc_app.run ?pool g psi).subgraph
