(** PeelApp — Algorithm 2: Charikar/Tsourakakis greedy peeling.

    Removes the minimum-Psi-degree vertex for n rounds and returns the
    densest residual graph; a deterministic 1/|V_Psi|-approximation
    (Lemma 10).  Implemented as the density-tracking mode of the shared
    peel engine, so the returned subgraph is exactly the best peel
    suffix. *)

type result = {
  subgraph : Density.subgraph;
  mu : int;
  elapsed_s : float;
}

val run : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> result
