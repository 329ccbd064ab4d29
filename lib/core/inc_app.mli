(** IncApp — Algorithm 5: run the full (k, Psi)-core decomposition and
    return the (kmax, Psi)-core, a deterministic
    1/|V_Psi|-approximation (Lemma 8).  Skips PeelApp's per-round
    density bookkeeping. *)

type result = {
  subgraph : Density.subgraph;  (** the (kmax, Psi)-core with its exact density *)
  kmax : int;
  elapsed_s : float;
}

val run : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> result
