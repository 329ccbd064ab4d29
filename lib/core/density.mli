(** Density functions (Definitions 1, 4 and 10) and the result type
    shared by every DSD algorithm. *)

(** A candidate densest subgraph: original-graph vertex ids plus its
    exact Psi-density. *)
type subgraph = {
  vertices : int array;  (** sorted original ids; empty if none found *)
  density : float;       (** rho(G[vertices], Psi); 0 when empty *)
}

(** [edge_density g] = m / n (Definition 1); 0 on the empty graph. *)
val edge_density : Dsd_graph.Graph.t -> float

(** [pattern_density g psi] = mu(G, Psi) / n (Definitions 4/10). *)
val pattern_density : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> float

(** [of_vertices g psi vs] evaluates the Psi-density of the subgraph of
    [g] induced by [vs] and packages it with [vs] sorted and duplicates
    dropped. *)
val of_vertices : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int array -> subgraph

(** The empty result. *)
val empty : subgraph

(** [better a b] keeps the denser of the two (ties favour [a]). *)
val better : subgraph -> subgraph -> subgraph

(** [min_gap n] = 1 / (n (n-1)): a lower bound on the difference of any
    two distinct subgraph densities (Lemma 12). *)
val min_gap : int -> float

(** [stop_gap n] = [min_gap n / 2]: the binary-search stopping width.
    Halving the theoretical gap keeps termination correct while
    guarding against the float-rounding tie where [u - l] lands exactly
    on the gap and the search would stop one iteration short of the
    optimum. *)
val stop_gap : int -> float
