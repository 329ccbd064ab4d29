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

(** [count g psi vs] is c(S) = mu(G[vs], Psi), the instance count of
    the vertex set [vs]. *)
val count : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int array -> int

(** [of_count vs c] is the subgraph on [vs] (sorted, without
    duplicates) whose instance count is [c]: its density is the one
    int division [c / |vs|], so equal rationals give equal bits. *)
val of_count : int array -> int -> subgraph

(** [ceil_ratio c n] is ceil(c / n) for [c >= 0] and [n > 0], in
    integers: the lowest core level that still holds every set at
    least as dense as c / n. *)
val ceil_ratio : int -> int -> int

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

(** [stop_gap n] = [min_gap n / 2]: the stopping width of the float
    bisections ({!Inc_dsd}, the reference searches of
    [Dsd_check.Oracle]).  Halving the theoretical gap keeps termination correct while
    guarding against the float-rounding tie where [u - l] lands exactly
    on the gap and the search would stop one iteration short of the
    optimum. *)
val stop_gap : int -> float
