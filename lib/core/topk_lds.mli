(** Top-k locally h-clique densest subgraphs (Xu et al.,
    arXiv:2408.14022 workload, on this repo's pattern-density
    machinery).

    A {e locally densest subgraph} (LDS) here is a region that is the
    densest subgraph of its own locality and maximal with that density:
    the solver returns the unique {e canonical maximal densest
    subgraph} of the remaining graph at each round, then deletes it and
    repeats — so the k regions are pairwise disjoint, their densities
    are non-increasing, and the first region's density is exactly
    rho_opt of the whole graph (bit-identical to {!Exact} /
    {!Core_exact}).

    Canonicality is what makes the answer a pure function of the input
    rather than of min-cut tie-breaking: Psi-instance counts are
    supermodular, so the densest subsets of a graph are closed under
    union and have a unique maximal element D.  Each round builds one
    {!Parametric.arena} over a candidate set that contains D and runs
    {!Parametric.dinkelbach} from the set's own density: the last side
    the exact search accepts is D (a disjoint union of components is
    solved by one max flow), and when no side beats the set, the set is
    D itself.

    The candidate set is the ceil(rho')-core of the remaining graph
    (every densest subset lives there).
    [Dsd_check.Oracle.reference_topk] runs the same search over the
    whole remaining graph and returns bit-identical regions; only the
    work differs. *)

type stats = {
  rounds : int;             (** extraction rounds run (>= number of regions) *)
  iterations : int;         (** exact min-cut probes *)
  elapsed_s : float;
}

type result = {
  regions : Density.subgraph list;
      (** pairwise disjoint, densities non-increasing, at most [k];
          shorter when the graph runs out of Psi-instances first *)
  stats : stats;
}

(** [run ~k g psi] extracts up to [k] disjoint locally densest regions.

    [?decomp] drops in a cached density-tracked decomposition of [g]
    (the serving layer's prepared state) for the first round; like
    {!Core_exact.run} it is recomputed rather than trusted when it
    lacks density tracking.  Results are bit-identical with and
    without it.

    @raise Invalid_argument when [k < 1]. *)
val run :
  ?decomp:Clique_core.t ->
  k:int ->
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> result
