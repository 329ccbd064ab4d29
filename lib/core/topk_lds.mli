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
    union and have a unique maximal element D.  At
    [alpha = rho_opt - eps] with [0 < eps < Density.min_gap n], the
    {e unique} maximiser of [mu(S) - alpha |S|] is D, so one extra
    min cut at that alpha — pinned on the binary search's witness, on
    a one-shot pinned {!Parametric.arena} — returns D no matter
    which of several min cuts the solver happens to find.

    With [~prune:true] (the default) each round restricts the search to
    the ceil(l)-core of the remaining graph (every densest subset lives
    there), solves the candidate core's connected components
    independently — sorted by their per-component kmax upper bound,
    skipping outright any component whose bound is strictly below the
    best density already found this round — and unions the canonical
    regions of the components tied at the round optimum.  With
    [~prune:false] every round is a single whole-remaining-graph binary
    search with the loose Exact-style bounds.  The two modes return
    bit-identical regions; only the work differs. *)

type stats = {
  rounds : int;             (** extraction rounds run (>= number of regions) *)
  iterations : int;         (** min-cut probes, canonicalization cuts included *)
  components_pruned : int;  (** candidate components skipped by the core bound *)
  elapsed_s : float;
}

type result = {
  regions : Density.subgraph list;
      (** pairwise disjoint, densities non-increasing, at most [k];
          shorter when the graph runs out of Psi-instances first *)
  stats : stats;
}

(** [run ~k g psi] extracts up to [k] disjoint locally densest regions.

    [warm] (default [true]) carries committed flow across binary-search
    probes ({!Flow_build.retarget}); [prune] (default [true]) selects
    the core-pruned per-component mode.  [?decomp] drops in a cached
    density-tracked decomposition of [g] (the serving layer's prepared
    state) for the first round; like {!Core_exact.run} it is recomputed
    rather than trusted when it lacks density tracking.  Results are
    bit-identical across every combination of the options.

    @raise Invalid_argument when [k < 1]. *)
val run :
  ?pool:Dsd_util.Pool.t ->
  ?warm:bool ->
  ?prune:bool ->
  ?decomp:Clique_core.t ->
  k:int ->
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> result
