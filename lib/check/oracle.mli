(** Independent ground-truth implementations.

    Everything here is deliberately naive: exhaustive or re-enumerating
    re-derivations of the quantities the optimised library computes,
    used as oracles by both the unit suites ([test/helpers.ml]) and the
    metamorphic fuzz engine ({!Engine}).  None of this code shares a
    line with the code under test, except that the reference searches
    drive the same flow networks. *)

(** [slow_count g psi] is mu(G, Psi) by the slow generic matcher
    (naive clique enumeration for clique patterns). *)
val slow_count : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int

(** [density_of_subset g psi vs] is the Psi-density of the subgraph of
    [g] induced by [vs]; 0 on the empty set.  For any [vs] this is a
    sound lower bound on rho_opt — the certificate check of
    {!Relation.planted_certificate} rests on exactly this. *)
val density_of_subset :
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int array -> float

(** [brute_force_densest g psi] is the exact densest subgraph by
    enumeration of all 2^n - 1 non-empty vertex subsets.  Only for
    n <= 16 (asserted). *)
val brute_force_densest :
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> float * int array

(** [brute_force_maximal_densest g psi] is the union of {e all}
    maximum-density subsets — the canonical maximal densest subgraph
    {!Dsd_core.Topk_lds} extracts each round — with its exact density,
    by subset enumeration.  [(0., [||])] when mu(G, Psi) = 0.  Exact
    float comparisons are sound at n <= 16 (asserted): densities are
    quotients of small ints, so equal floats mean equal rationals. *)
val brute_force_maximal_densest :
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> float * int array

(** [brute_force_topk ~k g psi] iterates
    {!brute_force_maximal_densest} on the shrinking remaining graph:
    the ground-truth top-k locally densest regions, as
    [(density, vertices)] in extraction order (original vertex ids,
    each array sorted).  Stops early when the density reaches zero.
    Only for n <= 16 and k >= 1 (asserted). *)
val brute_force_topk :
  k:int -> Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t ->
  (float * int array) list

(** [brute_force_ld_decomposition g psi] is the ground-truth
    density-friendly decomposition: greedily peel maximal max-marginal
    augmentations, ranking marginals as exact int rationals and
    augmenting by the union of all argmax sets (max-marginal
    augmentations are closed under union, so the union is canonical).
    Returns [(marginal, new vertices)] outermost first, each vertex
    array sorted; the trailing level has marginal 0 and holds whatever
    joins no instance.  The floats are the same int divisions
    {!Dsd_core.Ld_decomposition} performs, so agreement is bit-exact.
    Only for n <= 12 (asserted; each level enumerates all subsets of
    the remaining vertices). *)
val brute_force_ld_decomposition :
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> (float * int array) list

(** The float searches the exact solvers ran before their exact
    Dinkelbach search ({!Dsd_core.Parametric.dinkelbach}), kept as
    references.  Each bisects a float alpha over min cuts down to
    {!Dsd_core.Density.stop_gap} on a network built with
    {!Dsd_core.Flow_build.prepare} at the first probe and
    warm-retargeted after; none shares a line of the search under test.
    Each also returns its probe count.  Any size of graph. *)

(** [reference_cds g psi] is Exact's bisection: [[0, max instance
    degree)] on the whole graph with the automatic network family; the
    last non-empty source side is the answer — the maximal densest
    subgraph. *)
val reference_cds :
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> Dsd_core.Density.subgraph * int

(** [reference_query g psi ~query] is the query variant's pinned
    bisection on the same core-restricted vertex set as
    {!Dsd_core.Query_dsd.run}, from the x-core witness, raising the
    lower bound to the density of every side that beats its probe.
    [query] must be non-empty and in range. *)
val reference_query :
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> query:int array ->
  Dsd_core.Density.subgraph * int

(** [reference_ld_decomposition g psi] is the density-friendly
    decomposition by a per-level search, the reference for
    {!Dsd_core.Ld_decomposition}'s breakpoint search: for each prefix
    B, a float bisection of the marginal over min cuts with B pinned (a
    fresh network per level, on the whole graph), then one
    canonicalisation cut at the marginal minus the stopping gap.
    [iterations] counts its probes. *)
val reference_ld_decomposition :
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> Dsd_core.Ld_decomposition.t

(** [survivors g psi k] marks the vertices of the (k, Psi)-core by
    threshold peeling with full re-enumeration after every deletion. *)
val survivors :
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int -> bool array

(** [naive_core_numbers g psi] is the (k, Psi)-core number of every
    vertex, by running {!survivors} for k = 1, 2, ... until empty. *)
val naive_core_numbers :
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int array
