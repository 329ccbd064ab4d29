(** Independent ground-truth implementations.

    Everything here is deliberately naive: exhaustive or re-enumerating
    re-derivations of the quantities the optimised library computes,
    used as oracles by both the unit suites ([test/helpers.ml]) and the
    metamorphic fuzz engine ({!Engine}).  None of this code shares a
    line with the code under test, except that the reference searches
    drive the same flow networks, and {!reference_topk} runs the same
    exact search as the top-k it checks, over a larger vertex set. *)

(** [slow_count g psi] is mu(G, Psi) by the slow generic matcher
    (naive clique enumeration for clique patterns). *)
val slow_count : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int

(** [reference_clique_instances g ~h] lists the h-cliques of [g] by
    kClist's recursion in its plainest form: degeneracy rank, one
    out-neighbour row per vertex, an allocating merge per recursion
    step and [Array.sort] per clique.  It is the reference for the
    instance order — by root vertex id, then by candidate id at each
    depth — that [Dsd_core.Enumerate.instances] must reproduce
    instance for instance, since instance ids fix the peels' posting
    order and the flow networks' arc order.  [h >= 1]. *)
val reference_clique_instances :
  Dsd_graph.Graph.t -> h:int -> Dsd_clique.Instances.t

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
    warm-retargeted ({!Dsd_flow.Flow_network.retarget}) at every probe;
    none shares a line of the search under test.
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

(** [reference_topk ~k g psi] is {!Dsd_core.Topk_lds.run} with every
    round's candidate set the whole remaining graph instead of its
    ceil(rho')-core: the same exact search
    ({!Dsd_core.Parametric.dinkelbach} from the set's own density) on a
    larger network, so the regions must be bit-identical and only the
    work (probes, time) differs.  [stats.iterations] counts its probes.
    Any size of graph.

    @raise Invalid_argument when [k < 1]. *)
val reference_topk :
  k:int -> Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t ->
  Dsd_core.Topk_lds.result

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

(** [reference_peel g psi] is the density-tracked (k, Psi)-core peel by
    brute force, the reference for {!Dsd_core.Clique_core}'s clique
    and generic engine.  Instances come from the slow listers and
    every live degree is recounted from scratch.  Starting at k = 0:
    while some live vertex has degree <= k, the sub-round removes all
    of them (the set taken at its start) one at a time in ascending
    id, charging each its live degree at the moment it goes; otherwise
    k rises to the minimum live degree.  Returns the decomposition
    (core numbers, order, kmax, the kmax-core's instance count — the
    live instances when the last level starts —, the residual
    densities after every removal and the first strictly densest
    suffix) and the [(vertex, charge)] transcript in peel order — what
    [Clique_core.peel_canonical] reports through [on_peel]. *)
val reference_peel :
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t ->
  Dsd_core.Clique_core.t * (int * int) array
