(** Exact — Algorithm 1: the densest subgraph by min cuts on the
    whole graph.  With [~family:Pds] this is PExact (Algorithm 8); the
    dispatch is automatic by pattern kind.

    The search is {!Parametric.dinkelbach} from rho(V) = mu / n: each
    probe is an exact min cut at the best density witnessed so far, and
    the last source side that beats it is the answer — the maximal
    densest subgraph (the union of all densest subsets), or V itself
    when no side beats rho(V).  The network is built once on all of G.
    CoreExact ({!Core_exact}) is the paper's contribution that beats
    this baseline.

    Size limit: every probe scales the capacities by its denominator
    |S| <= n, and {!Parametric.probe_rational} refuses a network whose
    scaled capacities sum to 2^53 or more.  The instance networks sum
    to about 2h * mu(G) * |S| + h * n * c at a witness with c
    instances.  Goldberg's edge-density network ([Eds], the default
    for the edge pattern) sums to about 2 * n * m * |S|; where that
    could reach 2^53 (from roughly 10^5 vertices at average degree 10)
    {!Parametric.arena} builds the h = 2 instance network instead,
    which cuts out the same sides.  Edge-density Exact therefore raises
    [Invalid_argument] only from roughly 1.7 * 10^7 vertices at average
    degree 10. *)

type stats = {
  iterations : int;        (** exact min-cut probes *)
  last_network_nodes : int;
  mu : int;                (** instance count of the input graph *)
  elapsed_s : float;
}

type result = {
  subgraph : Density.subgraph;
  stats : stats;
}

(** [run g psi] returns the exact densest subgraph w.r.t. Psi-density:
    the maximal densest vertex set.  [family] overrides the
    flow-network construction (defaults to the paper's choice for the
    pattern kind).

    Repeat-solve hooks (the serving layer's prepared-state cache):
    [?instances] supplies the Psi-instances of [g] enumerated earlier
    (must equal [Enumerate.instances g psi]; ignored by the EDS
    family), and [?prepared] a caller-owned slot for the built flow
    network — empty on the first call, reused (re-capacitated, no
    rebuild) on every later call with the same [g], [psi] and
    [family].  Results are bit-identical with or without either
    hook.

    @raise Invalid_argument past the size limit above. *)
val run :
  ?family:Flow_build.family ->
  ?instances:Dsd_clique.Instances.t ->
  ?prepared:Flow_build.t option ref ->
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> result
