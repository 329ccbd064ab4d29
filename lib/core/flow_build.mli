(** Flow-network constructions for the min-cut-based exact algorithms.

    {!prepare} is the one constructor.  By family:
    - [Eds]: the edge network, the h = 2 clique network with its
      one-vertex subset layer contracted: s -> v at deg(v), v -> t at
      2·alpha, both arcs of every edge at capacity 1, read off the
      CSR.  A source side S cuts 2m - 2(c(S) - alpha·|S|), so it cuts
      out the same sides as the clique network, and as Goldberg's
      network (the [32] construction quoted after Algorithm 1);
    - [Clique_flow]: Algorithm 1 lines 5-15 — source, vertex nodes,
      (h-1)-clique nodes, sink.  (h-1)-cliques that extend to no
      h-clique are omitted: they can never lie on the source side and
      only pad the network;
    - [Pds]: PExact's construction (Algorithm 8) with one node per
      pattern instance;
    - [Pds_grouped]: construct+ (Algorithm 7), grouping instances that
      share a vertex set; Lemma 11 proves the min-cut capacity is
      unchanged.

    In every network: node 0 is the source, node 1 + i is data vertex
    i, instance/clique nodes follow, and the last node is the sink.
    After a min-cut, [solve] decodes S \ {s} back to data vertices
    (Algorithm 1 line 18); a network laid out otherwise decodes its
    cut through {!cut}.

    Across the probes of a parametric search the topology never
    changes; only the vertex-to-sink capacities do (Goldberg's
    parametric-flow observation).  So every network is built once,
    with each arc's capacity law cap(alpha) = max(base + coef * alpha,
    0) kept in the network itself, and is then re-aimed there:
    {!Dsd_flow.Flow_network.recapacitate} exact on an integer grid,
    warm while the aim rises (the exact searches, through
    {!Parametric.probe_rational}), or
    {!Dsd_flow.Flow_network.retarget} warm at a float alpha ({!Inc_dsd}
    and the float reference searches of [Dsd_check.Oracle]). *)

type t = {
  net : Dsd_flow.Flow_network.t;
  source : int;
  sink : int;
  n_vertices : int;
  node_count : int;   (** |V_F|, the Figure 9 "size of flow network" *)
}

(** [cut t ~f] computes the min cut and returns [f t side], where
    [side.(x)] tells whether node [x] lies on the inclusion-minimal
    source side; [f] decodes it, still inside the [flow] span and its
    per-probe record.  {!Inc_dsd} decodes its own arena this way: its
    vertex nodes are allocated as vertices join a live instance, so
    they are not [1 + i]. *)
val cut : t -> f:(t -> bool array -> 'a) -> 'a

(** [solve t] is {!cut} decoded for the networks built here: the data
    vertices [i < n_vertices] whose node [1 + i] is on the source side,
    ascending (empty iff S = {s}). *)
val solve : t -> int array

(** Which exact-network family an automatic solver should use for this
    pattern: cliques get the edge/clique networks, general patterns
    the PDS ones. *)
type family = Eds | Clique_flow | Pds | Pds_grouped

(** [auto_family psi] follows the paper's defaults: h = 2 -> [Eds] (the
    edge network), h-clique -> [Clique_flow], pattern -> [Pds].
    Construct+ ([Pds_grouped]) is only ever chosen explicitly. *)
val auto_family : Dsd_pattern.Pattern.t -> family

(** [prepare family g psi ~instances] builds the network of [family]
    in the [build_network] span, counted as [flow_networks_built].  Its
    capacities start at alpha = 0: the vertex-to-sink arcs carry the
    only non-zero [coef] (2 for [Eds], h or p otherwise), so aim it
    before the first solve.  [instances] must be the Psi-instances of
    [g] (the h-cliques for [Clique_flow]; ignored by [Eds], which reads
    the edges off [g]).  In every family, [pinned] vertices get
    infinite-capacity source arcs, forcing them onto the source side
    of every min cut (the query-vertex variant, Section 6.3).

    The network is tied to [g] and [instances]: when the vertex set
    changes (CoreExact's Optimisation-3 core shrink), discard it and
    prepare a fresh one.

    Every network is created pre-sized for the arcs it will hold.  The
    [Clique_flow] builder names each (h-1)-subset by the (instance,
    member) pair that first drops to it, found in an open-addressing
    table of pair indices that compares members in place in the
    instance array: nothing is allocated per pair, and a build costs
    O(h) expected time per (instance, member) pair plus one int per
    pair for the subset ids.  Subset ids follow first-seen (instance, member) order;
    the v -> subset arcs are emitted in descending pair order and the
    subset -> member arcs by subset id. *)
val prepare :
  ?pinned:int array ->
  family -> Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t ->
  instances:Dsd_clique.Instances.t -> t
