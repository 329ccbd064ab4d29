(** Flow-network constructions for the min-cut-based exact algorithms.

    {!prepare} is the one constructor.  By family:
    - [Eds]: Goldberg's simplified network for edge density (the [32]
      construction quoted after Algorithm 1);
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
    cut through {!cut}.  {!Parametric} drives the searches over
    these networks. *)

type t = {
  net : Dsd_flow.Flow_network.t;
  source : int;
  sink : int;
  n_vertices : int;
  node_count : int;   (** |V_F|, the Figure 9 "size of flow network" *)
}

(** A constructed network plus the alpha-dependent arc class.

    Goldberg's parametric-flow observation: across the probes of a
    parametric search, the network topology — arena, clique/instance
    node layout, every alpha-independent arc — never changes; only the
    vertex-to-sink capacities do.  [prepare] builds once and records
    those arcs with their capacity law
    [cap(alpha) = max(base + coef * alpha, 0)]; [retarget] then costs
    O(V) capacity writes (one alpha arc per vertex, plus the drains of
    a warm retarget) instead of a fresh enumeration + build.  The exact
    searches re-aim every arc instead, in one allocation-free pass of
    {!Dsd_flow.Flow_network.recapacitate} ({!Parametric.probe_rational}). *)
type prepared = {
  network : t;
  alpha_arcs : int array;    (** arc ids whose capacity depends on alpha *)
  alpha_base : float array;
  alpha_coef : float array;
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
    pattern: cliques get the clique/EDS networks, general patterns the
    PDS ones. *)
type family = Eds | Clique_flow | Pds | Pds_grouped

(** [auto_family psi] follows the paper's defaults: h = 2 -> [Eds],
    h-clique -> [Clique_flow], pattern -> [Pds].  Construct+
    ([Pds_grouped]) is only ever chosen explicitly. *)
val auto_family : Dsd_pattern.Pattern.t -> family

(** [prepare family g psi ~instances ~alpha] builds the network of
    [family] for [alpha] (counted once as [flow_networks_built]) and
    returns the retargetable handle.  [instances] must be the
    Psi-instances of [g] (the h-cliques for [Clique_flow]; ignored by
    [Eds]).  [pinned] vertices get infinite-capacity source arcs,
    forcing them onto the source side of every min cut (the
    query-vertex variant, Section 6.3).

    The handle is tied to [g] and [instances]: when the vertex set
    changes (CoreExact's Optimisation-3 core shrink), discard it and prepare
    a fresh one.

    Every network is created pre-sized for the arcs it will hold.  The
    [Clique_flow] builder names each (h-1)-subset by the (instance,
    member) pair that first drops to it, found in an open-addressing
    table of pair indices that compares members in place in the
    instance array: nothing is allocated per pair, and a build costs
    O(h) expected time per (instance, member) pair plus one int per
    pair for the subset ids.  Subset ids follow first-seen (instance, member) order;
    the v -> subset arcs are emitted in descending pair order and the
    subset -> member arcs by subset id.

    @raise Invalid_argument when [family] is [Eds] and [pinned] is
    non-empty: the Goldberg construction has no pinning analysis. *)
val prepare :
  ?pinned:int array ->
  family -> Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t ->
  instances:Dsd_clique.Instances.t -> alpha:float -> prepared

(** [retarget p ~alpha] rewrites the alpha-dependent capacities for the
    new [alpha] and returns the (shared, mutated) network ready to
    solve.  Counted as [flow_retargets] either way.

    With [~warm:true] (the default) the committed flow of the previous
    probe is kept: capacities are written with
    {!Dsd_flow.Flow_network.set_cap_carry} and any arc whose new
    capacity fell below its flow is repaired with
    {!Dsd_flow.Flow_network.restore_arc} (excess drained back to the
    source), so the next solve only augments the difference.  Alpha may
    move in either direction.  Warm retargets are additionally counted
    as [flow_warm_starts].

    With [~warm:false] all flow is zeroed first and the next solve
    starts from scratch.

    {!Inc_dsd} and the float reference searches of [Dsd_check.Oracle]
    retarget; the exact solvers re-capacitate through
    {!Parametric.probe_rational}, which zeroes the flow and scales
    every capacity. *)
val retarget : ?warm:bool -> prepared -> alpha:float -> t
