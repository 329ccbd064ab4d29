(** The exact parametric min-cut search every exact solver shares.

    Algorithms 1, 4 and 8, the query variant (Section 6.3) and the
    top-k extraction run one Dinkelbach search ({!dinkelbach}): probe
    the min cut at the best witnessed density c/|S|, move to the cut's
    source side S' while c(S')·|S| > c·|S'|, and stop otherwise.  The
    last side it accepts is the maximal densest set (the union of all
    densest subsets), so the search needs no upper bound, no stopping
    width and no canonicalisation cut.  The density-friendly hierarchy
    ({!Ld_decomposition}) probes the breakpoints of the same cut.

    Every probe is {!probe_rational}: exact, so every accept or stop
    decision is an integer comparison.  The network is built with
    {!Flow_build.prepare} on the first probe and re-aimed from its own
    capacity laws on every later one, on an exact integer grid that
    lets a rising search keep its flow (DESIGN section 6).
    {!Inc_dsd} (whose flow stays warm across deltas), {!Directed}
    (whose capacities carry square roots) and the reference searches
    of [Dsd_check.Oracle] keep the float {!bisect}. *)

(** A flow network over one vertex set of a graph, unbuilt until the
    first probe.  Sides are reported in the graph's vertex ids. *)
type arena

(** [arena family g psi] is an unbuilt handle over G[[within]]
    ([within] sorted, default all of [g]).  [?instances] are the
    Psi-instances of that induced graph enumerated earlier (enumerated
    here otherwise; the [Eds] family counts edges instead and ignores
    them).  [?pinned] vertices of [within] are forced onto the source
    side of every cut, in every family.  A filled [?slot] is re-aimed
    instead of rebuilt, and an empty one is filled by the first probe;
    it must have been filled for the same [g], [within], [psi] and
    [family].  The network carries its own capacity laws, so a reused
    slot answers bit-identically. *)
val arena :
  ?within:int array ->
  ?pinned:int array ->
  ?instances:Dsd_clique.Instances.t ->
  ?slot:Flow_build.t option ref ->
  Flow_build.family -> Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> arena

(** [total a] is c(U), the instance count of the arena's whole vertex
    set U (its edge count for [Eds]). *)
val total : arena -> int

(** [probe_rational a ~num ~den] returns the source side of the
    minimal min cut at alpha = num/den: the inclusion-minimal S (over
    the arena's n' vertices, holding the pins) that maximises
    c(S) - alpha·|S|, as sorted vertex ids, empty iff that is the
    empty set.  A probe on a built network counts as a retarget.

    The network is aimed at k/D on the arena's grid instead: D is
    fixed by the first probe as n'·max(den, n') + 1 and kept while
    D > den·n', and k = floor(num·D/den) + 1.  No breakpoint of
    max_S c(S) - alpha·|S| lies in (num/den, k/D] (DESIGN section 6),
    so the side there is the same.  Every capacity law
    base + coef·alpha is written as base·D + coef·k, an integer-valued
    double, and Dinic is exact while the finite capacities sum below
    2^53.  On one grid a probe at or above the last one keeps the flow
    the last solve left ({!Dsd_flow.Flow_network.recapacitate} raises
    only the vertex-to-sink arcs and counts a warm start), so a rising
    Dinkelbach search augments only the difference; any other probe
    zeroes the flow.  Where the grid's sum would reach 2^53, or D or k
    would overflow, the probe aims cold at num/den itself, as every
    probe did before the grid.

    Cost on a built network: a warm aim writes the sloped arcs only, a
    cold one every arc (a fallback past 2^53 writes them twice), then
    Dinic and the residual BFS on the network's own scratch.  It
    allocates the node-side array, the returned vertex array and a few
    closures: nothing per arc, and no other per-node memory.

    @raise Invalid_argument if [den <= 0], [num < 0], or the finite
    capacities scaled at num/den itself sum to 2^53 or more. *)
val probe_rational : arena -> num:int -> den:int -> int array

(** [dinkelbach a (s, c)] runs the exact search from the witness [s]
    (non-empty, with instance count [c]), whose density c/|S| is an
    exclusive lower bound, and returns the last accepted side with its
    instance count, or [(s, c)] when no side beats it.  c(S') is
    counted from the arena's instance list (from G[S']'s edges for
    [Eds]), so the search enumerates nothing.  [?restrict] is called
    after every accept with the new pair and may return a fresh arena
    over a smaller vertex set that still holds every denser set
    (CoreExact's Optimisation 3); the search continues there. *)
val dinkelbach :
  ?restrict:(num:int -> den:int -> arena option) ->
  arena -> int array * int -> int array * int

(** Probes this arena has taken. *)
val probes : arena -> int

(** |V_F| of the built network; 0 before the first probe. *)
val nodes : arena -> int

(** [bisect ~gap ~l ~u decide] halves [[l, u)] while [u - l >= gap ()],
    probing the midpoint alpha each time: [decide alpha] returns
    [Some l'] to raise [l] to [l'] (the caller guarantees
    [l' >= alpha]) or [None] to lower [u] to [alpha].  [gap] is read on
    every iteration, so it may shrink mid-search. *)
val bisect :
  gap:(unit -> float) -> l:float -> u:float -> (float -> float option) -> unit

(** The network family of a pinned search: the edge network ([Eds])
    for h = 2, the clique network for larger cliques, construct+
    ([Pds_grouped]) for other patterns.  Every family ties pinned
    vertices to the source; on edges the contracted [Eds] network has
    no subset layer, and on other patterns construct+ has no more
    nodes than [Pds]. *)
val pinned_family : Dsd_pattern.Pattern.t -> Flow_build.family
