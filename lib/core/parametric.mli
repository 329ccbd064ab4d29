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
    {!Flow_build.prepare} on the first probe and re-capacitated from
    its own capacity laws on every later one.  {!Inc_dsd} (whose flow
    stays warm across deltas), {!Directed} (whose capacities carry
    square roots) and the reference searches of [Dsd_check.Oracle] keep
    the float {!bisect}. *)

(** A flow network over one vertex set of a graph, unbuilt until the
    first probe.  Sides are reported in the graph's vertex ids. *)
type arena

(** [arena family g psi] is an unbuilt handle over G[[within]]
    ([within] sorted, default all of [g]).  [?instances] are the
    Psi-instances of that induced graph enumerated earlier (enumerated
    here otherwise; the [Eds] family counts edges instead).  [?pinned]
    vertices of [within] are forced onto the source side of every cut.
    A filled [?slot] is re-capacitated instead of rebuilt, and an empty
    one is filled by the first probe; it must have been filled for the
    same [g], [within], [psi] and [family].  The network carries its
    own capacity laws, so a reused slot answers bit-identically.

    Where the [Eds] network's scaled capacities could reach 2^53 (about
    2·n'·m'·n over G[within], since a witness of [g] has up to n
    vertices), the arena builds {!pinned_family}'s network instead: its
    minimal min cut has the same vertex side. *)
val arena :
  ?within:int array ->
  ?pinned:int array ->
  ?instances:Dsd_clique.Instances.t ->
  ?slot:Flow_build.t option ref ->
  Flow_build.family -> Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> arena

(** [total a] is c(U), the instance count of the arena's whole vertex
    set U (its edge count for [Eds]). *)
val total : arena -> int

(** [probe_rational a ~num ~den] solves the min cut at alpha = num/den
    and returns the vertices on its source side (sorted; empty iff the
    side is just the source).  The probe is cold: the flow is zeroed
    and the network's every capacity law base + coef·alpha is
    rewritten as base·den + coef·num, so all finite capacities are
    integer-valued doubles and Dinic is exact while they sum below
    2^53.  A probe on a built network counts as a retarget.

    Cost on a built network: one pass over the arc arrays
    ({!Dsd_flow.Flow_network.recapacitate}: zero the flow, write each
    capacity, sum the finite ones), then Dinic and the residual BFS on
    the network's own scratch.  It allocates the node-side array, the
    returned vertex array and a few closures: nothing per arc, and no
    other per-node memory.

    @raise Invalid_argument if [den <= 0], [num < 0], or the scaled
    finite capacities sum to 2^53 or more. *)
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

(** The instance network family: the generic clique or grouped pattern
    network.  Pinned searches need it (the h = 2 Goldberg construction
    has no pinning analysis); its scaled capacities sum to about
    2h·mu·den + h·n·num, against 2·n·m·den in Goldberg's. *)
val pinned_family : Dsd_pattern.Pattern.t -> Flow_build.family
