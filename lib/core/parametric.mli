(** The parametric min-cut search every exact solver shares.

    Algorithms 1, 4 and 8, the query variant (Section 6.3) and the
    top-k extraction bisect alpha over min cuts until the interval is
    below Lemma 12's gap; the density-friendly hierarchy probes the
    breakpoints of the same cut exactly ({!probe_rational}).  This
    module owns the loop and the flow arena it probes: the network is
    built with {!Flow_build.prepare} on the first probe and re-pointed
    on every later one.  The directed ratio searches ({!Directed}) reuse
    {!bisect} with their own stopping width.

    The driver counts nothing itself: {!Flow_build} counts builds and
    retargets, and each caller keeps its own probe counters. *)

(** A flow network for one (graph, Psi, instances, pinned set),
    unbuilt until the first {!probe}. *)
type arena

(** [arena family g psi ~instances] is an unbuilt handle.  [?pinned]
    vertices are forced onto the source side of every cut; [?warm]
    (default [true]) keeps the committed flow across probes
    ({!Flow_build.retarget}).  [?slot] is a caller-owned cache of the
    prepared network: a filled slot is retargeted instead of rebuilt,
    and an empty one is filled by the first probe.  It must have been
    filled for the same [g], [psi], [instances] and [family]. *)
val arena :
  ?pool:Dsd_util.Pool.t ->
  ?pinned:int array ->
  ?warm:bool ->
  ?slot:Flow_build.prepared option ref ->
  Flow_build.family -> Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t ->
  instances:int array array -> arena

(** [probe a alpha] solves the min cut at [alpha] and returns the data
    vertices on its source side (empty iff the side is just the
    source).

    @raise Invalid_argument once the arena has taken a rational
    probe. *)
val probe : arena -> float -> int array

(** [probe_rational a ~num ~den] is [probe a (num / den)] computed
    exactly, cold, for [num >= 0] and [den > 0]: the flow is zeroed and
    every finite capacity of the network as built is multiplied by
    [den], so all are integer-valued doubles and Dinic is exact while
    they sum below 2^53.  A probe on a built network counts as a
    retarget.  From the first rational probe on, the arena (which then
    keeps a copy of its unscaled capacities) takes only rational
    probes. *)
val probe_rational : arena -> num:int -> den:int -> int array

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
    has no pinning analysis), and so do rational probes: scaled
    capacities sum to h * mu(G) * den here, n * m * den in Goldberg's. *)
val pinned_family : Dsd_pattern.Pattern.t -> Flow_build.family

(** [striped ?pool n f] runs [f i] for every component [i < n].  With a
    pool and more than one component they run one per chunk across its
    domains, pool-free (pools don't nest); otherwise in order, each
    receiving [?pool]. *)
val striped :
  ?pool:Dsd_util.Pool.t -> int -> (?pool:Dsd_util.Pool.t -> int -> unit) ->
  unit

(** [raise_to best x] atomically sets [best] to [max best x]. *)
val raise_to : float Atomic.t -> float -> unit
