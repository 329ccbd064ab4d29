(** The parametric min-cut search every exact solver shares.

    Algorithms 1, 4 and 8, the query variant (Section 6.3), the top-k
    extraction and the density-friendly hierarchy all bisect alpha over
    min cuts until the interval is below Lemma 12's gap.  This module
    owns that loop and the flow arena it probes: the network is built
    with {!Flow_build.prepare} on the first probe and re-pointed with
    {!Flow_build.retarget} on every later one.  The directed ratio
    searches ({!Directed}) reuse {!bisect} with their own stopping
    width.

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
    source). *)
val probe : arena -> float -> int array

(** Whether a network has been built (a later probe retargets). *)
val built : arena -> bool

(** |V_F| of the built network; 0 before the first probe. *)
val nodes : arena -> int

(** [bisect ~gap ~l ~u decide] halves [[l, u)] while [u - l >= gap ()],
    probing the midpoint alpha each time: [decide alpha] returns
    [Some l'] to raise [l] to [l'] (the caller guarantees
    [l' >= alpha]) or [None] to lower [u] to [alpha].  [gap] is read on
    every iteration, so it may shrink mid-search. *)
val bisect :
  gap:(unit -> float) -> l:float -> u:float -> (float -> float option) -> unit

(** The network family for a search with pinned vertices: the generic
    clique or grouped pattern network, since the h = 2 Goldberg
    construction has no pinning analysis. *)
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
