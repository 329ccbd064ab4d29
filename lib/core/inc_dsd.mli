(** Incremental exact DSD sessions over edge streams.

    A session owns a {!Dsd_graph.Dynamic} handle, a growable h-clique
    instance store and a pds-style flow arena.  {!apply} patches all
    three in place per edge insert/delete — the adjacency change,
    instance discovery/retirement localised to the changed edge, and
    arc surgery that carries the committed flow through the drain
    machinery of {!Dsd_flow.Flow_network} — and {!query} then re-runs
    the parametric search warm from the previous flow instead of
    rebuilding, and counts the answer's instances from the live store.

    Results are bit-identical to a from-scratch rebuild: the probe
    decision and the final CDS vertex set depend only on the residual
    min-cut structure, which is canonical (the inclusion-minimal
    min-cut source side is the same for every max flow), and a patched
    arena is semantically equal to a freshly built one (zero-capacity
    arcs and disconnected retired nodes are invisible to cuts).  The
    [test_incremental] differential battery and the
    [delta-equals-rebuild] fuzz relation enforce this.

    Only h-clique patterns are supported ({!create} raises
    [Invalid_argument] otherwise). *)

type t

(** [create g psi] starts a session on the current graph —
    enumeration and arena build happen here, once.  The same
    constructor is the rebuild oracle used by the differential
    tests. *)
val create : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> t

(** [apply t ops] applies a delta batch in order, patching graph,
    store and arena; returns how many ops changed the graph.
    Duplicate inserts and absent deletes are no-ops. *)
val apply : t -> Dsd_graph.Dynamic.op array -> int

(** [query t] = the exact CDS of the current graph, solved warm from
    the committed flow ({!Density.empty} when the graph or instance
    set is empty). *)
val query : t -> Density.subgraph

(** [density t] = [(query t).density]. *)
val density : t -> float

(** Current-graph accessors (the snapshot is cached between batches). *)
val graph : t -> Dsd_graph.Graph.t

val dynamic : t -> Dsd_graph.Dynamic.t
val psi : t -> Dsd_pattern.Pattern.t

(** Number of live h-clique instances of the current graph. *)
val live_instances : t -> int
