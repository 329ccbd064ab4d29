(** Incremental exact DSD sessions over edge streams.

    A session reads a {!Dsd_graph.Dynamic} handle, which it may share
    with other sessions (one per pattern over the same graph), and
    owns a growable h-clique instance store and a pds-style flow
    arena.  {!apply_all} changes the handle once per edge
    insert/delete and patches each session's store and arena for it —
    instance discovery/retirement localised to the changed edge, and
    arc surgery that keeps the committed flow feasible, every lowered
    capacity going through {!Dsd_flow.Flow_network.set_cap_warm} — and
    {!query} then re-runs the parametric search warm from the previous
    flow instead of rebuilding, each probe re-aiming the alpha arcs
    from the laws the arena holds ({!Dsd_flow.Flow_network.retarget}),
    and counts the answer's instances from the live store.

    The arena holds only the vertices that lie in a live instance: a
    vertex gets its node, source arc and alpha arc when it first joins
    one, so each probe's retarget, max flow, min cut and decoding, and
    the query's degree bound and c(S) count, cost O(vertices in live
    instances + instance nodes), not O(n).  A vertex that leaves every
    live instance keeps its node, at source capacity 0, as a retired
    instance keeps its zero-capacity arcs, until a compaction rebuild
    (once over 64 retired instances outnumber live ones three to one)
    drops both.

    Results are bit-identical to a from-scratch rebuild: the probe
    decision and the final CDS vertex set depend only on the residual
    min-cut structure, which is canonical (the inclusion-minimal
    min-cut source side is the same for every max flow, whatever order
    the arena's nodes and arcs were added in), and a patched arena is
    semantically equal to a freshly built one (zero-capacity arcs and
    disconnected retired nodes are invisible to cuts).  The
    [test_incremental] differential battery and the
    [delta-equals-rebuild] fuzz relation enforce this.

    Sessions that share a handle must change only through
    {!apply_all} over all of them: a session whose handle changed
    behind its back no longer matches the graph it reads.

    Only h-clique patterns are supported ({!attach} raises
    [Invalid_argument] otherwise). *)

type t

(** [attach dyn psi] starts a session over [dyn], which it reads but
    does not own: enumeration (of [dyn]'s cached snapshot) and arena
    build happen here, once. *)
val attach : Dsd_graph.Dynamic.t -> Dsd_pattern.Pattern.t -> t

(** [create g psi] = [attach (Dynamic.of_graph g) psi]: a session over
    a handle of its own.  The same constructor is the rebuild oracle
    used by the differential tests. *)
val create : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> t

(** [apply_all dyn sessions ops] applies a delta batch in order: each
    op changes [dyn] once, then patches every session's store and
    arena in list order before the next op; after the batch each
    session compacts if its tombstones dominate.  Returns how many ops
    changed the graph.  Duplicate inserts and absent deletes are
    no-ops.
    @raise Invalid_argument if a session was not attached to [dyn]. *)
val apply_all :
  Dsd_graph.Dynamic.t -> t list -> Dsd_graph.Dynamic.op array -> int

(** [apply t ops] = [apply_all (dynamic t) [t] ops]. *)
val apply : t -> Dsd_graph.Dynamic.op array -> int

(** [query t] = the exact CDS of the current graph, solved warm from
    the committed flow ({!Density.empty} when the graph or instance
    set is empty).  It reads no snapshot of the graph and allocates
    O(vertices in live instances + instance nodes) per probe. *)
val query : t -> Density.subgraph

(** [density t] = [(query t).density]. *)
val density : t -> float

(** Current-graph accessors (the snapshot is cached between batches). *)
val graph : t -> Dsd_graph.Graph.t

val dynamic : t -> Dsd_graph.Dynamic.t
val psi : t -> Dsd_pattern.Pattern.t

(** Number of live h-clique instances of the current graph. *)
val live_instances : t -> int
