(** Dinic's maximum-flow algorithm.

    O(V^2 E) in general and far better in practice on the shallow
    layered networks produced by DSD binary search (source -> vertices
    -> clique nodes -> sink is depth 3).  This plays the role of
    Gusfield's min-cut routine in the paper's Exact/CoreExact; both
    compute exact min-cuts, and DSD only consumes the cut.

    The solver reads the network's CSR view ({!Flow_network.view})
    directly and writes flow into it in place.  Its levels, arc cursors
    (doubling as the BFS queue) and per-depth DFS limit and result
    floats are the network's own scratch, so a call allocates nothing
    per node, per arc or per augmenting path.  Each node's arcs are tried
    in insertion order, so the augmenting paths, level builds and
    resulting flow depend only on the arcs and their creation order,
    not on whether the network was built in one go or grown between
    solves. *)

(** [max_flow net ~s ~t] saturates the network in place and returns the
    flow pushed {e by this call}.  The solver works purely on residual
    capacities, so it may be invoked on any feasible intermediate state
    — in particular on a warm-started network that still carries the
    flow of a previous probe (after {!Flow_network.retarget} or
    {!Flow_network.set_cap_warm} repaired any lowered arcs) — and will
    augment it to a maximum flow.  Use {!Flow_network.flow_value} for
    the total committed value. *)
val max_flow : Flow_network.t -> s:int -> t:int -> float
