(** Minimum s-t cut extraction.

    After a max-flow computation the source side [S] of a minimum cut
    is the set of nodes reachable from [s] in the residual graph
    (max-flow/min-cut theorem).  DSD consumes exactly this set: the
    vertex nodes in [S \ {s}] induce the candidate densest subgraph
    (Algorithm 1 line 18).  Residual reachability gives the
    inclusion-minimal source side, the same for every maximum flow, so
    a network re-solved warm from a previous probe's flow (a warm
    {!Flow_network.recapacitate} or {!Flow_network.retarget}) cuts
    exactly as one solved cold from zero flow at the same
    capacities. *)

(** [solve net ~s ~t] runs {!Dinic.max_flow} and returns
    [(flow_value, source_side)] where [source_side.(v)] iff node [v]
    is on the source side of a minimum cut.  [flow_value] is the total
    flow committed to the network ({!Flow_network.flow_value}), not the
    delta pushed by this call — the two coincide on a freshly built,
    [reset_flow]ed or cold re-capacitated network but differ after a
    warm re-aim. *)
val solve : Flow_network.t -> s:int -> t:int -> float * bool array

(** [source_side net ~s] recomputes reachability on an
    already-saturated network: a BFS over the CSR view whose queue is
    the network's scratch, so the result (one word per node) is all it
    allocates. *)
val source_side : Flow_network.t -> s:int -> bool array

(** [cut_capacity net side] sums the capacities of arcs crossing from
    [side] to its complement (sanity-check helper for tests: equals the
    max-flow value on a saturated network). *)
val cut_capacity : Flow_network.t -> bool array -> float
