(** h-clique listing via degeneracy-ordered DAG recursion (the kClist
    algorithm of Danisch, Balalau and Sozio, WWW'18 — the paper's
    reference [17] for clique-degree computation).

    Each undirected edge is oriented from the vertex peeled earlier in
    the degeneracy order to the later one; out-degrees are then bounded
    by the degeneracy, and every h-clique is discovered exactly once as
    a chain in the DAG.

    One recursion serves {!iter}, {!count} and {!list}.  The DAG is one CSR (offsets plus targets), candidate sets live in
    one buffer per depth sized to the DAG's maximum out-degree and are
    intersected in place, and each clique's members are ordered by
    insertion, so a traversal allocates nothing after its set-up
    (O(n + m) words in all, whatever the clique count); {!list} hands
    each sorted row to {!Instances.build}, which gathers rows in blocks
    and copies them once into the flat list.  Instances come out in
    the DAG order: by root vertex id, then by candidate id at each
    depth. *)

(** [iter g ~h ~f] calls [f] once per h-clique instance of [g] with the
    member vertices sorted ascending.  The array is reused between
    calls: copy it if you keep it.  [h] must be ≥ 1 ([h = 1] lists
    vertices, [h = 2] edges). *)
val iter : Dsd_graph.Graph.t -> h:int -> f:(int array -> unit) -> unit

(** [count g ~h] is the number of h-clique instances, mu(G, Psi). *)
val count : Dsd_graph.Graph.t -> h:int -> int

(** [list g ~h] materialises all instances, each row sorted
    ascending, in the order {!iter} visits them. *)
val list : Dsd_graph.Graph.t -> h:int -> Instances.t
