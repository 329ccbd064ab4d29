(** Pattern-instance enumeration (Definitions 7-9): subgraph — not
    induced — matching with instances identified by edge set, so
    automorphic re-discoveries of the same instance are merged, exactly
    as the paper counts them.

    Backtracking over a connectivity-aware static order with adjacency
    and degree pruning; exhaustive and exact for the ≤ 6-vertex
    patterns of the evaluation.  {!instances} writes the one flat
    instance list ({!Dsd_clique.Instances.t}) that the stores, peels
    and flow builders read by index, like the clique lister does. *)

(** [iter g p ~f] calls [f] once per distinct pattern instance with its
    member vertices sorted ascending (fresh array). *)
val iter : Dsd_graph.Graph.t -> Pattern.t -> f:(int array -> unit) -> unit

(** [instances g p] materialises all distinct instances, in {!iter}'s
    order, as one flat list of arity [p.size] written through a
    doubling buffer. *)
val instances : Dsd_graph.Graph.t -> Pattern.t -> Dsd_clique.Instances.t

(** [count g p] is mu(G, Psi). *)
val count : Dsd_graph.Graph.t -> Pattern.t -> int

(** [degrees g p] is deg_G(v, Psi) for every vertex. *)
val degrees : Dsd_graph.Graph.t -> Pattern.t -> int array

(** [embeddings_count g p] counts injective edge-preserving mappings
    before deduplication; equals [count g p * automorphisms p] (test
    invariant). *)
val embeddings_count : Dsd_graph.Graph.t -> Pattern.t -> int
