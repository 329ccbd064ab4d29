(** Unified instance enumeration for any Psi.

    Dispatches on the pattern's recognised shape: h-cliques go through
    the degeneracy-DAG lister ({!Dsd_clique.Kclist}), everything else
    through the generic matcher ({!Dsd_pattern.Match}).  All algorithms
    in this library consume Psi through this module, which is what lets
    one CDS code path serve the PDS problem (Section 7).

    Every function takes [?pool]: with a pool, the clique fast path
    fans out across its domains ({!Dsd_clique.Parallel}) with results
    — including the instance {e order} — bit-identical to the
    sequential path.  Other pattern shapes ignore the pool. *)

(** [instances g psi] materialises the distinct instances as sorted
    member arrays. *)
val instances :
  ?pool:Dsd_util.Pool.t -> Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t ->
  int array array

(** [count g psi] is mu(G, Psi). *)
val count :
  ?pool:Dsd_util.Pool.t -> Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int

(** [degrees g psi] is deg_G(v, Psi) for every vertex.  Uses the
    Appendix-D closed forms for star and 4-cycle patterns (no
    enumeration). *)
val degrees :
  ?pool:Dsd_util.Pool.t -> Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t ->
  int array
