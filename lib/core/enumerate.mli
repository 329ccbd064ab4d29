(** Unified instance enumeration for any Psi.

    Dispatches on the pattern's recognised shape: h-cliques go through
    the degeneracy-DAG lister ({!Dsd_clique.Kclist}), everything else
    through the generic matcher ({!Dsd_pattern.Match}).  All algorithms
    in this library consume Psi through this module, which is what lets
    one CDS code path serve the PDS problem (Section 7).

    {!instances} returns the one flat instance list
    ({!Dsd_clique.Instances.t}), written directly by the lister with
    no per-instance block; the instance stores adopt it without a copy
    and the flow builders read it by index. *)

(** [instances g psi] materialises the distinct instances as one flat
    list of arity [psi.size], each row sorted ascending — written
    directly by the lister, with no per-instance block.  For cliques
    the order is {!Dsd_clique.Kclist}'s DAG order; it fixes the instance
    ids that the peels' posting order and the flow networks' arc order
    follow. *)
val instances :
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> Dsd_clique.Instances.t

(** [count g psi] is mu(G, Psi). *)
val count : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int

(** [degrees g psi] is deg_G(v, Psi) for every vertex.  Uses the
    Appendix-D closed forms for star and 4-cycle patterns (no
    enumeration). *)
val degrees : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int array
