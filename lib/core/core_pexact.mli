(** CorePExact — Section 7.2's core-based exact PDS algorithm:
    {!Core_exact.run} with the construct+ grouped network
    (Algorithm 7) forced. *)

val run :
  ?prunings:Core_exact.prunings ->
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> Core_exact.result
