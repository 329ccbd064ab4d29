module P = Dsd_pattern.Pattern

(* [?pool] parallelises the clique fast path across a shared domain
   pool; the chunk-ordered merge in {!Dsd_clique.Parallel} keeps the
   instance order bit-identical to the sequential lister, so callers
   downstream (instance stores, flow networks) see the exact same
   input.  The generic matcher and the Appendix-D closed forms stay
   sequential. *)

let instances ?pool g (psi : P.t) =
  Dsd_obs.Span.with_ Dsd_obs.Phase.enumerate @@ fun () ->
  match (psi.kind, pool) with
  | P.Clique, Some pool -> Dsd_clique.Parallel.list_in pool g ~h:psi.size
  | P.Clique, None -> Dsd_clique.Kclist.list g ~h:psi.size
  | (P.Star _ | P.Cycle4 | P.Generic), _ -> Dsd_pattern.Match.instances g psi

let count ?pool g (psi : P.t) =
  Dsd_obs.Span.with_ Dsd_obs.Phase.enumerate @@ fun () ->
  match (psi.kind, pool) with
  | P.Clique, Some pool -> Dsd_clique.Parallel.count_in pool g ~h:psi.size
  | P.Clique, None -> Dsd_clique.Kclist.count g ~h:psi.size
  | (P.Star _ | P.Cycle4 | P.Generic), _ -> Dsd_pattern.Match.count g psi

let degrees ?pool g (psi : P.t) =
  match (psi.kind, pool) with
  | P.Clique, Some pool -> Dsd_clique.Parallel.degrees_in pool g ~h:psi.size
  | P.Clique, None -> Dsd_clique.Clique_count.degrees g ~h:psi.size
  | P.Star x, _ ->
    Dsd_pattern.Special.star_degrees (Dsd_graph.Subgraph.of_graph g) ~x
  | P.Cycle4, _ ->
    Dsd_pattern.Special.c4_degrees (Dsd_graph.Subgraph.of_graph g)
  | P.Generic, _ -> Dsd_pattern.Match.degrees g psi

