module P = Dsd_pattern.Pattern

let instances g (psi : P.t) =
  Dsd_obs.Span.with_ Dsd_obs.Phase.enumerate @@ fun () ->
  match psi.kind with
  | P.Clique -> Dsd_clique.Kclist.list g ~h:psi.size
  | P.Star _ | P.Cycle4 | P.Generic -> Dsd_pattern.Match.instances g psi

let count g (psi : P.t) =
  Dsd_obs.Span.with_ Dsd_obs.Phase.enumerate @@ fun () ->
  match psi.kind with
  | P.Clique -> Dsd_clique.Kclist.count g ~h:psi.size
  | P.Star _ | P.Cycle4 | P.Generic -> Dsd_pattern.Match.count g psi

let degrees g (psi : P.t) =
  match psi.kind with
  | P.Clique -> Dsd_clique.Clique_count.degrees g ~h:psi.size
  | P.Star x ->
    Dsd_pattern.Special.star_degrees (Dsd_graph.Subgraph.of_graph g) ~x
  | P.Cycle4 -> Dsd_pattern.Special.c4_degrees (Dsd_graph.Subgraph.of_graph g)
  | P.Generic -> Dsd_pattern.Match.degrees g psi
