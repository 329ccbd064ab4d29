(** CoreApp — Algorithm 6, the paper's fastest approximation: compute
    the (kmax, Psi)-core *top-down* from subgraphs induced by the
    vertices with the largest degree upper bounds, doubling the window
    until the stopping criterion proves no outside vertex can beat the
    best core found.

    gamma(v, Psi) upper-bounds the clique-core number: C(core(v), h-1)
    for h-cliques (the classical-core argument of Section 6.2); for
    star/4-cycle patterns the closed-form exact pattern degree; for
    other patterns the exact pattern degree via enumeration (a valid,
    if costlier, bound — the paper leaves non-clique gamma open).

    Deviation noted in DESIGN.md §6: the best core is re-recorded when
    a later window reproduces the same kmax, so the returned subgraph
    is the full (kmax, Psi)-core of G, not the first window's
    fragment. *)

type result = {
  subgraph : Density.subgraph;
  kmax : int;
  rounds : int;          (** number of windows examined *)
  final_window : int;    (** |W| of the last round *)
  elapsed_s : float;
}

(** [run g psi] computes the (kmax, Psi)-core.  [initial_window]
    defaults to max(16, |V_Psi| + 1). *)
val run :
  ?initial_window:int ->
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> result
