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

    For edges (h = 2) gamma(v) is v's core number itself, so the
    answer is read off one CSR peel of G: one round, whose
    [final_window] is |kmax-core|.

    Windows that provably fail the stopping test are skipped
    (DESIGN.md §6): the first window extends to the end of the top
    gamma tie, since no window can stop at a boundary whose gamma is
    the top one; and after a failed round at boundary p, no boundary
    inside p's gamma tie can stop either, so the next window is
    max(2p, the end of that tie).  A window of all n vertices peels G
    itself.  On a graph whose gamma values all tie, CoreApp is IncApp
    in one round.

    Deviation noted in DESIGN.md §6: the best core is re-recorded when
    a later window reproduces the same kmax, so the returned subgraph
    is the full (kmax, Psi)-core of G, not the first window's
    fragment.  Its density is the peel's own count of that core. *)

type result = {
  subgraph : Density.subgraph;
  kmax : int;
  rounds : int;          (** number of windows examined *)
  final_window : int;    (** |W| of the last round; |kmax-core| for h = 2 *)
  elapsed_s : float;
}

(** [run g psi] computes the (kmax, Psi)-core.  [initial_window]
    defaults to max(16, |V_Psi| + 1), and is unused for h = 2. *)
val run :
  ?initial_window:int ->
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> result
