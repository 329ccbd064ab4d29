(** Greedy++ — iterated load-balanced peeling (Boob et al., WWW'20),
    the natural strengthening of PeelApp (Algorithm 2) from the
    literature the paper builds on.

    Each round peels by [load(v) + current instance-degree(v)] instead
    of the degree alone, then adds the removed vertex's degree to its
    load; the best residual graph over all rounds is returned.  One
    round is exactly PeelApp; as rounds grow the density provably
    converges to rho_opt for edge density (and empirically for
    h-cliques — our ablation bench measures this).  A useful middle
    ground between PeelApp's 1/|V_Psi| guarantee and CoreExact's cost:
    the work per round matches PeelApp. *)

type result = {
  subgraph : Density.subgraph;   (** best residual over all rounds *)
  rounds : int;
  densities : float array;       (** best-so-far density after each round *)
  elapsed_s : float;
}

(** [run ?rounds g psi] (default 8 rounds).  The first round is the
    canonical round-synchronous peel, identical to PeelApp's; later
    rounds peel by load. *)
val run :
  ?rounds:int -> Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> result
