(** CoreExact — Algorithm 4, the paper's exact contribution.

    Three optimisations over Exact (Section 6.1):
    + a tighter start from Theorem 1 (rho_opt >= kmax / |V_Psi|),
      improved by Pruning1's rho' (the best residual density);
    + the CDS is located inside small (k, Psi)-cores — Pruning1 (the
      ceil(rho')-core) and Pruning2 (per-component densities raise the
      bound and the core level); the paper's Pruning3 set a
      component-local stopping width, which the exact search has no
      use for;
    + flow networks shrink as the search raises the lower bound
      (Optimisation 3: the component is re-intersected with higher
      cores).

    Each candidate component runs {!Parametric.dinkelbach} from the
    post-Pruning2 bound, so a component that cannot beat it costs one
    probe.  Components run in order against a plain running best: one
    whose core-number upper bound lies strictly below it is skipped,
    and a component's answer replaces the best only when strictly
    denser.  The result is seeded with the densest subgraph seen during
    decomposition, so an optimum that equals the lower bound is still
    returned (DESIGN.md §6).

    With [~family:Pds_grouped] the PDS networks use construct+
    (Algorithm 7), making this CorePExact ({!Core_pexact}). *)

type prunings = {
  p1 : bool;  (** locate CDS in the ceil(rho')-core *)
  p2 : bool;  (** raise to ceil(rho'') from per-component densities *)
}

val all_prunings : prunings
val no_prunings : prunings

type stats = {
  iterations : int;              (** exact min-cut probes *)
  network_nodes : int list;      (** |V_F| per iteration, oldest first (Figure 9) *)
  kmax : int;
  decompose_s : float;           (** core-decomposition time (Table 3) *)
  flow_s : float;                (** time in the component searches:
                                     network builds, min cuts and
                                     Optimisation-3 shrinks *)
  elapsed_s : float;
}

type result = {
  subgraph : Density.subgraph;
  stats : stats;
}

(** [run g psi] returns the exact densest subgraph.  [family] overrides
    the network construction ({!Flow_build.auto_family} by default).

    [?decomp] supplies a (k, Psi)-core decomposition of [g] w.r.t.
    [psi] computed earlier (the serving layer's prepared-state cache),
    skipping Step 1.  It is used only when it carries the density
    tracking the active prunings need ([Clique_core.decompose
    ~track_density:true], or any decomposition when Pruning1 is off or
    the graph has no instances); otherwise it is recomputed, so results
    are bit-identical with or without the hook.  [stats.decompose_s] is
    0 when the cached decomposition is used.

    @raise Invalid_argument when a component's scaled network passes
    {!Exact}'s size limit. *)
val run :
  ?pool:Dsd_util.Pool.t ->
  ?prunings:prunings ->
  ?family:Flow_build.family ->
  ?decomp:Clique_core.t ->
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> result
