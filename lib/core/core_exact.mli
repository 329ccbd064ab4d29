(** CoreExact — Algorithm 4, the paper's exact contribution.

    Three optimisations over Exact (Section 6.1):
    + tighter alpha bounds from Theorem 1
      (kmax / |V_Psi| <= rho_opt <= kmax);
    + the CDS is located inside small (k, Psi)-cores — Pruning1 (best
      residual density rho'), Pruning2 (per-component density rho''),
      Pruning3 (component-local stopping width);
    + flow networks shrink as the binary search raises the lower bound
      (the component is re-intersected with higher cores).

    Engineering deviations from the pseudo-code, both documented in
    DESIGN.md §6: the result is seeded with the densest subgraph seen
    during decomposition so an optimum that exactly equals the lower
    bound is still returned, and the binary-search upper bound is
    per-component (the maximum core number inside the component)
    rather than shared, which the pseudo-code's global [u] would make
    unsound when an early component is sparser than a later one.

    With [~family:Pds_grouped] the PDS networks use construct+
    (Algorithm 7), making this CorePExact ({!Core_pexact}). *)

type prunings = {
  p1 : bool;  (** locate CDS in the ceil(rho')-core *)
  p2 : bool;  (** raise to ceil(rho'') from per-component densities *)
  p3 : bool;  (** component-local binary-search stopping width *)
}

val all_prunings : prunings
val no_prunings : prunings

type stats = {
  iterations : int;              (** min-cut computations *)
  network_nodes : int list;      (** |V_F| per iteration, oldest first (Figure 9) *)
  kmax : int;
  decompose_s : float;           (** core-decomposition time (Table 3) *)
  flow_s : float;                (** min-cut time *)
  elapsed_s : float;
}

type result = {
  subgraph : Density.subgraph;
  stats : stats;
}

(** [run g psi] returns the exact densest subgraph.  [family] overrides
    the network construction ({!Flow_build.auto_family} by default).
    [warm] (default [true]) carries flow across probes within a
    component's prepared network; a Pruning-3 shrink still rebuilds
    from scratch.

    [?decomp] supplies a (k, Psi)-core decomposition of [g] w.r.t.
    [psi] computed earlier (the serving layer's prepared-state cache),
    skipping Step 1.  It is used only when it carries the density
    tracking the active prunings need ([Clique_core.decompose
    ~track_density:true], or any decomposition when Pruning1 is off or
    the graph has no instances); otherwise it is recomputed, so results
    are bit-identical with or without the hook.  [stats.decompose_s] is
    0 when the cached decomposition is used. *)
val run :
  ?pool:Dsd_util.Pool.t ->
  ?warm:bool ->
  ?prunings:prunings ->
  ?family:Flow_build.family ->
  ?decomp:Clique_core.t ->
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> result
