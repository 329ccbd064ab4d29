(** The query-vertex variant of CDS (Section 6.3): given query vertices
    Q, find the subgraph containing all of Q with the highest
    Psi-density.

    Following the paper's sketch: decompose (k, Psi)-cores, let x be
    the minimum clique-core number among Q — every subgraph containing
    Q lives inside the (x', Psi)-core for suitable x', so the search
    runs on that core instead of all of G.  The flow network is the
    standard one with the query vertices pinned to the source side
    (infinite-capacity source arcs), the exact-CDS framework of
    Tsourakakis [65] that the paper adapts.  The search is
    {!Parametric.dinkelbach} from the x-core's own density: the answer
    is the maximal densest set containing Q, or the x-core itself when
    no side beats it.

    Connectivity caveat: as in [65], the optimum is the densest vertex
    set containing Q; it need not be connected through Q. *)

type result = {
  subgraph : Density.subgraph;   (** contains all query vertices *)
  iterations : int;              (** exact min-cut probes *)
  elapsed_s : float;
}

(** [run g psi ~query] solves the variant exactly.  [?decomp] supplies a (k, Psi)-core decomposition of [g] w.r.t.
    [psi] computed earlier (the serving layer's prepared-state cache);
    only core numbers and the instance count are read, so any
    [track_density] mode drops in with bit-identical results.
    @raise Invalid_argument if [query] is empty or out of range. *)
val run :
  ?pool:Dsd_util.Pool.t ->
  ?decomp:Clique_core.t ->
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> query:int array -> result

(** [run_naive g psi ~query] is the same search on all of G from
    rho(V), without the core restriction (the [65] baseline; used for
    tests and the ablation bench). *)
val run_naive :
  ?pool:Dsd_util.Pool.t ->
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> query:int array -> result
