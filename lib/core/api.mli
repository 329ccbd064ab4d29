(** One-call convenience layer over the whole library.

    [densest_subgraph g] finds the exact edge-densest subgraph;
    [~psi] switches the density (h-clique or pattern); [~algorithm]
    trades exactness for speed.  See the README quickstart. *)

type algorithm =
  | Exact_flow      (** Algorithm 1 / PExact: baseline exact *)
  | Core_exact      (** Algorithm 4 / CorePExact: fast exact (default) *)
  | Peel            (** Algorithm 2: 1/|V_Psi|-approx greedy peeling *)
  | Inc_app         (** Algorithm 5: (kmax, Psi)-core bottom-up *)
  | Core_app        (** Algorithm 6: (kmax, Psi)-core top-down *)

val algorithm_name : algorithm -> string

(** [densest_subgraph ?psi ?algorithm g] returns the (approximately)
    densest subgraph of [g] under Psi-density.  [psi] defaults to the
    single edge; [algorithm] to {!Core_exact}.

    [?pool] runs the parallel phases — enumeration, core
    decomposition, flow-network construction — on a shared domain pool
    ({!Dsd_util.Pool}); results are bit-identical to the sequential
    path for every pool size.

    @raise Invalid_argument when an exact algorithm's scaled network
    passes {!Exact}'s size limit. *)
val densest_subgraph :
  ?pool:Dsd_util.Pool.t ->
  ?psi:Dsd_pattern.Pattern.t ->
  ?algorithm:algorithm ->
  Dsd_graph.Graph.t -> Density.subgraph

(** [core_numbers g psi] is the (k, Psi)-core number of every vertex
    (Algorithm 3). *)
val core_numbers :
  ?pool:Dsd_util.Pool.t ->
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int array

(** [kmax_core g psi] is the (kmax, Psi)-core as a subgraph result. *)
val kmax_core :
  ?pool:Dsd_util.Pool.t ->
  Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> Density.subgraph
