(** Monotonic global counters for the algorithmic events the paper's
    experiments attribute cost to.  All operations are no-ops while
    recording is disabled (see {!Control.enable}); with recording on,
    updates are atomic and safe from multiple domains. *)

type name =
  | Flow_augmentations  (** augmenting paths found (Dinic / Edmonds-Karp) *)
  | Flow_level_builds   (** Dinic level-graph rebuilds; Edmonds-Karp BFS passes *)
  | Peeled_vertices     (** vertices removed by core-decomposition peeling *)
  | Clique_instances    (** h-cliques / pattern instances enumerated *)
  | Core_iterations     (** Exact/CoreExact/Inc_dsd min-cut probes / CoreApp rounds *)
  | Flow_networks_built (** flow-network arenas constructed from scratch *)
  | Flow_retargets      (** prepared networks re-capacitated for a new alpha *)
  | Flow_warm_starts    (** retargets that kept the committed flow (no reset) *)
  | Flow_excess_drained (** flow-decomposition paths cancelled back to the source *)
  | Serve_requests      (** cacheable requests handled by [dsd serve] *)
  | Serve_cache_hits    (** serve requests answered from the result LRU *)
  | Serve_cache_misses  (** serve requests that ran a solver *)
  | Serve_cache_evictions (** LRU entries displaced by [--max-cached] *)
  | Serve_protocol_errors (** malformed frames / requests rejected by the server *)
  | Delta_edges_added     (** edges inserted by incremental delta batches *)
  | Delta_edges_removed   (** edges deleted by incremental delta batches *)
  | Delta_core_repairs    (** vertices whose core number an incremental repair moved *)
  | Delta_instances_added (** pattern instances appended to a live arena *)
  | Delta_instances_retired (** pattern instances retired from a live arena *)
  | Delta_arena_rebuilds  (** incremental arenas compacted/rebuilt from scratch *)
  | Topk_rounds           (** extraction rounds run by the top-k LDS solver *)
  | Topk_components_pruned (** always 0: a top-k round searches one
                               network and skips no component; kept for
                               the benchmark's schema *)
  | Topk_regions          (** disjoint locally-densest regions returned *)
  | Ld_levels             (** levels emitted by the density-friendly decomposition *)
  | Ld_probes             (** min-cut probes posed by the hierarchy's breakpoint search *)

val all : name list
val to_string : name -> string

(** [incr n] adds 1; [add n k] adds [k] in one atomic update — batch
    per-call tallies through [add] rather than hammering [incr]. *)
val incr : name -> unit

val add : name -> int -> unit

(** Current value (readable whether or not recording is enabled). *)
val get : name -> int

val reset : unit -> unit

(** All counters as [(name, value)] pairs, in declaration order. *)
val snapshot : unit -> (string * int) list
