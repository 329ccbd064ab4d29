type name =
  | Flow_augmentations
  | Flow_level_builds
  | Peeled_vertices
  | Clique_instances
  | Core_iterations
  | Flow_networks_built
  | Flow_retargets
  | Flow_warm_starts
  | Flow_excess_drained
  | Serve_requests
  | Serve_cache_hits
  | Serve_cache_misses
  | Serve_cache_evictions
  | Serve_protocol_errors
  | Delta_edges_added
  | Delta_edges_removed
  | Delta_core_repairs
  | Delta_instances_added
  | Delta_instances_retired
  | Delta_arena_rebuilds
  | Topk_rounds
  | Topk_components_pruned
  | Topk_regions
  | Ld_levels
  | Ld_probes

let all =
  [ Flow_augmentations; Flow_level_builds; Peeled_vertices; Clique_instances;
    Core_iterations; Flow_networks_built; Flow_retargets; Flow_warm_starts;
    Flow_excess_drained; Serve_requests; Serve_cache_hits; Serve_cache_misses;
    Serve_cache_evictions; Serve_protocol_errors; Delta_edges_added;
    Delta_edges_removed; Delta_core_repairs; Delta_instances_added;
    Delta_instances_retired; Delta_arena_rebuilds; Topk_rounds;
    Topk_components_pruned; Topk_regions; Ld_levels; Ld_probes ]

let index = function
  | Flow_augmentations -> 0
  | Flow_level_builds -> 1
  | Peeled_vertices -> 2
  | Clique_instances -> 3
  | Core_iterations -> 4
  | Flow_networks_built -> 5
  | Flow_retargets -> 6
  | Flow_warm_starts -> 7
  | Flow_excess_drained -> 8
  | Serve_requests -> 9
  | Serve_cache_hits -> 10
  | Serve_cache_misses -> 11
  | Serve_cache_evictions -> 12
  | Serve_protocol_errors -> 13
  | Delta_edges_added -> 14
  | Delta_edges_removed -> 15
  | Delta_core_repairs -> 16
  | Delta_instances_added -> 17
  | Delta_instances_retired -> 18
  | Delta_arena_rebuilds -> 19
  | Topk_rounds -> 20
  | Topk_components_pruned -> 21
  | Topk_regions -> 22
  | Ld_levels -> 23
  | Ld_probes -> 24

let slots = 25

let to_string = function
  | Flow_augmentations -> "flow_augmentations"
  | Flow_level_builds -> "flow_level_builds"
  | Peeled_vertices -> "peeled_vertices"
  | Clique_instances -> "clique_instances"
  | Core_iterations -> "core_iterations"
  | Flow_networks_built -> "flow_networks_built"
  | Flow_retargets -> "flow_retargets"
  | Flow_warm_starts -> "flow_warm_starts"
  | Flow_excess_drained -> "flow_excess_drained"
  | Serve_requests -> "serve_requests"
  | Serve_cache_hits -> "serve_cache_hits"
  | Serve_cache_misses -> "serve_cache_misses"
  | Serve_cache_evictions -> "serve_cache_evictions"
  | Serve_protocol_errors -> "serve_protocol_errors"
  | Delta_edges_added -> "delta_edges_added"
  | Delta_edges_removed -> "delta_edges_removed"
  | Delta_core_repairs -> "delta_core_repairs"
  | Delta_instances_added -> "delta_instances_added"
  | Delta_instances_retired -> "delta_instances_retired"
  | Delta_arena_rebuilds -> "delta_arena_rebuilds"
  | Topk_rounds -> "topk_rounds"
  | Topk_components_pruned -> "topk_components_pruned"
  | Topk_regions -> "topk_regions"
  | Ld_levels -> "ld_levels"
  | Ld_probes -> "ld_probes"

(* One atomic per counter: the daemon's threads and any second domain
   the caller runs bump these concurrently.  Hot loops either read
   State.enabled first or accumulate locally and [add] once per
   batch. *)
let values = Array.init slots (fun _ -> Atomic.make 0)

let incr name =
  if Atomic.get State.enabled then Atomic.incr values.(index name)

let add name k =
  if k <> 0 && Atomic.get State.enabled then
    ignore (Atomic.fetch_and_add values.(index name) k)

let get name = Atomic.get values.(index name)

let reset () = Array.iter (fun a -> Atomic.set a 0) values

let snapshot () = List.map (fun n -> (to_string n, get n)) all
