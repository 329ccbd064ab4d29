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
  | Pool_jobs
  | Pool_chunks
  | Pool_chunks_lead
  | Pool_workers_engaged
  | Ld_levels
  | Ld_probes

let all =
  [ Flow_augmentations; Flow_level_builds; Peeled_vertices; Clique_instances;
    Core_iterations; Flow_networks_built; Flow_retargets; Flow_warm_starts;
    Flow_excess_drained; Serve_requests; Serve_cache_hits; Serve_cache_misses;
    Serve_cache_evictions; Serve_protocol_errors; Delta_edges_added;
    Delta_edges_removed; Delta_core_repairs; Delta_instances_added;
    Delta_instances_retired; Delta_arena_rebuilds; Topk_rounds;
    Topk_components_pruned; Topk_regions; Pool_jobs; Pool_chunks;
    Pool_chunks_lead; Pool_workers_engaged; Ld_levels; Ld_probes ]

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
  | Pool_jobs -> 23
  | Pool_chunks -> 24
  | Pool_chunks_lead -> 25
  | Pool_workers_engaged -> 26
  | Ld_levels -> 27
  | Ld_probes -> 28

let slots = 29

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
  | Pool_jobs -> "pool_jobs"
  | Pool_chunks -> "pool_chunks"
  | Pool_chunks_lead -> "pool_chunks_lead"
  | Pool_workers_engaged -> "pool_workers_engaged"
  | Ld_levels -> "ld_levels"
  | Ld_probes -> "ld_probes"

(* One atomic per counter: domains striping clique enumeration bump
   these concurrently.  Hot loops either read State.enabled first or
   accumulate locally and [add] once per batch. *)
let values = Array.init slots (fun _ -> Atomic.make 0)

let incr name =
  if Atomic.get State.enabled then Atomic.incr values.(index name)

let add name k =
  if k <> 0 && Atomic.get State.enabled then
    ignore (Atomic.fetch_and_add values.(index name) k)

let get name = Atomic.get values.(index name)

let reset () = Array.iter (fun a -> Atomic.set a 0) values

let snapshot () = List.map (fun n -> (to_string n, get n)) all

(* Pool utilization feed.  Dsd_obs depends on Dsd_util, so the pool
   cannot call Counter directly; instead it reports each fanned-out
   job's per-participant chunk claims through this hook.  Installed
   here (not in Control) because Counter is transitively referenced by
   every consumer of the library, so the linker can never drop this
   module — and with it the registration — as dead code. *)
let () =
  Dsd_util.Pool.set_job_reporter (fun ~chunks ~claimed ->
      incr Pool_jobs;
      add Pool_chunks chunks;
      add Pool_chunks_lead (Array.fold_left max 0 claimed);
      add Pool_workers_engaged
        (Array.fold_left (fun a c -> if c > 0 then a + 1 else a) 0 claimed))
