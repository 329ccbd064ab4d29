(** Server-side state and request dispatch, independent of any socket.

    One value of {!t} holds everything a long-lived `dsd serve` process
    amortises across requests:

    - the loaded graphs, keyed by the name they were registered under;
    - a {e prepared-state cache} keyed by (graph, Psi): the enumerated
      Psi-instances, the (k, Psi)-core decomposition (density-tracked,
      so CoreExact's Pruning1 can reuse it), and the retargetable
      whole-graph flow arena for Exact — each computed lazily on first
      need and kept for every later request;
    - an LRU over hot (graph, Psi, algorithm, query) {e results}
      ([--max-cached]), which answers a repeated request without
      touching a solver at all.

    {!handle} is the entire endpoint logic; the socket server, the
    differential tests and the [serve-equals-api] metamorphic relation
    all call it, which is what makes "server responses are bit-identical
    to API results" a statement about one function. *)

type t

(** [create ~max_cached graphs] registers the named graphs and sizes
    the result LRU.  [?pool] is threaded to every solver call.
    @raise Invalid_argument on a duplicate name or negative
    [max_cached]. *)
val create :
  ?pool:Dsd_util.Pool.t -> max_cached:int -> (string * Dsd_graph.Graph.t) list ->
  t

(** The registered graphs, in registration order. *)
val graphs : t -> (string * Dsd_graph.Graph.t) list

(** [handle t req] answers one request.  Never raises on a well-typed
    request: unknown graphs/patterns/algorithms and invalid query
    vertices come back as [Protocol.Error_r].

    [Apply_delta] mutates the named graph in place: edge inserts are
    applied before deletes, each patching a {!Dsd_graph.Dynamic}
    handle and every live incremental session for that graph
    ({!Dsd_core.Inc_dsd}, created on the first
    [algorithm = "incremental"] request and kept warm across deltas).
    Invalidation is targeted — only the mutated graph's prepared
    (graph, Psi) caches and its result-LRU entries are dropped; other
    graphs' cached results keep hitting.

    The result LRU caches exactly the requests {!Protocol.request_key}
    keys.  Each of them makes one LRU lookup, counted as a hit or a
    miss by the LRU itself (the [Stats] endpoint's tallies) and by the
    [Serve_*] counters of {!Dsd_obs.Counter}, and runs under a
    {!Dsd_obs.Phase.serve_request} span. *)
val handle : t -> Protocol.request -> Protocol.response

(** [clear_results t] empties the result LRU (tallies survive) while
    keeping every prepared per-(graph, Psi) state — how the bench
    isolates "prepared but not cached" latency. *)
val clear_results : t -> unit

(** [cache_stats t] is the [Stats] endpoint's cache section:
    [capacity], [entries], [requests], [hits], [misses], [evictions] —
    the LRU's own tallies, with [requests = hits + misses]. *)
val cache_stats : t -> (string * int) list
