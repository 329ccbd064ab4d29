(** Multicore h-clique enumeration on a shared domain pool (Section
    6.3: "existing parallel k-core decomposition algorithms can be
    easily extended...").

    kClist's recursion trees are independent per root vertex, so roots
    are split into contiguous chunks claimed dynamically by the pool's
    domains.  Chunked results merge in chunk order, which makes even
    the order-sensitive product — the instance {e list} — bit-identical
    to the sequential {!Kclist} enumeration for every pool size.  This
    parallelises the dominant cost of every approximation algorithm
    (clique-degree computation) and feeds the parallel peeling and
    flow-network phases in [Dsd_core]. *)

(** [count_in pool g ~h] = [Kclist.count g ~h], computed across
    [pool]. *)
val count_in : Dsd_util.Pool.t -> Dsd_graph.Graph.t -> h:int -> int

(** [degrees_in pool g ~h] = [Clique_count.degrees g ~h] in
    parallel. *)
val degrees_in : Dsd_util.Pool.t -> Dsd_graph.Graph.t -> h:int -> int array

(** [list_in pool g ~h] = [Kclist.list g ~h]: the instances in exactly
    the sequential enumeration order.  Each chunk lists its root range
    into its own flat buffer; the buffers are concatenated once, in
    chunk order. *)
val list_in : Dsd_util.Pool.t -> Dsd_graph.Graph.t -> h:int -> Instances.t

(** [count g ~h ~domains] spins up a transient pool of [domains]
    domains (≥ 1) for one counting job.  Prefer [count_in] with a
    long-lived pool; this survives for callers that parallelise a
    single call. *)
val count : Dsd_graph.Graph.t -> h:int -> domains:int -> int

(** [degrees g ~h ~domains] = [Clique_count.degrees g ~h] on a
    transient pool. *)
val degrees : Dsd_graph.Graph.t -> h:int -> domains:int -> int array

(** Domains to use by default: the [DSD_DOMAINS] environment variable
    when set to a positive integer, otherwise
    [Domain.recommended_domain_count ()] (uncapped). *)
val recommended_domains : unit -> int

(** Like {!recommended_domains}, but the hardware fallback is capped at
    4 — the CLI's out-of-the-box default ([dsd] without [--domains] and
    with [DSD_DOMAINS] unset).  [--domains 1] remains the escape hatch
    that forces every phase onto the calling domain. *)
val default_domains : unit -> int
