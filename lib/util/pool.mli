(** A reusable pool of worker domains.

    OCaml 5 domains are heavyweight (each spawn forks a full runtime
    participant), so spawning per parallel call — as the first cut of
    {!Dsd_clique.Parallel} did — wastes milliseconds per phase and
    caps how fine-grained parallelism can be.  A [Pool.t] spawns its
    workers once; every parallel phase then submits jobs to the same
    domains.

    {2 Determinism contract}

    All iteration primitives split [0 .. n-1] into {e contiguous}
    chunks, and chunked results are always merged in chunk-index
    order, so the merged sequence covers [0 .. n-1] in order no matter
    how chunks were scheduled or how many domains ran them.  Hence any
    computation whose per-index work is pure — or commutes like
    integer addition — produces results bit-identical to a sequential
    loop, for every pool size.  This is the invariant the parallel
    solvers build on: parallel decompositions return exactly the
    sequential answer.

    {2 Blocking contract}

    Jobs run to completion on the calling domain plus the workers; the
    caller participates, so a pool of size 1 degenerates to an
    ordinary loop with no synchronisation beyond two atomics.  Pools
    are not re-entrant: submitting a job while another is running
    (from inside a job body, or from another thread) raises {!Nested}
    rather than deadlocking. *)

type t

(** Raised when a job is submitted to a pool that is already running
    one — e.g. from inside a job body. *)
exception Nested

(** [create size] makes a pool of [size - 1] worker domains plus the
    caller, so [size] is the total parallelism.  [size] must be ≥ 1.
    The workers are spawned lazily, by the first job large enough to
    engage them: idle domains still take part in GC barriers, so a
    pool whose every job falls back to the inline path costs exactly
    nothing over not having a pool.

    [sequential_below] (default {!default_sequential_below}) is the
    work-item threshold under which a job runs inline on the calling
    domain instead of waking the workers: small jobs pay more in
    condition-variable round trips than the loop costs.  The fallback
    is semantics-preserving — chunk boundaries, merge order, exception
    behaviour and the busy/Nested discipline are identical; only the
    scheduling changes.  Pass [~sequential_below:0] to force every job
    onto the workers (tests that must exercise multi-domain paths). *)
val create : ?sequential_below:int -> int -> t

(** Total parallelism (caller + workers), as passed to {!create}. *)
val size : t -> int

(** The pool's inline-fallback threshold. *)
val sequential_below : t -> int

(** [parallel_width t ~n] is the number of domains a job over [n] work
    items will actually run on: [1] when it falls under the inline
    threshold, [size t] otherwise.  Callers that derive an explicit
    [chunk] from the pool size should divide by this instead, so a job
    destined for the inline path is not split — and does not pay any
    per-chunk setup — as if all workers were coming. *)
val parallel_width : t -> n:int -> int

(** Default [sequential_below] (65536 work items). *)
val default_sequential_below : int

(** Join the worker domains (a no-op when none were ever spawned).
    The pool must be idle; using it afterwards raises
    [Invalid_argument]. *)
val shutdown : t -> unit

(** [with_pool size f] = [create], [f], [shutdown] (also on
    exception). *)
val with_pool : ?sequential_below:int -> int -> (t -> 'a) -> 'a

(** [parallel_for t ?chunk ?wrap ~n f] calls [f lo hi] for
    contiguous chunks [lo, hi) covering [0 .. n-1] exactly once,
    distributed over the pool by work stealing.  [chunk] is the chunk
    length (default: a fraction of [n / size], at least 1).  [wrap] runs once around each domain's participation — every
    domain participates in every job, even when it claims no chunks —
    which is where callers attach per-domain observability spans.  An
    exception from [f] is re-raised in the caller after the job drains
    (first one wins). *)
val parallel_for :
  t ->
  ?chunk:int ->
  ?wrap:((unit -> unit) -> unit) ->
  n:int ->
  (int -> int -> unit) ->
  unit

(** [map_chunks t ?chunk ?wrap ~n f] is {!parallel_for} with
    one result per chunk, returned in chunk-index order (i.e.
    ascending [lo]) regardless of which domain computed which chunk. *)
val map_chunks :
  t ->
  ?chunk:int ->
  ?wrap:((unit -> unit) -> unit) ->
  n:int ->
  (int -> int -> 'a) ->
  'a array

(** [fold_chunks t ?chunk ?wrap ~n ~init ~merge f] folds the
    {!map_chunks} results left-to-right in chunk order:
    [merge (… (merge init r0) …) rk].  Deterministic reduction even
    for non-commutative [merge]. *)
val fold_chunks :
  t ->
  ?chunk:int ->
  ?wrap:((unit -> unit) -> unit) ->
  n:int ->
  init:'b ->
  merge:('b -> 'a -> 'b) ->
  (int -> int -> 'a) ->
  'b

(** [set_job_reporter f] installs a utilization hook called once per
    completed job (inline or fanned out) with the job's chunk count
    and the per-participant claim tally ([claimed.(0)] is the calling
    domain, [claimed.(i)] worker [i]).  Runs on the calling domain
    after the job drains.  {!Dsd_obs} installs a reporter that feeds
    the [pool_*] counters; the default reporter does nothing. *)
val set_job_reporter : (chunks:int -> claimed:int array -> unit) -> unit
