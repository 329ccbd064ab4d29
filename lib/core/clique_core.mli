(** (k, Psi)-core decomposition — Algorithm 3 of the paper, generalised
    from h-cliques to arbitrary patterns (Section 5.4).

    Peels the minimum-instance-degree vertex; the value popped (run
    through a running maximum) is the vertex's clique-core number, and
    the (k, Psi)-core is exactly the set of vertices whose core number
    is >= k (nestedness, property 1 of Definition 6).

    Two engines:
    - the generic engine materialises all instances once
      ({!Dsd_clique.Instance_store}) and retires them on deletion;
    - star and 4-cycle patterns use the Appendix-D closed-form degrees
      and O(d^2) decrement rules ({!Dsd_pattern.Special}), never
      enumerating instances.

    While peeling, the decomposition optionally tracks the Psi-density
    of every residual graph — the rho' of Pruning1 — at O(1) extra cost
    per step, and remembers the best residual suffix (which is also
    precisely what PeelApp returns). *)

type t = {
  psi : Dsd_pattern.Pattern.t;
  core : int array;                (** clique-core number per vertex *)
  kmax : int;                      (** max clique-core number *)
  order : int array;               (** peel order; suffixes are the residual graphs *)
  mu_total : int;                  (** mu(G, Psi) *)
  best_residual_density : float;   (** rho' = max residual density (incl. full graph) *)
  best_residual_start : int;       (** the suffix order.(start ..) attains rho' *)
  best_residual_count : int;       (** its instance count: rho' = count / (n - start) *)
  residual_densities : float array;
      (** residual_densities.(i) = Psi-density of the residual graph
          order.(i ..); index 0 is the whole graph.  Empty unless
          [track_density]. *)
}

(** [decompose g psi] runs the decomposition.  [~track_density:false]
    skips the rho' bookkeeping (IncApp mode); the density fields are
    then 0.

    The generic engine peels round-synchronously (bucket-free): each
    level retires the whole cascade of vertices at the minimum degree
    in batched sub-rounds, linearised in ascending vertex id, with
    per-step residual densities recovered exactly from read-only
    "owned instance" counts.  [?pool] fans the enumeration and the
    per-round scans out across a shared domain pool; chunk boundaries
    are fixed constants, so {e every} field of the result — core
    numbers, peel order, residual-density transcript — is bit-identical
    for every pool size, including no pool at all. *)
val decompose :
  ?pool:Dsd_util.Pool.t ->
  ?track_density:bool -> Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> t

(** The round-synchronous peel engine itself, over a prepared
    {!Dsd_clique.Instance_store} on vertices [0 .. n-1].  Returns
    [(core, order, kmax, best_density, best_start, best_count,
    residuals)] — the density fields are 0 / empty unless
    [track_density].  [on_peel v
    killed] fires once per vertex in canonical peel order, where
    [killed] is v's live instance count at its (linearised) removal
    step — exactly the degree Greedy++ charges to its loads.  The
    store is consumed (all instances dead on return; [reset] it to
    reuse). *)
val peel_store :
  ?pool:Dsd_util.Pool.t ->
  ?on_peel:(int -> int -> unit) ->
  track_density:bool ->
  n:int ->
  Dsd_clique.Instance_store.t ->
  int array * int array * int * float * int * int * float array

(** [core_vertices t ~k] is the vertex set of the (k, Psi)-core
    ({v | core(v) >= k}, possibly empty). *)
val core_vertices : t -> k:int -> int array

(** [kmax_core t] is the (kmax, Psi)-core vertex set. *)
val kmax_core : t -> int array

(** [best_residual t] is the vertex set of the densest residual graph
    observed while peeling (requires [track_density]). *)
val best_residual : t -> int array
