(** (k, Psi)-core decomposition — Algorithm 3 of the paper, generalised
    from h-cliques to arbitrary patterns (Section 5.4).

    Peels the minimum-instance-degree vertex; the value popped (run
    through a running maximum) is the vertex's clique-core number, and
    the (k, Psi)-core is exactly the set of vertices whose core number
    is >= k (nestedness, property 1 of Definition 6).

    Three engines:
    - edges (h = 2) peel straight off the graph's CSR: a live-degree
      array and a retired-vertex mask, listing no edge;
    - other cliques and generic patterns materialise all instances
      once ({!Dsd_clique.Instance_store}) and retire them on deletion;
    - star and 4-cycle patterns use the Appendix-D closed-form degrees
      and O(d^2) decrement rules ({!Dsd_pattern.Special}), never
      enumerating instances.

    While peeling, the decomposition optionally tracks the Psi-density
    of every residual graph — the rho' of Pruning1 — at O(1) extra cost
    per step, and remembers the best residual suffix (which is also
    precisely what PeelApp returns). *)

type t = {
  core : int array;                (** clique-core number per vertex *)
  kmax : int;                      (** max clique-core number *)
  kmax_count : int;
      (** c(kmax-core), the instance count of the (kmax, Psi)-core: the
          live count where the running maximum last rises, since the
          kmax-core is a suffix of the peel order *)
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

    Cliques and generic patterns peel round-synchronously
    ({!peel_canonical}) on {!engine}: each level retires the whole
    cascade of vertices at the minimum degree in batched sub-rounds,
    each sub-round in ascending vertex id, and charges every vertex its
    live degree when it is retired — the transcript
    [Dsd_check.Oracle.reference_peel] recomputes by brute force. *)
val decompose :
  ?track_density:bool -> Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> t

(** {1 Peel engines} *)

(** The live instance set of one (graph, Psi) pair: each vertex's live
    instance-degree, and retirement of a vertex with all its live
    instances. *)
type engine

(** [engine g psi] reads the edges of [g] off its CSR when [psi] is the
    edge (h = 2), and otherwise builds an instance store over
    [Enumerate.instances g psi]. *)
val engine : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> engine

(** [of_instances ~n instances] is the instance-store engine over any
    instance list on vertices [0 .. n-1] — what {!engine} builds for
    every pattern but the edge. *)
val of_instances : n:int -> Dsd_clique.Instances.t -> engine

(** mu(G, Psi), live and dead instances together. *)
val total : engine -> int

(** [degree e v] is the number of live instances containing [v]. *)
val degree : engine -> int -> int

(** [kill e v ~on_comember] retires every live instance containing
    [v], calling [on_comember] once per other member of each (after
    that member's degree has been decremented), instances taken in the
    order of their ids in [Enumerate.instances g psi] whatever the
    engine — the order Greedy++'s heap updates, and so its ties,
    follow.  Returns the number retired. *)
val kill : engine -> int -> on_comember:(int -> unit) -> int

(** [reset e] revives every instance. *)
val reset : engine -> unit

(** [peel_canonical e] runs the round-synchronous peel on [e].
    [on_peel v killed] fires once per vertex in canonical peel order,
    where [killed] is v's live instance count at its removal — exactly
    the degree Greedy++ charges to its loads.  Apart from the result it
    allocates O(n) words, whatever the instance count.  The engine is
    consumed (all instances dead on return; {!reset} it to reuse). *)
val peel_canonical :
  ?on_peel:(int -> int -> unit) -> track_density:bool -> engine -> t

(** The skeleton every peel runs on: [n] pops, where [pop ()] yields
    the next vertex with its live degree and [retire v] kills its live
    instances and returns how many died.  Core numbers are the running
    maximum of the popped degrees; the residual-density fields follow
    every retirement, as in {!decompose}. *)
val peel :
  n:int ->
  mu_total:int ->
  track_density:bool ->
  pop:(unit -> (int * int) option) ->
  retire:(int -> int) ->
  t

(** [core_vertices t ~k] is the vertex set of the (k, Psi)-core
    ({v | core(v) >= k}, possibly empty). *)
val core_vertices : t -> k:int -> int array

(** [kmax_core t] is the (kmax, Psi)-core vertex set. *)
val kmax_core : t -> int array

(** [best_residual t] is the vertex set of the densest residual graph
    observed while peeling (requires [track_density]). *)
val best_residual : t -> int array
