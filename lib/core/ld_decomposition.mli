(** Density-friendly (locally-dense) graph decomposition — Tatti &
    Gionis, WWW'15; Danisch et al., WWW'17 (the paper's related work
    [64, 18]), generalised from edges to any Psi.

    Produces the chain ∅ = B_0 ⊂ B_1 ⊂ ... ⊂ B_t = V where each
    augmentation X_i = B_i \ B_{i-1} maximises the *marginal* density
    (mu(B_i) - mu(B_{i-1})) / |X_i|; the marginal densities are
    strictly decreasing and B_1 is exactly the densest subgraph.  The
    chain is the principal sequence of the parametric min cut the
    exact algorithms solve (Tatti, arXiv:1904.03467): its positive
    levels are the breakpoints of f(alpha) = max_S mu(S) - alpha |S|,
    and each B_i is the maximal maximiser just below its level's
    marginal. *)

type level = {
  vertices : int array;       (** the new vertices X_i of this level, sorted *)
  marginal_density : float;   (** (mu(B_i) - mu(B_{i-1})) / |X_i| *)
  prefix_size : int;          (** |B_i| *)
}

type t = {
  levels : level list;        (** outermost-first: head is B_1 *)
  iterations : int;           (** min-cut probes: 2L - 1 for L positive levels *)
  elapsed_s : float;
}

(** [decompose g psi].  The union of all level vertex sets is V; the
    first level is the canonical (maximal) Psi-densest subgraph of
    [g].

    A breakpoint search (Eisner–Severance; Gallo–Grigoriadis–Tarjan)
    over one unpinned {!Parametric.arena} on [g]: starting from
    A = ∅ and B = the vertices in some instance, it probes once at
    alpha = p / q with p = mu(B) - mu(A) and q = |B| - |A|
    ({!Parametric.probe_rational}, so the cut is exact).  A source side
    S with (mu(S) - mu(A)) q > p (|S| - |A|) splits the chord into
    (A, S) and (S, B); otherwise B \ A is one level with marginal
    [float p /. float q].  Every tie is decided by that integer
    comparison.  The vertices in no instance form the final zero
    level.  L positive levels cost exactly 2L - 1 probes.

    [?pool] fans enumeration and the network build across a domain
    pool; results are bit-identical at every width.

    Emits one [ld] span; counts [ld_levels] / [ld_probes]. *)
val decompose :
  ?pool:Dsd_util.Pool.t ->
  Dsd_graph.Graph.t ->
  Dsd_pattern.Pattern.t ->
  t

(** [prefix t i] is B_i (the union of the first [i] levels), sorted.
    [prefix t 0 = [||]]; [prefix t (List.length t.levels)] is all of V.

    @raise Invalid_argument when [i < 0] or [i > List.length t.levels]. *)
val prefix : t -> int -> int array
