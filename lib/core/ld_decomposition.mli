(** Density-friendly (locally-dense) graph decomposition — Tatti &
    Gionis, WWW'15; Danisch et al., WWW'17 (the paper's related work
    [64, 18]), generalised from edges to any Psi.

    Produces the chain ∅ = B_0 ⊂ B_1 ⊂ ... ⊂ B_t = V where each
    augmentation X_i = B_i \ B_{i-1} maximises the *marginal* density
    (mu(B_i) - mu(B_{i-1})) / |X_i|; the marginal densities are
    strictly decreasing and B_1 is exactly the densest subgraph.  Each
    level is found by the same pinned min-cut binary search as the
    query variant: with B pinned to the source side, the min cut
    maximises mu(S) - alpha |S| over S ⊇ B. *)

type level = {
  vertices : int array;       (** the new vertices X_i of this level, sorted *)
  marginal_density : float;   (** (mu(B_i) - mu(B_{i-1})) / |X_i| *)
  prefix_size : int;          (** |B_i| *)
}

type t = {
  levels : level list;        (** outermost-first: head is B_1 *)
  iterations : int;           (** total min-cut probes (incl. canonicalization cuts) *)
  elapsed_s : float;
}

(** [decompose g psi].  The union of all level vertex sets is V; the
    first level is the canonical (maximal) Psi-densest subgraph of [g]
    — each level ends with one extra cut at [marginal - stop_gap],
    where the maximiser of mu(S) - alpha |S| is unique (max-marginal
    augmentations are closed under union), so the chain is the
    density-friendly decomposition itself, not an arbitrary
    max-marginal chain.

    Probes run on a per-level {!Parametric.arena}, built at its first
    probe, and each subsequent alpha is an O(V) {!Flow_build.retarget} that
    keeps the committed flow ([~warm:false] resets it;
    [~prepared:false] falls back to building every network from
    scratch — both escape hatches are bit-identical to the default).
    Candidates are core-restricted per level: level 1 searches the
    ceil(l0)-core of the Theorem-1 sandwich (as {!Topk_lds}), later
    levels the (1, Psi)-core.  [?decomp] reuses a caller's
    density-tracked core decomposition; [?pool] fans enumeration and
    peeling across a domain pool.  Results are bit-identical for every
    option combination.

    Emits one [ld] span; counts [ld_levels] / [ld_probes] /
    [ld_retargets]. *)
val decompose :
  ?pool:Dsd_util.Pool.t ->
  ?decomp:Clique_core.t ->
  ?prepared:bool ->
  ?warm:bool ->
  Dsd_graph.Graph.t ->
  Dsd_pattern.Pattern.t ->
  t

(** [prefix t i] is B_i (the union of the first [i] levels), sorted.
    [prefix t 0 = [||]]; [prefix t (List.length t.levels)] is all of V.

    @raise Invalid_argument when [i < 0] or [i > List.length t.levels]. *)
val prefix : t -> int -> int array
