(** Executable metamorphic relations derived from the paper.

    Each relation is an oracle that needs no precomputed expected
    output: it either transforms the input and compares algorithm
    results across the transformation, or checks a theorem's inequality
    on a single run.  All auxiliary randomness (permutations, extra
    components, which edge to add) is drawn from the [rng] argument, so
    a relation replays bit-identically from the same seed — the
    property the shrinker and the reproducer files rely on.

    The registry, with the paper result each encodes:
    - [theorem1-bounds]      kmax/|V_Psi| ≤ rho_opt ≤ kmax (Theorem 1)
    - [approx-ratio]         PeelApp/IncApp/CoreApp are 1/|V_Psi|
                             approximations and never beat the optimum
                             (Theorems 2-4)
    - [permutation-invariance]  relabelling vertices permutes core
                             numbers and preserves rho_opt exactly
    - [disjoint-union]       rho_opt and kmax of a disjoint union are
                             the max over the components
    - [edge-monotonicity]    adding an edge never decreases rho_opt or
                             kmax (instances are subgraph matches)
    - [search-equals-reference]  the exact search equals the float
                             reference searches of Oracle: Exact's
                             density bits and vertices and CoreExact's
                             density equal [reference_cds], query at
                             vertex 0 equals [reference_query], and
                             the top-3 regions equal [reference_cds]
                             iterated on the remaining graph
    - [exact-vs-brute]       Exact = CoreExact = exhaustive subset
                             enumeration on small graphs, bit for bit
    - [planted-certificate]  rho_opt ≥ the density of the certificate
                             subset (sound for any subset; sharp for
                             planted blocks)
    - [serve-equals-api]     every cacheable serve endpoint, through
                             the wire codec and State.handle, cold and
                             again from the result LRU, answers
                             bit-identically to a direct library call
    - [edge-deletion-monotonicity]  deleting an edge never increases
                             rho_opt or kmax (dual of edge-monotonicity)
    - [delta-equals-rebuild] streaming a random delta script through
                             the serve codec and the patched
                             incremental sessions answers bit-identically
                             to a from-scratch rebuild after every
                             batch; failing scripts shrink and print
    - [peel-equals-reference]  the clique and generic peel reproduces
                             the brute-force [Oracle.reference_peel]:
                             core numbers, order, kmax, the kmax-core's
                             instance count, residual-density bits, the
                             best suffix and PeelApp's subgraph
    - [hierarchy-nesting]    the density-friendly chain partitions V
                             into sorted strictly-nested prefixes with
                             strictly decreasing marginal densities,
                             each marginal re-derived by slow counting
    - [hierarchy-level1-equals-cds]  B_1's marginal is bit-identical to
                             rho_opt and its vertex set is the
                             canonical maximal CDS region
    - [hierarchy-equals-reference]  the breakpoint-search hierarchy
                             equals the per-level reference search of
                             Oracle (levels, marginal bits, prefix
                             sizes) in at most two probes per level *)

type verdict =
  | Pass
  | Skip of string  (** relation does not apply to this case *)
  | Fail of string  (** violated; the message is the full evidence *)

type t = {
  name : string;
  check :
    Subject.t -> rng:Dsd_util.Prng.t -> Generator.case -> verdict;
}

val all : t list

(** [find name] is the registry entry, if any. *)
val find : string -> t option

(** [names] in registry order. *)
val names : string list
