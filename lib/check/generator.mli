(** Composable random test-case generators for the fuzz engine.

    Every generator is a pure function of a {!Dsd_util.Prng.t}: equal
    states sample equal cases, which is what makes a failing case
    replayable from its seed alone.  Graphs are kept small (n ≤ ~20)
    so that every metamorphic relation — including the brute-force and
    exact-flow ones — stays cheap enough to run hundreds of cases per
    second.

    Planted generators additionally carry a {e certificate}: a vertex
    subset whose (recomputed) Psi-density is a sound lower bound on
    rho_opt.  The certificate survives shrinking because the relation
    re-evaluates the subset's density on the current graph rather than
    trusting a stored number. *)

type case = {
  graph : Dsd_graph.Graph.t;
  psi : Dsd_pattern.Pattern.t;
  cert : int array option;
      (** sorted vertex subset whose density lower-bounds rho_opt *)
  label : string;  (** generator name + parameters, for reports *)
}

type t = {
  name : string;
  sample : Dsd_util.Prng.t -> case;
}

(** Erdős-Rényi G(n, p) over a random psi. *)
val gnp : t

(** Chung-Lu power-law degrees over a random psi. *)
val chung_lu : t

(** Disjoint union of two independent G(n, p) halves — exercises the
    component relations with genuinely disconnected inputs. *)
val union_of_gnp : t

(** Sparse ER background with an h-clique-complete block planted on a
    random vertex subset; psi is the h-clique and the block is the
    certificate (density ≥ C(block, h) / block). *)
val planted_block : t

(** Very sparse near-tree graphs — exercises the empty/zero-instance
    corners (kmax = 0, rho = 0). *)
val sparse : t

(** The registry, in fixed order. *)
val all : t list

(** [sample rng] picks a generator uniformly and samples one case. *)
val sample : Dsd_util.Prng.t -> case

(** [malformed_frame rng] is [(label, bytes)] where [bytes] is a
    deliberately broken serve-protocol frame — truncated header or
    body, oversized or undersized length prefix, wrong version,
    unknown tag, or garbage body.  Built by hand, independently of
    {!Dsd_serve.Protocol}, so the fault-injection tests cannot be
    fooled by a codec that "agrees" with its own corruption. *)
val malformed_frame : Dsd_util.Prng.t -> string * string
