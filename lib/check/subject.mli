(** The system under test, as a record of entry points.

    Relations call the algorithms only through this table, so a test
    can swap in a deliberately broken implementation (the mutation
    self-test of [test/test_metamorphic.ml]) and verify that the fuzz
    engine actually detects it — the harness is itself harnessed. *)

type subgraph = Dsd_core.Density.subgraph

type t = {
  name : string;
  exact : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
      (** Algorithm 1 / PExact *)
  core_exact : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
      (** Algorithm 4 / CorePExact — the reference rho_opt *)
  peel : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
      (** Algorithm 2 *)
  inc_app : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
      (** Algorithm 5 *)
  core_app : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> subgraph;
      (** Algorithm 6 *)
  core_numbers : Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int array;
      (** Algorithm 3 *)
}

(** The real library. *)
val default : t

(** [kmax subject g psi] = max core number (0 on the empty graph). *)
val kmax : t -> Dsd_graph.Graph.t -> Dsd_pattern.Pattern.t -> int
