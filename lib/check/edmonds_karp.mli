(** Edmonds-Karp (BFS augmenting paths) maximum flow.

    Slower than {!Dsd_flow.Dinic} but textbook-simple; an independent
    oracle so property tests can cross-check the two solvers on random
    networks. *)

(** Returns the flow pushed {e by this call}; like
    {!Dsd_flow.Dinic.max_flow} it resumes correctly from any feasible
    residual state, so it can warm-start from a previous probe's
    flow. *)
val max_flow : Dsd_flow.Flow_network.t -> s:int -> t:int -> float
