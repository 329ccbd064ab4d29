(** Baseline h-clique enumerator by plain backtracking (extend the
    current clique with higher-numbered common neighbours).

    Exponentially slower than {!Dsd_clique.Kclist} on dense graphs;
    an independent oracle for the tests and {!Oracle}. *)

val iter : Dsd_graph.Graph.t -> h:int -> f:(int array -> unit) -> unit
val count : Dsd_graph.Graph.t -> h:int -> int
val list : Dsd_graph.Graph.t -> h:int -> Dsd_clique.Instances.t
