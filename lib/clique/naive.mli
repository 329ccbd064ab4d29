(** Baseline h-clique enumerator by plain backtracking (extend the
    current clique with higher-numbered common neighbours).

    Exponentially slower than {!Kclist} on dense graphs; retained as an
    independent oracle for tests. *)

val iter : Dsd_graph.Graph.t -> h:int -> f:(int array -> unit) -> unit
val count : Dsd_graph.Graph.t -> h:int -> int
val list : Dsd_graph.Graph.t -> h:int -> Instances.t
