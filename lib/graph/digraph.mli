(** Immutable directed simple graphs (CSR, both directions indexed).

    Substrate for the directed densest-subgraph problem (Kannan-Vinay
    density; related work [43, 10, 44] of the paper).  Self loops are
    dropped; parallel arcs collapse. *)

type t

(** [of_edges ~n arcs] with arcs (u, v) meaning u -> v. *)
val of_edges : n:int -> (int * int) array -> t

val of_edge_list : n:int -> (int * int) list -> t

val n : t -> int

(** Number of arcs. *)
val m : t -> int

val out_degree : t -> int -> int
val in_degree : t -> int -> int
val out_neighbors : t -> int -> int array
val in_neighbors : t -> int -> int array
val iter_out : t -> int -> f:(int -> unit) -> unit
val mem_arc : t -> src:int -> dst:int -> bool

(** [iter_arcs t ~f] applies [f u v] once per arc u -> v. *)
val iter_arcs : t -> f:(int -> int -> unit) -> unit

(** [edges_between t ~s ~t_side] = e(S, T): the number of arcs from
    the set [s] into the set [t_side] (sets may overlap, as in the
    directed DSD definition). *)
val edges_between : t -> s:int array -> t_side:int array -> int

val pp : Format.formatter -> t -> unit
