(** Immutable undirected simple graphs in compressed sparse row form.

    Vertices are dense integers [0 .. n-1].  Neighbour lists are sorted,
    deduplicated, and never contain self loops, so adjacency tests are
    O(log d) and neighbourhood intersections are linear merges.  This is
    the substrate every algorithm in the library runs on (Section 3 of
    the paper: undirected, unweighted, simple graphs). *)

type t

(** {1 Construction} *)

(** [of_edges ~n edges] builds a graph on vertices [0..n-1].  Duplicate
    edges, reversed duplicates and self loops are dropped.
    @raise Invalid_argument if an endpoint is outside [0..n-1]. *)
val of_edges : n:int -> (int * int) array -> t

(** [of_edge_list ~n edges] is [of_edges] over a list. *)
val of_edge_list : n:int -> (int * int) list -> t

(** [of_csr ~n ~row ~col] adopts ready-made CSR arrays — the
    binary-snapshot load path ({!Dsd_serve.Snapshot}), which reads the
    arrays straight off disk instead of re-parsing an edge list.  The
    arrays are owned by the graph afterwards and must not be mutated.
    @raise Invalid_argument unless the arrays satisfy every invariant
    [of_edges] establishes: [row] has [n + 1] monotone offsets spanning
    [col] exactly, each neighbour list is strictly increasing, in
    range, loop-free, and the adjacency is symmetric. *)
val of_csr : n:int -> row:int array -> col:int array -> t

(** [empty n] has [n] vertices and no edges. *)
val empty : int -> t

(** [complete n] is K_n. *)
val complete : int -> t

(** {1 Accessors} *)

(** Number of vertices [n = |V|]. *)
val n : t -> int

(** Number of undirected edges [m = |E|]. *)
val m : t -> int

(** [degree g v] is the number of neighbours of [v]. *)
val degree : t -> int -> int

(** [max_degree g] is the paper's [d]. *)
val max_degree : t -> int

(** [neighbors g v] is the sorted neighbour array of [v], copied with
    [Array.sub] on every call.  Convenient for tests; hot loops should
    use {!iter_neighbors}, {!fold_neighbors} or
    {!iter_common_neighbors}, which never allocate. *)
val neighbors : t -> int -> int array

(** [iter_neighbors g v ~f] applies [f] to each neighbour of [v] in
    increasing order.  Allocation-free. *)
val iter_neighbors : t -> int -> f:(int -> unit) -> unit

(** [fold_neighbors g v ~init ~f] folds [f] over the neighbours of [v]
    in increasing order.  Allocation-free (for unboxed accumulators). *)
val fold_neighbors : t -> int -> init:'a -> f:('a -> int -> 'a) -> 'a

(** [iter_common_neighbors g u v ~f] applies [f] to each common
    neighbour of [u] and [v] in increasing order — a linear merge of
    the two sorted rows, directly on the CSR arrays, with no per-call
    allocation (unlike pairing {!neighbors} with a manual merge). *)
val iter_common_neighbors : t -> int -> int -> f:(int -> unit) -> unit

(** [mem_edge g u v] tests adjacency in O(log min-degree). *)
val mem_edge : t -> int -> int -> bool

(** [iter_edges g ~f] applies [f u v] once per undirected edge with
    [u < v]. *)
val iter_edges : t -> f:(int -> int -> unit) -> unit

(** [edges g] lists the edges as pairs with [u < v]. *)
val edges : t -> (int * int) array

(** [degrees g] is the degree sequence (fresh array). *)
val degrees : t -> int array

(** {1 Derived graphs} *)

(** [induced g vs] is the subgraph induced by the vertex set [vs]
    (duplicates ignored), together with the map from new vertex ids to
    the original ids.  New ids preserve the relative order of old
    ids, so each kept row stays sorted and the CSR is written directly:
    O(|vs| log |vs| + sum of the kept rows' degrees), no edge list. *)
val induced : t -> int array -> t * int array

(** [induced_mask g keep] is [induced] over [{ v | keep.(v) }]. *)
val induced_mask : t -> bool array -> t * int array

(** {1 Comparison and display} *)

(** Structural equality (same n, same edge set). *)
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
