(** A mutable graph handle over a fixed vertex set supporting edge
    insert/delete batches: symmetric adjacency sets plus a CSR
    snapshot cached between mutations.

    The handle is the substrate of the incremental DSD subsystem
    ({!module:Dsd_core.Inc_dsd}, [dsd watch], the serve apply-delta
    endpoint), which reads only adjacency and the snapshot.  An edge
    change is one update of each endpoint's adjacency set: it
    allocates only the cells an insert adds, plus an occasional table
    resize.

    Self-loops, duplicate inserts and absent deletes are no-ops (the
    mutators return [false]); vertex ids outside [0 .. n-1] raise.
    Mutations bump the [Delta_edges_added] / [Delta_edges_removed]
    observability counters. *)

type t

type op =
  | Add of int * int
  | Remove of int * int

(** [create ~n edges] starts from the given edge set (duplicate pairs
    and self-loops are rejected by [Graph.of_edges]). *)
val create : n:int -> (int * int) array -> t

(** Start from an immutable graph (shares no state with it). *)
val of_graph : Graph.t -> t

val n : t -> int
val m : t -> int
val mem_edge : t -> int -> int -> bool

(** Sorted neighbour ids of a vertex. *)
val neighbors : t -> int -> int array

(** Sorted common neighbour ids of two vertices (used for incremental
    h-clique instance discovery around a changed edge). *)
val common_neighbors : t -> int -> int -> int array

(** [add_edge t u v] inserts the edge; returns [false] (and changes
    nothing) on self-loops and existing edges. *)
val add_edge : t -> int -> int -> bool

(** [remove_edge t u v] deletes the edge; returns [false] on
    self-loops and absent edges. *)
val remove_edge : t -> int -> int -> bool

(** [apply t ops] applies a batch in order; returns how many ops
    actually changed the graph. *)
val apply : t -> op array -> int

(** Immutable CSR snapshot of the current edge set; cached until the
    next mutation, so repeated queries between batches are free. *)
val snapshot : t -> Graph.t
