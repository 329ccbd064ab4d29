(** Min-heap over items [0 .. n-1] with lazy decrease-key.

    The bucket queue ({!Bucket_queue}) needs an array of size max-key;
    star-pattern degrees reach C(d, x) and would blow that up.  This
    heap instead pushes a fresh (key, item) pair on every update and
    discards stale pairs at pop time — O(log size) per operation with
    size bounded by the number of updates.

    The heap is two plain int arrays (keys and items) plus a length,
    grown by doubling, so a sift step reads and writes array slots
    directly.  Ties are broken by the heap layout alone: the pop
    order, ties included, is a pure function of the operation
    sequence, and Greedy++'s later rounds and the star and 4-cycle
    peels depend on it ([test_util]'s "lazy heap tie order" pins
    it). *)

type t

val create : n:int -> t

(** [add t ~item ~key] inserts an absent item. *)
val add : t -> item:int -> key:int -> unit

val mem : t -> int -> bool
val key : t -> int -> int
val cardinal : t -> int

(** [update t ~item ~key] changes a present item's key (any
    direction). *)
val update : t -> item:int -> key:int -> unit

val remove : t -> int -> unit

(** [pop_min t] removes and returns a minimum-key item, or [None]. *)
val pop_min : t -> (int * int) option
