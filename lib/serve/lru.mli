(** Bounded least-recently-used cache over string keys — the serving
    layer's hot-result store ([--max-cached]).

    Recency is a logical clock bumped on every {!find} hit and {!add};
    when an insert would exceed the capacity, the entry with the oldest
    clock value — exactly the least recently used — is evicted.  The
    cache keeps its own hit/miss/eviction tallies so accounting works
    whether or not {!Dsd_obs} recording is enabled. *)

type 'a t

(** [create ~capacity] holds at most [capacity] entries.
    [capacity = 0] caches nothing (every [add] is dropped, every [find]
    misses).  @raise Invalid_argument if negative. *)
val create : capacity:int -> 'a t

val capacity : _ t -> int

(** Entries currently resident (≤ capacity, always). *)
val length : _ t -> int

(** [find t key] returns the cached value and marks it most recently
    used.  Counts one hit or one miss. *)
val find : 'a t -> string -> 'a option

(** [add t key v] inserts or replaces the binding and marks it most
    recently used.  Returns the key evicted to make room, if any
    (never the key just added; [None] with capacity 0, where nothing
    is ever resident). *)
val add : 'a t -> string -> 'a -> string option

(** Resident keys, most recently used first. *)
val keys_by_recency : _ t -> string list

val hits : _ t -> int
val misses : _ t -> int
val evictions : _ t -> int

val clear : _ t -> unit

(** [remove_where t ~f] drops every entry whose key satisfies [f] —
    targeted invalidation (e.g. all results of one mutated graph).
    Dropped entries are not counted as evictions (they were not
    displaced by capacity pressure).  Returns how many were removed. *)
val remove_where : _ t -> f:(string -> bool) -> int
