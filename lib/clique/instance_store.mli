(** Materialised store of instance hyperedges (h-cliques or pattern
    instances) with per-vertex postings and liveness bits.

    Algorithm 3's (k, Psi)-core decomposition deletes a vertex and must
    retire every instance containing it while decrementing the
    instance-degrees of the co-members.  Materialising the instance set
    once makes each deletion cost proportional to the retired
    instances — the same O(n * C(d-1, h-1)) total bound as the paper's
    re-enumeration formulation, without repeated neighbourhood
    enumeration.

    The store adopts the member array of an {!Instances.t} as its
    member arena without copying it (it never writes there); only the
    per-vertex postings, liveness bits and degrees are built.  Members
    and postings are flat contiguous arrays behind CSR-style offsets,
    so a vertex's retirement walks one posting range and one member
    run per instance instead of chasing heap blocks. *)

type t

(** [create ~n instances] indexes instances over vertices [0..n-1],
    adopting [instances]' member array.  Each instance must be
    duplicate-free.

    @raise Invalid_argument if a member lies outside [0..n-1]. *)
val create : n:int -> Instances.t -> t

(** Total number of instances (live and dead). *)
val total : t -> int

(** Number of currently live instances. *)
val live_total : t -> int

(** [degree t v] is the number of live instances containing [v] (the
    instance-degree deg(v, Psi) restricted to live instances). *)
val degree : t -> int -> int

(** [degrees t] is the live degree array itself, indexed by vertex,
    which {!kill_vertex}, {!kill_instance} and {!reset} update in place:
    a peel reads it without a call per vertex.  Callers must not write
    it. *)
val degrees : t -> int array

(** [kill_vertex t v ~on_comember] retires every live instance
    containing [v].  For each retired instance, [on_comember] is called
    once per member other than [v] (after that member's degree has been
    decremented).  Returns the number of instances retired. *)
val kill_vertex : t -> int -> on_comember:(int -> unit) -> int

(** [kill_instance t i] retires a single live instance, decrementing
    all member degrees.  No-op on a dead instance. *)
val kill_instance : t -> int -> unit

(** [iter_live_of_vertex t v ~f] visits ids of live instances
    containing [v]. *)
val iter_live_of_vertex : t -> int -> f:(int -> unit) -> unit

(** [reset t] revives all instances and restores initial degrees. *)
val reset : t -> unit

(** Growable store for the incremental subsystem: instances are
    appended as edge inserts discover them and tombstoned as deletes
    destroy them.  Ids are append-ordered and never reused, so the
    incremental flow arena can key per-instance arcs by them; postings
    are append-only and may contain dead ids (iteration filters on
    liveness).  Members live in one stride-arity arena that starts as
    the adopted member array of the initial list and is copied out,
    doubled, by the first append. *)
module Dyn : sig
  type store

  (** [create ~n instances] starts from the given live instances, in
      order (ids [0 .. count-1]), adopting their member array; every
      later instance has the same arity.

      @raise Invalid_argument if a member lies outside [0..n-1]. *)
  val create : n:int -> Instances.t -> store

  (** Total ids allocated so far (live and dead). *)
  val total : store -> int

  val live_total : store -> int

  (** [iter_members t i ~f] visits instance [i]'s members without
      copying them out of the arena. *)
  val iter_members : store -> int -> f:(int -> unit) -> unit

  val is_live : store -> int -> bool

  (** Number of live instances containing [v]. *)
  val degree : store -> int -> int

  (** [append t members] registers a new live instance; returns its id.

      @raise Invalid_argument if [members] does not have the store's
      arity or a member lies outside [0..n-1]. *)
  val append : store -> int array -> int

  (** [retire t i] tombstones instance [i], decrementing member
      degrees; returns [false] if it was already dead. *)
  val retire : store -> int -> bool

  (** [retire_edge t u v ~f] retires every live instance containing
      both [u] and [v] (the instances destroyed by deleting edge
      [(u,v)]), calling [f] with each retired id.  Returns the count. *)
  val retire_edge : store -> int -> int -> f:(int -> unit) -> int

  val iter_live_of_vertex : store -> int -> f:(int -> unit) -> unit

  (** The live instances in id order, as a fresh flat list — the input
      for rebuilding a compacted store and arena. *)
  val live_members : store -> Instances.t
end
