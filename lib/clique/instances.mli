(** One flat instance list: [count] instances (h-cliques or pattern
    instances) of [arity] members each, in a single member array of
    exactly [count * arity] ints with instance i's members, sorted
    ascending, at [[i * arity, (i + 1) * arity)].

    This is the only representation of an instance list.  {!Kclist}
    and [Dsd_pattern.Match] write it row by row through {!build},
    {!Instance_store} adopts its member array without copying, and the
    flow builders and peels read it by index.  A value is immutable once built: the
    record is private, and no reader writes into [members] (the store
    and its growable twin share the array they adopt). *)

type t = private {
  arity : int;          (** members per instance, >= 1 *)
  count : int;          (** number of instances *)
  members : int array;  (** exactly [count * arity] ints, row-major *)
}

(** [of_members ~arity members] adopts [members] (no copy) as
    [Array.length members / arity] instances.

    @raise Invalid_argument if [arity < 1] or the length is not a
    multiple of [arity]. *)
val of_members : arity:int -> int array -> t

(** No instances of the given arity. *)
val empty : arity:int -> t

(** [build ~arity fill] runs [fill add]; every [add row] appends the
    first [arity] entries of [row] as the next instance (copied, so
    [row] may be a reused buffer).  The members grow in one doubling
    buffer, trimmed once at the end. *)
val build : arity:int -> ((int array -> unit) -> unit) -> t

(** [get t i] is a fresh copy of instance [i]'s members. *)
val get : t -> int -> int array

(** [filter t ~keep] is the instances [i] with [keep i], in order.
    [keep] is called once per instance, in ascending [i]. *)
val filter : t -> keep:(int -> bool) -> t

(** [count_inside t inside] is the number of instances all of whose
    members [v] have [inside.(v)]: c(S) for the set S that [inside]
    marks. *)
val count_inside : t -> bool array -> int

(** [degrees ~n t] is, for every vertex [v < n], the number of
    instances containing [v]. *)
val degrees : n:int -> t -> int array
