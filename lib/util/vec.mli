(** Growable arrays of unboxed ints.

    Used on hot paths (instance postings, network construction) where
    OCaml lists or [Buffer]-style structures would box or fragment. *)

module Int : sig
  type t

  val create : ?capacity:int -> unit -> t
  val length : t -> int
  val get : t -> int -> int
  val set : t -> int -> int -> unit
  val push : t -> int -> unit

  (** [pop t] removes and returns the last element.
      @raise Invalid_argument on an empty vector. *)
  val pop : t -> int

  val clear : t -> unit
  val to_array : t -> int array
  val iter : (int -> unit) -> t -> unit
  val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
end
