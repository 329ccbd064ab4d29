(** Client side of the `dsd serve` protocol, shared by the
    `dsd client` subcommand, the differential tests and the bench.

    One {!t} is one connection; requests on it are answered in order
    (the protocol has no pipelining ids, so callers interleave
    themselves). *)

type t

(** [connect addr] opens one connection.  A failed connect closes the
    socket it opened before raising.

    @raise Unix.Unix_error if the server is not reachable. *)
val connect : Server.address -> t

val close : t -> unit

(** [call t req] sends one request and blocks for its response.
    @raise Protocol.Error if the server closed the connection or sent
    a malformed frame. *)
val call : t -> Protocol.request -> Protocol.response

(** [once addr req] is connect / {!call} / close. *)
val once : Server.address -> Protocol.request -> Protocol.response
