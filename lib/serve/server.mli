(** The `dsd serve` daemon: a sequential accept loop speaking
    {!Protocol} over a Unix-domain or TCP listening socket, dispatching
    every frame through {!State.handle}.

    Robustness contract (exercised by the fault-injection suite): a
    malformed frame gets a structured error frame (best effort) and the
    connection is closed; a peer that disconnects mid-frame or goes
    silent past the receive timeout just loses its connection; an
    exception escaping a handler becomes an error response.  None of
    these crash the process or wedge the accept loop — the only way to
    stop a server is a [Shutdown] request (or killing the process). *)

type address =
  | Unix_domain of string
      (** socket path; re-created on bind, appearing only once it
          listens (bound as [path ^ ".tmp"], then renamed) *)
  | Tcp of { host : string; port : int }

(** A server running on a background thread. *)
type t

(** [run ~state addr] binds, listens and serves until a [Shutdown]
    request arrives; then the listening socket is closed (and a
    Unix-domain socket path unlinked) and [run] returns.  Connections
    are served one at a time; a connected peer that sends nothing for
    [receive_timeout_s] (default 30) is disconnected so it cannot
    starve the accept loop.  SIGPIPE is ignored for the whole process
    (writes to dead peers surface as [EPIPE] and close the connection
    instead of killing the daemon).
    @raise Invalid_argument before binding unless [receive_timeout_s]
    is finite and positive (the socket option would read anything else
    as "no timeout"). *)
val run : ?receive_timeout_s:float -> state:State.t -> address -> unit

(** [start ~state addr] is {!run} on a fresh thread, returning once the
    listening socket is bound — a client may connect immediately.
    @raise Invalid_argument in the calling thread, as {!run} does. *)
val start : ?receive_timeout_s:float -> state:State.t -> address -> t

(** [join t] waits for the server thread to finish (i.e. for a
    [Shutdown] request to be served). *)
val join : t -> unit
