(** The `dsd serve` wire protocol: length-prefixed binary frames over a
    Unix-domain or TCP stream socket.

    Frame layout: a 4-byte big-endian payload length, then the payload
    — one version byte, one tag byte, and the tag-specific body.  The
    length covers the version and tag bytes, is at least 2 and at most
    {!max_frame}; anything else (including a stream that ends inside a
    frame) raises {!Error}, which the server answers with a structured
    error frame or a clean close — never a crash.

    Scalars inside bodies are 8-byte big-endian integers; strings and
    int arrays are length-prefixed (with lengths validated against the
    bytes actually present, so a forged length cannot over-allocate);
    floats travel as their IEEE-754 bit patterns
    ({!Int64.bits_of_float}), which is what makes server responses
    bit-identical to in-process API results, not merely close.

    Each endpoint is declared once, as one row of the table in
    [protocol.ml]: its tag, whether its answers may be cached, and the
    body layouts of its request and of its OK response.  The encoders,
    the decoders, {!request_key} and {!key_graph} are all derived from
    those rows.  A request frame carries its row's tag; an OK response
    travels under tag 0x40 and its body starts with a kind byte equal
    to its request's tag; an error travels under tag 0x7f. *)

(** Malformed frame or body.  The message never echoes payload bytes. *)
exception Error of string

(** Protocol version carried by every frame. *)
val version : int

(** Hard upper bound on a frame payload (bytes). *)
val max_frame : int

(** {1 Requests and responses} *)

type request =
  | Ping
  | Stats
  | Density of { graph : string; psi : string; algorithm : string }
      (** just the optimum Psi-density *)
  | Cds of { graph : string; psi : string; algorithm : string }
      (** density plus the witness vertex set *)
  | Decompose of { graph : string; psi : string }
  | Query of { graph : string; psi : string; vertices : int array }
  | Apply_delta of {
      graph : string;
      adds : (int * int) array;
      removes : (int * int) array;
    }  (** mutate a served graph in place: inserts, then deletes *)
  | Topk of { graph : string; psi : string; k : int }
      (** the k disjoint locally densest regions ({!Dsd_core.Topk_lds}) *)
  | Hierarchy of { graph : string; psi : string; levels : int }
      (** the density-friendly decomposition
          ({!Dsd_core.Ld_decomposition}); [levels = 0] returns the whole
          chain, [levels > 0] only its first [levels] entries *)
  | Shutdown

type response =
  | Pong
  | Stats_r of {
      counters : (string * int) list;  (** {!Dsd_obs.Counter.snapshot} *)
      cache : (string * int) list;     (** requests/hits/misses/evictions/... *)
      graphs : string list;            (** one ["name n=… m=…"] line each *)
    }
  | Density_r of float
  | Cds_r of { density : float; vertices : int array }
  | Decompose_r of { kmax : int; core : int array }
  | Query_r of { density : float; vertices : int array }
  | Apply_delta_r of { n : int; m : int; added : int; removed : int }
      (** post-delta size plus how many ops actually changed the graph *)
  | Topk_r of { regions : (float * int array) list }
      (** (density, vertices) in extraction order, densities
          non-increasing *)
  | Hierarchy_r of { levels : (float * int array) list }
      (** (marginal density, new vertices) outermost first, marginals
          strictly decreasing *)
  | Shutdown_r
  | Error_r of string

(** {1 Frame I/O} *)

(** [read_frame fd] blocks for one frame.  [None] on a clean
    end-of-stream (the peer closed between frames).
    @raise Error on truncation mid-frame, an oversized or undersized
    length prefix, or a version mismatch.
    @raise Unix.Unix_error as the underlying reads do (e.g. a receive
    timeout). *)
val read_frame : Unix.file_descr -> (int * string) option

(** [write_frame fd ~tag body] writes one frame.
    @raise Error if the payload would exceed {!max_frame}. *)
val write_frame : Unix.file_descr -> tag:int -> string -> unit

(** {1 Typed encode/decode} *)

val encode_request : request -> int * string

(** @raise Error on an unknown tag or a malformed body. *)
val decode_request : int -> string -> request

val encode_response : response -> int * string

(** @raise Error on an unknown tag or a malformed body. *)
val decode_response : int -> string -> response

(** [request_key r] is a canonical cache key for the cacheable
    requests ([Density]/[Cds]/[Decompose]/[Query]/[Topk]/[Hierarchy]);
    [None] for the control requests and the [Apply_delta] mutation. *)
val request_key : request -> string option

(** [key_graph key] recovers the graph name a {!request_key} refers
    to — the predicate behind per-graph cache invalidation after an
    [Apply_delta].  [None] on anything that does not parse as a
    cacheable request's key. *)
val key_graph : string -> string option
