(** Per-probe augmenting-path deltas.

    A "probe" is one min-cut solve inside a parametric search over the
    density guess α.  {!record} is called by [Flow_build.solve] with the
    number of augmenting paths that probe consumed; warm-started
    retargets (Inc_dsd) keep the committed flow, so their deltas shrink
    towards zero as the search converges, while the exact solvers'
    cold probes each pay their whole flow.  No-ops while recording is disabled
    (see {!Control.enable}). *)

(** [record d] appends one probe's augmenting-path count. *)
val record : int -> unit

(** Recorded deltas, in probe order. *)
val deltas : unit -> int list

val count : unit -> int
val total : unit -> int
val reset : unit -> unit

(** Deltas as a comma-joined single token, e.g. ["12,3,0,1"] — used as
    the [augmenting_paths=...] field in bench payloads. *)
val to_field : unit -> string
