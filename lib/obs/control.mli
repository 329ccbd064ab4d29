(** Recording on/off switch.  Disabled by default: every instrumented
    hot path then reduces to a single flag read.  [enable] optionally
    installs a trace sink for structured events; counters and spans
    accumulate regardless of the sink. *)

(** [enable ?sink ()] turns recording on.  With [~sink] that sink is
    installed; without it the current sink stays, so a sink installed
    earlier with {!Trace.set_sink} receives the events. *)
val enable : ?sink:Trace.sink -> unit -> unit

(** [disable ()] turns recording off and reinstalls {!Trace.null}. *)
val disable : unit -> unit

(** Zero counters and span totals (does not touch the sink). *)
val reset : unit -> unit

(** [with_recording ?sink f]: reset, enable, run [f], disable
    (exception-safe).  Accumulated counters/spans remain readable
    after it returns. *)
val with_recording : ?sink:Trace.sink -> (unit -> 'a) -> 'a
