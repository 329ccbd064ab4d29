let enable ?sink () =
  Option.iter Trace.set_sink sink;
  Atomic.set State.enabled true

let disable () =
  Atomic.set State.enabled false;
  Trace.set_sink Trace.null

let reset () =
  Counter.reset ();
  Span.reset ();
  Probe.reset ()

let with_recording ?sink f =
  reset ();
  enable ?sink ();
  match f () with
  | x ->
    disable ();
    x
  | exception e ->
    disable ();
    raise e
