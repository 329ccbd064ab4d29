(* Per-probe deltas: each min-cut probe of a search records how
   many augmenting paths it needed, so warm starts show up as shrinking
   per-probe work rather than just a smaller grand total.  Appends are
   mutex-protected (probes may run on pool domains); everything is a
   no-op while recording is disabled. *)

let lock = Mutex.create ()
let deltas_rev = ref []

let record delta =
  if Atomic.get State.enabled then begin
    Mutex.lock lock;
    deltas_rev := delta :: !deltas_rev;
    Mutex.unlock lock
  end

let deltas () =
  Mutex.lock lock;
  let ds = List.rev !deltas_rev in
  Mutex.unlock lock;
  ds

let count () = List.length (deltas ())
let total () = List.fold_left ( + ) 0 (deltas ())

let reset () =
  Mutex.lock lock;
  deltas_rev := [];
  Mutex.unlock lock

(* Compact one-token encoding for `k=v` bench payloads. *)
let to_field () = String.concat "," (List.map string_of_int (deltas ()))
