(* The runner shared by the in-process workloads (exact_batch,
   approx_large): one caller, a closed loop over a fixed script, no
   domain pool.

   A workload supplies one pass of operations built from the seed; the
   script repeats that pass up to a length fixed by --seconds alone (a
   nominal rate, never the clock), so every run of one seed executes
   the same operations in the same order.  Answers are checked after
   the measured region: each distinct operation once against its
   workload's oracles, every repeat for equality with its first
   answer. *)

type 'a op = {
  label : string;  (** graph/algorithm/pattern, unique within a pass *)
  run : unit -> 'a;  (** the measured call into the library *)
  check : 'a -> string option;  (** [Some why] when the answer is wrong *)
}

type 'a spec = {
  setup : seed:int -> 'a op array;
      (** generates the graphs and one pass of the script *)
  ops_per_s : float;
      (** nominal rate on the reference box; sizes the script *)
}

(* Set-up runs this many times per run; setup_s is their median.  An
   in-process set-up takes tens of milliseconds, so five cost little. *)
let setups = 5

type traced_run = {
  lat : float array;  (** seconds per operation, script order *)
  tally : (string, float) Hashtbl.t;  (** span self times *)
  counts : (string * float) list;  (** counter metrics *)
  gc : (string * float) list;
}

let run spec ~seed ~seconds ~trace =
  let fails = Measure.failures () in
  let pass = ref [||] in
  let setup_times =
    Array.init setups (fun _ ->
        pass := [||];
        Gc.full_major ();
        let p, dt = Measure.timed (fun () -> spec.setup ~seed) in
        pass := p;
        dt)
  in
  let pass = !pass in
  (* The script starts on a collected heap, so no op pays for the
     garbage set-up left behind. *)
  Gc.full_major ();
  let width = Array.length pass in
  let nops =
    max width (int_of_float (Float.round (float_of_int seconds *. spec.ops_per_s)))
  in
  let first = Array.make width None in
  (* Runs the whole script once; [call] wraps each operation. *)
  let exec call =
    let lat = Array.make nops 0. in
    for i = 0 to nops - 1 do
      let j = i mod width in
      let op = pass.(j) in
      match call op.run with
      | ans, dt -> (
        lat.(i) <- dt;
        match first.(j) with
        | None -> first.(j) <- Some ans
        | Some a ->
          if a <> ans then
            Measure.fail fails (op.label ^ ": answer differs from its first run"))
      | exception e ->
        Measure.fail fails (op.label ^ ": " ^ Printexc.to_string e)
    done;
    lat
  in
  let ops_per_s lat = float_of_int nops /. Array.fold_left ( +. ) 0. lat in
  let lat = exec Measure.timed in
  let rss = Measure.vm_hwm_mb 0 in
  let traced () =
    Dsd_obs.Control.reset ();
    let tally = Hashtbl.create 16 in
    let g0 = Measure.gc_mark () in
    let lat = exec (Layers.traced tally) in
    let g1 = Measure.gc_mark () in
    let counts =
      Layers.counts ~probes:(Dsd_obs.Probe.count ()) Dsd_obs.Counter.get
    in
    { lat; tally; counts; gc = Measure.gc_metrics g0 g1 }
  in
  let per_layer =
    if not trace then []
    else begin
      let a = traced () in
      let b = traced () in
      if a.counts <> b.counts then
        Measure.fail fails "two traced runs of one script disagree on counts";
      let setup_s = Measure.median setup_times in
      [ ("setup.gen_s", setup_s);
        ("setup.snapshot_s", 0.);
        ("setup.ready_s", 0.);
        ("setup.warmup_s", 0.);
        ( "trace.overhead_frac",
          1. -. (ops_per_s a.lat /. ops_per_s lat) ) ]
      @ Layers.self_times a.tally @ a.counts @ a.gc
    end
  in
  Array.iteri
    (fun j op ->
      match first.(j) with
      | None -> ()
      | Some ans -> (
        match op.check ans with
        | None -> ()
        | Some why -> Measure.fail fails (op.label ^ ": " ^ why)
        | exception e ->
          Measure.fail fails (op.label ^ ": check raised " ^ Printexc.to_string e)))
    pass;
  let runs = if trace then 3 else 1 in
  { Measure.attempted = runs * nops;
    failed = fails.count;
    classes = [ ("op", nops) ];
    end_to_end =
      [ ("setup_s", Measure.median setup_times);
        ("ops_per_s", ops_per_s lat);
        ("op_ms.p50", 1000. *. Measure.median lat);
        ("op_ms.p90", 1000. *. Measure.percentile lat 0.9);
        ("rss_peak_mb", rss) ];
    per_layer;
    problems = Measure.problems fails }
