(* Clocks, order statistics, process probes and the report printed at
   the end of a run. *)

let now = Unix.gettimeofday

(* [timed f] is [f ()] with its wall-clock duration in seconds. *)
let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* The Harrell-Davis estimate of the [p]-quantile: a mean of every order
   statistic, the i-th weighted by the mass a Beta(p(n+1), (1-p)(n+1))
   law puts on [(i-1)/n, i/n].  One order statistic (or the
   interpolation between two) jumps when the quantile of a mixed sample
   falls in a gap between kinds of operation; this estimate slides.  The
   weights are integrated by the midpoint rule, [k] points per interval;
   0 on an empty sample. *)
let percentile xs p =
  let n = Array.length xs in
  if n = 0 then 0.
  else begin
    let s = Array.copy xs in
    Array.sort Float.compare s;
    let a = p *. float_of_int (n + 1) and b = (1. -. p) *. float_of_int (n + 1) in
    let k = 16 in
    let h = 1. /. float_of_int (n * k) in
    let log_pdf =
      Array.init (n * k) (fun j ->
          let x = (float_of_int j +. 0.5) *. h in
          ((a -. 1.) *. log x) +. ((b -. 1.) *. Float.log1p (-.x)))
    in
    let top = Array.fold_left Float.max Float.neg_infinity log_pdf in
    let sum = ref 0. and mass = ref 0. in
    Array.iteri
      (fun j l ->
        let w = exp (l -. top) in
        sum := !sum +. (w *. s.(j / k));
        mass := !mass +. w)
      log_pdf;
    !sum /. !mass
  end

let median xs = percentile xs 0.5

(* A fixed integer loop (xorshift steps) whose time tracks the box's
   execution speed.  Runs record it before and after their measured
   region so drift shows beside the metrics; it is never folded into
   them. *)
let loop_ms () =
  let once () =
    let x = ref 88172645463325252 in
    let (), dt =
      timed (fun () ->
          for _ = 1 to 20_000_000 do
            x := !x lxor (!x lsl 13);
            x := !x lxor (!x lsr 7);
            x := !x lxor (!x lsl 17)
          done)
    in
    if !x = 0 then nan else dt *. 1000.
  in
  median (Array.init 5 (fun _ -> once ()))

(* Peak resident set of a process in MB, from the kernel's VmHWM. *)
let vm_hwm_mb pid =
  let path =
    if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid
  in
  let ic = open_in path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
    | exception End_of_file -> failwith ("no VmHWM in " ^ path)
  in
  scan ()

type gc_mark = { minor_words : float; major_collections : int }

let gc_mark () =
  let s = Gc.quick_stat () in
  { minor_words = s.Gc.minor_words; major_collections = s.Gc.major_collections }

(* Runtime-layer metrics between two marks; the heap peak is the
   process lifetime's. *)
let gc_metrics a b =
  let s = Gc.quick_stat () in
  [ ("gc.minor_mwords", (b.minor_words -. a.minor_words) /. 1e6);
    ("gc.major_collections", float_of_int (b.major_collections - a.major_collections));
    ( "gc.heap_peak_mb",
      float_of_int (s.Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576. ) ]

let ratio a b = if b = 0. then 0. else a /. b

(* What every workload hands back to [Main]. *)
type report = {
  attempted : int;  (** operations run, over every pass *)
  failed : int;  (** errors, exceptions and wrong answers among them *)
  classes : (string * int) list;  (** latency class -> samples in one pass *)
  end_to_end : (string * float) list;
  per_layer : (string * float) list;  (** only filled by traced runs *)
  problems : string list;  (** why operations failed, at most a few *)
}

(* Records up to a few failure messages and counts every failure. *)
type failures = { mutable count : int; mutable msgs : string list }

let failures () = { count = 0; msgs = [] }

let fail f msg =
  f.count <- f.count + 1;
  if List.length f.msgs < 8 then f.msgs <- msg :: f.msgs

let problems f = List.rev f.msgs
