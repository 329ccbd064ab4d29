(* Benchmark plumbing: per-cell subprocess isolation with wall-clock
   timeouts (mirroring the paper's 2-/5-day cutoffs at container
   scale), and fixed-width table printing. *)

type cell =
  | Ok of string          (* child's one-line result payload *)
  | Timeout of float
  | Crashed of string

let default_timeout = ref 10.0

(* Smoke mode (--smoke): shrink inputs so CI can exercise every code
   path — notably the multi-domain ones — in seconds.  Experiments
   that honour it say so in their section banner. *)
let smoke = ref false

(* Run [f] in a forked child; read its result line from a pipe.  The
   child is killed (SIGKILL) when the timeout elapses — algorithms need
   no cooperative cancellation points this way.  Payloads must stay
   under the pipe buffer (64 KiB): the parent only drains after exit,
   so a larger write would block the child until the timeout.  All
   experiments emit one short line. *)
let run_cell ?timeout (f : unit -> string) : cell =
  let timeout = Option.value timeout ~default:!default_timeout in
  (* Anything buffered before the fork would otherwise be flushed a
     second time by the child. *)
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let result = (try f () with e -> "CRASH " ^ Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr w in
    output_string oc result;
    flush oc;
    Unix.close w;
    (* _exit skips at_exit, so inherited channel buffers are not
       replayed. *)
    Unix._exit 0
  | pid ->
    Unix.close w;
    let start = Unix.gettimeofday () in
    let status = ref None in
    while !status = None do
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        if Unix.gettimeofday () -. start > timeout then begin
          Unix.kill pid Sys.sigkill;
          ignore (Unix.waitpid [] pid);
          status := Some `Timeout
        end
        else Unix.sleepf 0.02
      | _, Unix.WEXITED 0 -> status := Some `Done
      | _, _ -> status := Some `Crashed
    done;
    let payload =
      let buf = Buffer.create 256 in
      let chunk = Bytes.create 4096 in
      (try
         let rec drain () =
           let k = Unix.read r chunk 0 4096 in
           if k > 0 then begin
             Buffer.add_subbytes buf chunk 0 k;
             drain ()
           end
         in
         drain ()
       with Unix.Unix_error _ -> ());
      Unix.close r;
      Buffer.contents buf
    in
    (match !status with
     | Some `Timeout -> Timeout timeout
     | Some `Crashed -> Crashed payload
     | Some `Done | None ->
       if String.length payload >= 5 && String.sub payload 0 5 = "CRASH" then
         Crashed payload
       else Ok payload)

(* Format a cell that carries a single time-in-seconds payload. *)
let show_time = function
  | Ok s -> (try Printf.sprintf "%8.3fs" (float_of_string (String.trim s)) with _ -> s)
  | Timeout t -> Printf.sprintf ">%.0fs(TO)" t
  | Crashed msg ->
    let msg = String.trim msg in
    if String.length msg > 12 then String.sub msg 0 12 else msg

let show_payload = function
  | Ok s -> String.trim s
  | Timeout t -> Printf.sprintf "TIMEOUT(%.0fs)" t
  | Crashed msg -> "CRASH:" ^ String.trim msg

(* [write_json name rows] writes BENCH_<name>.json — or, under
   --smoke, BENCH_<name>.smoke.json, so a smoke run never replaces the
   checked-in full-mode rows — with [extra] header fields (already
   formatted JSON values) before the rows, one row object per line. *)
let write_json ?(extra = []) name rows =
  let path =
    Printf.sprintf "BENCH_%s%s.json" name (if !smoke then ".smoke" else "")
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"experiment\": \"%s\",\n  \"smoke\": %b,\n" name
    !smoke;
  List.iter (fun (k, v) -> Printf.fprintf oc "  \"%s\": %s,\n" k v) extra;
  Printf.fprintf oc "  \"rows\": [\n%s\n  ]\n}\n" (String.concat ",\n" rows);
  close_out oc;
  print_endline ("\nwrote " ^ path)

(* Timing helper used inside cells. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* ---- observability ----

   Cells run in forked children, so the global Dsd_obs state is
   private to each cell: enable, run, and report without interfering
   with sibling cells or the parent. *)

(* [with_obs_fields f] runs [f] with recording on and returns its
   result together with the one-line per-phase/counter `k=v` fields
   (Dsd_obs.Report.kv_fields) — append these to BENCH payloads so
   future BENCH_*.json rows carry a comparable phase breakdown. *)
let with_obs_fields f =
  let x = Dsd_obs.Control.with_recording f in
  (x, Dsd_obs.Report.kv_fields ())

(* [timed_obs f] = wall-clock seconds plus the per-phase fields, as
   one payload line: "<secs> <k=v> <k=v> ...". *)
let timed_obs f =
  let (_, dt), fields = with_obs_fields (fun () -> timed f) in
  Printf.sprintf "%f %s" dt fields

(* ---- table printing ---- *)

let rule widths =
  print_string "+";
  List.iter (fun w -> print_string (String.make (w + 2) '-' ^ "+")) widths;
  print_newline ()

let row widths cells =
  print_string "|";
  List.iter2
    (fun w c -> Printf.printf " %-*s |" w c)
    widths cells;
  print_newline ()

let table ~header ~rows =
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc r -> max acc (String.length (List.nth r i)))
          (String.length h) rows)
      header
  in
  rule widths;
  row widths header;
  rule widths;
  List.iter (row widths) rows;
  rule widths

let section title =
  Printf.printf "\n=== %s ===\n" title
