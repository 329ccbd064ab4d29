(* Benchmark plumbing: per-cell subprocess isolation with wall-clock
   timeouts (mirroring the paper's 2-/5-day cutoffs at container
   scale), typed row fields, and the one writer of table rows and
   BENCH_*.json rows. *)

type 'a cell =
  | Ok of 'a              (* the child's result *)
  | Timeout of float
  | Crashed of string

let default_timeout = ref 10.0

(* Smoke mode (--smoke): shrink inputs so CI can exercise every code
   path in seconds.  Experiments that honour it say so in their
   section banner. *)
let smoke = ref false

(* Run [f] in a forked child; its result comes back marshalled through
   a pipe.  The child is killed (SIGKILL) when the timeout elapses —
   algorithms need no cooperative cancellation points this way.
   Results must stay under the pipe buffer (64 KiB): the parent only
   drains after exit, so a larger write would block the child until
   the timeout.  Every experiment returns a few numbers. *)
let run_cell ?timeout (f : unit -> 'a) : 'a cell =
  let timeout = Option.value timeout ~default:!default_timeout in
  (* Anything buffered before the fork would otherwise be flushed a
     second time by the child. *)
  flush stdout;
  flush stderr;
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 ->
    Unix.close r;
    let result = try Ok (f ()) with e -> Crashed (Printexc.to_string e) in
    let oc = Unix.out_channel_of_descr w in
    Marshal.to_channel oc result [];
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
     | Some `Done when payload <> "" -> (Marshal.from_string payload 0 : 'a cell)
     | _ -> Crashed "exited without a result")

let failure = function
  | Ok _ -> ""
  | Timeout t -> Printf.sprintf "TIMEOUT(%.0fs)" t
  | Crashed msg -> "CRASH:" ^ String.trim msg

(* [show f cell] is [f]'s text of a result, or the failure's. *)
let show f cell = match cell with Ok x -> f x | _ -> failure cell

(* A time-in-seconds cell, kept narrow for the paper's time tables. *)
let show_time = function
  | Ok t -> Printf.sprintf "%8.3fs" t
  | Timeout t -> Printf.sprintf ">%.0fs(TO)" t
  | Crashed msg ->
    let msg = String.trim msg in
    if String.length msg > 12 then String.sub msg 0 12 else msg

(* Timing helper used inside cells. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let x = f () in
  (x, Unix.gettimeofday () -. t0)

(* ---- typed fields ---- *)

(* One table cell and JSON value.  Seconds print with six decimals
   (an "s" in tables), a ratio of times with its own decimals (an "x"
   in tables; JSON null and a table "-" when undefined), and a spread
   of seconds (median, min, max) under key k as the JSON keys k_s,
   k_min_s and k_max_s. *)
type value =
  | Str of string
  | Int of int
  | Num of int * float     (* decimals, value *)
  | Secs of float
  | Ratio of int * float option
  | Spread of float * float * float

let text = function
  | Str s -> s
  | Int i -> string_of_int i
  | Num (d, x) -> Printf.sprintf "%.*f" d x
  | Secs x -> Printf.sprintf "%.6fs" x
  | Ratio (d, Some x) -> Printf.sprintf "%.*fx" d x
  | Ratio (_, None) -> "-"
  | Spread (m, lo, hi) -> Printf.sprintf "%.6fs [%.6f-%.6f]" m lo hi

let rec json (key, v) =
  match v with
  | Str s -> Printf.sprintf "\"%s\": \"%s\"" key s
  | Int i -> Printf.sprintf "\"%s\": %d" key i
  | Num (d, x) | Ratio (d, Some x) -> Printf.sprintf "\"%s\": %.*f" key d x
  | Secs x -> Printf.sprintf "\"%s\": %.6f" key x
  | Ratio (_, None) -> Printf.sprintf "\"%s\": null" key
  | Spread (m, lo, hi) ->
    String.concat ", "
      (List.map json
         [ (key ^ "_s", Secs m); (key ^ "_min_s", Secs lo);
           (key ^ "_max_s", Secs hi) ])

(* A cell's values as table cells; a failed cell is one cell, and
   [table] pads the row. *)
let cells cell = match cell with Ok vs -> List.map text vs | _ -> [ failure cell ]

(* ---- rows: one list of (key, value) fields each ---- *)

type row = (string * value) list

(* A row's fields, or the fields that name it and why its cell
   failed. *)
type outcome = (row, row * string) result

(* [row ?timeout id f] runs [f] in a cell; its fields follow [id]'s. *)
let row ?timeout id f : outcome =
  match run_cell ?timeout f with
  | Ok fields -> Stdlib.Ok (id @ fields)
  | failed -> Error (id, failure failed)

(* ---- the writers ---- *)

let rule widths =
  print_string "+";
  List.iter (fun w -> print_string (String.make (w + 2) '-' ^ "+")) widths;
  print_newline ()

let line widths cells =
  print_string "|";
  List.iter2 (fun w c -> Printf.printf " %-*s |" w c) widths cells;
  print_newline ()

(* Print a table; rows shorter than the header are padded with "-". *)
let table ~header ~rows =
  let pad r = r @ List.init (List.length header - List.length r) (fun _ -> "-") in
  let rows = List.map pad rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc r -> max acc (String.length (List.nth r i)))
          (String.length h) rows)
      header
  in
  rule widths;
  line widths header;
  rule widths;
  List.iter (line widths) rows;
  rule widths

(* [print_rows ~columns rows] prints one table; column (header, key)
   shows each row's [key] field, "-" when the row has none.  A failed
   row shows the fields that name it, then its failure. *)
let print_rows ~columns rows =
  let cell fields (_, key) = Option.map text (List.assoc_opt key fields) in
  table ~header:(List.map fst columns)
    ~rows:
      (List.map
         (function
           | Stdlib.Ok fields ->
             List.map (fun c -> Option.value (cell fields c) ~default:"-") columns
           | Error (id, failure) -> List.filter_map (cell id) columns @ [ failure ])
         rows)

(* [write_json name rows] writes the rows that ran, one JSON object
   per line, to BENCH_<name>.json — or, under --smoke,
   BENCH_<name>.smoke.json, so a smoke run never replaces the
   checked-in full-mode rows. *)
let write_json name rows =
  let path =
    Printf.sprintf "BENCH_%s%s.json" name (if !smoke then ".smoke" else "")
  in
  let lines =
    List.filter_map
      (function
        | Stdlib.Ok fields ->
          Some ("    {" ^ String.concat ", " (List.map json fields) ^ "}")
        | Error _ -> None)
      rows
  in
  let oc = open_out path in
  Printf.fprintf oc "{\n  \"experiment\": \"%s\",\n  \"smoke\": %b,\n" name
    !smoke;
  Printf.fprintf oc "  \"rows\": [\n%s\n  ]\n}\n" (String.concat ",\n" lines);
  close_out oc;
  print_endline ("\nwrote " ^ path)

let section title =
  Printf.printf "\n=== %s ===\n" title

(* The banner of an experiment that honours --smoke. *)
let smoke_section title =
  section (if !smoke then title ^ " [smoke]" else title)
