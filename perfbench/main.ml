(* perfbench — the repository's end-to-end benchmark.

   Usage (from the repository root, after run.sh has built it):
     main.exe --workload exact_batch|approx_large|serve_stream
              --seed N --seconds S --trace 0|1 [--dsd PATH]

   One run sets up a workload from its seed (several times, reporting the
   median set-up time), runs its fixed script once untraced, checks
   every answer outside the measured region, and prints a human-readable
   report followed by one JSON line:
   {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
   metrics are the end-to-end ones; with --trace 1 the same script runs
   twice more with recording on and the metrics are the per-layer ones
   (whose counts must agree exactly between the two traced runs). *)

let end_to_end =
  [ ("setup_s", "s"); ("ops_per_s", "ops/s"); ("op_ms.p50", "ms");
    ("op_ms.p90", "ms"); ("rss_peak_mb", "MB") ]

let per_layer =
  [ ("setup.gen_s", "s"); ("setup.snapshot_s", "s"); ("setup.ready_s", "s");
    ("setup.warmup_s", "s");
    ("enumerate.self_s", "s"); ("enumerate.instances", "count");
    ("decompose.self_s", "s"); ("decompose.peeled", "count");
    ("build_network.self_s", "s"); ("build_network.count", "count");
    ("build_network.per_probe", "ratio");
    ("retarget.self_s", "s"); ("retarget.count", "count");
    ("retarget.warm_ratio", "ratio"); ("retarget.drained", "count");
    ("flow.self_s", "s"); ("flow.augmentations", "count");
    ("flow.level_builds", "count"); ("other.self_s", "s");
    ("search.probes", "count"); ("ld.probes", "count"); ("ld.levels", "count");
    ("topk.rounds", "count"); ("topk.components_pruned", "count");
    ("delta.edges", "count"); ("delta.effective_ratio", "ratio");
    ("delta.core_repairs", "count"); ("delta.instances_added", "count");
    ("delta.instances_retired", "count"); ("delta.arena_rebuilds", "count");
    ("cache.hits", "count"); ("cache.misses", "count");
    ("cache.hit_ratio", "ratio"); ("cache.evictions", "count");
    ("cache.hit_ms.p50", "ms"); ("cache.hit_ms.p90", "ms");
    ("codec.us_per_req", "us"); ("codec.bytes_per_req", "bytes");
    ("socket.ping_ms.p50", "ms");
    ("gc.minor_mwords", "Mwords"); ("gc.major_collections", "count");
    ("gc.heap_peak_mb", "MB");
    ("trace.overhead_frac", "fraction") ]

let workloads = [ "exact_batch"; "approx_large"; "serve_stream" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload exact_batch|approx_large|serve_stream \
     --seed N --seconds S --trace 0|1 [--dsd PATH]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : int;
  trace : bool;
  dsd : string option;
}

let parse argv =
  let rec go a = function
    | "--workload" :: w :: rest when List.mem w workloads ->
      go { a with workload = w } rest
    | "--seed" :: s :: rest -> (
      match int_of_string_opt s with
      | Some seed -> go { a with seed } rest
      | None -> usage ())
    | "--seconds" :: s :: rest -> (
      match int_of_string_opt s with
      | Some seconds when seconds >= 1 -> go { a with seconds } rest
      | _ -> usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> go { a with trace = t = "1" } rest
    | "--dsd" :: path :: rest -> go { a with dsd = Some path } rest
    | [] -> a
    | _ -> usage ()
  in
  let a =
    go { workload = ""; seed = 1; seconds = 10; trace = false; dsd = None } argv
  in
  if a.workload = "" then usage () else a

(* ---- run metadata ---- *)

let command_line cmd =
  let ic = Unix.open_process_in cmd in
  let line = try input_line ic with End_of_file -> "" in
  match Unix.close_process_in ic with
  | Unix.WEXITED 0 when line <> "" -> line
  | _ -> "none"

(* A digest of the library and CLI sources, which names the code under
   test even in a checkout that is not a git repository. *)
let source_digest () =
  let rec files dir =
    if Sys.file_exists dir && Sys.is_directory dir then
      Sys.readdir dir |> Array.to_list |> List.sort compare
      |> List.concat_map (fun f -> files (Filename.concat dir f))
    else if Filename.check_suffix dir ".ml" || Filename.check_suffix dir ".mli"
    then [ dir ]
    else []
  in
  match files "lib" @ files "bin" with
  | [] -> "none"
  | fs ->
    Digest.to_hex
      (Digest.string (String.concat "" (List.map (fun f -> f ^ Digest.file f) fs)))
    |> fun h -> String.sub h 0 12

(* ---- output ---- *)

let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let json_metrics defs values =
  List.map
    (fun (name, unit_) ->
      let v = Option.value ~default:0. (List.assoc_opt name values) in
      Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name
        (number (if Float.is_finite v then v else 0.))
        unit_)
    defs
  |> String.concat ", "

let () =
  let a = parse (List.tl (Array.to_list Sys.argv)) in
  Printf.printf "perfbench workload=%s seed=%d seconds=%d trace=%d\n%!" a.workload
    a.seed a.seconds (if a.trace then 1 else 0);
  Printf.printf "meta nproc=%d ocaml=%s commit=%s sources=%s\n%!"
    (Domain.recommended_domain_count ())
    Sys.ocaml_version
    (command_line "git rev-parse --short=12 HEAD 2>/dev/null")
    (source_digest ());
  let loop_before = Measure.loop_ms () in
  let seed = a.seed and seconds = a.seconds and trace = a.trace in
  let report =
    try
      match a.workload with
      | "exact_batch" -> Inproc.run Exact_batch.spec ~seed ~seconds ~trace
      | "approx_large" -> Inproc.run Approx_large.spec ~seed ~seconds ~trace
      | _ -> (
        match a.dsd with
        | Some dsd -> Serve_stream.run dsd ~seed ~seconds ~trace
        | None ->
          prerr_endline "serve_stream needs --dsd PATH (the dsd executable)";
          exit 2)
    with e ->
      { Measure.attempted = 1;
        failed = 1;
        classes = [];
        end_to_end = [];
        per_layer = [];
        problems = [ "run aborted: " ^ Printexc.to_string e ] }
  in
  let loop_after = Measure.loop_ms () in
  let r = report in
  Printf.printf "samples %s\n"
    (String.concat " "
       (List.map (fun (c, n) -> Printf.sprintf "%s=%d" c n) r.Measure.classes));
  Printf.printf "box loop_ms before=%.1f after=%.1f\n" loop_before loop_after;
  Printf.printf "fail_ratio %d/%d = %g\n" r.failed r.attempted
    (float_of_int r.failed /. float_of_int r.attempted);
  List.iter (fun p -> Printf.printf "problem %s\n" p) r.problems;
  let print defs values =
    List.iter
      (fun (name, unit_) ->
        Printf.printf "%-26s %14.6g %s\n" name
          (Option.value ~default:0. (List.assoc_opt name values))
          unit_)
      defs
  in
  print end_to_end r.end_to_end;
  if trace then print per_layer r.per_layer;
  let defs, shown =
    if trace then (per_layer, r.per_layer) else (end_to_end, r.end_to_end)
  in
  let correct = r.failed = 0 in
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct r.attempted r.failed
    (json_metrics defs shown);
  print_newline ();
  exit (if correct then 0 else 1)
