(* Regression gates over the bench harness's JSON outputs.  The files
   are written one row object per line (Harness.write_json), so a line
   scanner is enough; no JSON library needed.  A file's gate is picked
   by its "experiment" header:

   - search: the exact search must answer exactly what the float
     reference search of Dsd_check.Oracle answers (mismatches = 0),
     never drain excess (cold exact probes leave nothing to cancel),
     and on the Exact and Query rows, which search the same vertex sets
     as their references, take no more probes than the reference.
   - serve: a repeated identical request must be answered at least 5x
     faster from the result LRU than the cold solve — the serving
     layer's reason to exist.
   - incremental: patching the live session through a delta batch must
     cost at most half a from-scratch recompute (and the two answers
     must never have disagreed) — otherwise the arc surgery is slower
     than rebuilding.
   - topk: the core-pruned extraction must return regions bit-identical
     to the whole-remaining-graph reference (mismatches = 0) and its
     median time must not exceed the reference's median — core-based
     candidate restriction is only sound pruning if it never changes
     the answer, and only pruning if it never costs time.
   - hierarchy: the breakpoint-search hierarchy must agree bit-for-bit
     with the per-level reference search (B_1 with the canonical CDS,
     and at most two probes per level; mismatches = 0) and must not be
     slower than it — 2L - 1 exact probes on one network replace about
     twenty per level, so paying more would mean the search failed.

   Usage: compare [FILE]   (default BENCH_search.json)
   Exits 0 when every row satisfies its gate, 1 otherwise (or when the
   file is missing/contains no gateable rows). *)

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file ->
      close_in ic;
      List.rev acc
  in
  go []

(* The value following ["key": ] on [line]: a string's contents, or a
   number's text up to the next ',' or '}'. *)
let field line key =
  let needle = Printf.sprintf "\"%s\": " key in
  let nlen = String.length needle and llen = String.length line in
  let rec find i =
    if i + nlen > llen then None
    else if String.sub line i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  let upto start stop = Some (String.sub line start (stop - start)) in
  match find 0 with
  | None -> None
  | Some i when i < llen && line.[i] = '"' ->
    Option.bind (String.index_from_opt line (i + 1) '"') (upto (i + 1))
  | Some i ->
    let stop = ref i in
    while !stop < llen && line.[!stop] <> ',' && line.[!stop] <> '}' do
      incr stop
    done;
    upto i !stop

let int line key = Option.bind (field line key) int_of_string_opt
let num line key = Option.bind (field line key) float_of_string_opt

let label line keys =
  String.concat "/"
    (List.map (fun k -> Option.value (field line k) ~default:"?") keys)

type verdict = Pass of string | Fail of string

(* [at_most line ~what ~fast ~slow ~bound] passes a row with no
   mismatches whose [fast] time is at most [bound] times its [slow]
   time.  [slow]'s name is (in a FAIL line, in an ok line). *)
let at_most line ~what ~fast:(fkey, fname) ~slow:(skey, (sfail, sok)) ~bound =
  match (num line fkey, num line skey) with
  | Some fast, Some slow ->
    let mismatches = Option.value (int line "mismatches") ~default:0 in
    Some
      (if mismatches > 0 then Fail (Printf.sprintf "%d %s mismatches" mismatches what)
       else if fast > bound *. slow then
         Fail (Printf.sprintf "%s %.3fs > %s %.3fs" fname fast sfail slow)
       else
         Pass
           (Printf.sprintf "%s %8.3fs <= %s %8.3fs  (%.1fx)" fname fast sok slow
              (if fast > 0. then slow /. fast else 0.)))
  | _ -> None

let min_cached_speedup = 5.0

(* One gate per gated experiment: the label's width and, for a row
   that carries the gated fields, its label and verdict. *)
let gates =
  [ ("search",
     (24, fun line ->
        match (int line "probes", int line "flow_excess_drained") with
        | Some probes, Some drained ->
          let mismatches = Option.value (int line "mismatches") ~default:1 in
          Some
            ( label line [ "dataset"; "algorithm" ],
              if mismatches > 0 then
                Fail (Printf.sprintf "%d mismatches against the reference" mismatches)
              else if drained > 0 then
                Fail (Printf.sprintf "drained %d units of excess" drained)
              else
                match int line "reference_probes" with
                | Some r when probes > r ->
                  Fail (Printf.sprintf "%d probes > %d reference probes" probes r)
                | Some r ->
                  Pass (Printf.sprintf "%4d probes <= %4d reference probes" probes r)
                | None ->
                  Pass (Printf.sprintf "%4d probes, matches the reference" probes) )
        | _ -> None));
    ("serve",
     (32, fun line ->
        Option.map
          (fun speedup ->
            ( label line [ "dataset"; "endpoint" ],
              if speedup < min_cached_speedup then
                Fail
                  (Printf.sprintf "cached only %.1fx faster (< %.0fx)" speedup
                     min_cached_speedup)
              else Pass (Printf.sprintf "cached %8.1fx faster" speedup) ))
          (num line "cached_speedup")));
    ("incremental",
     (24, fun line ->
        Option.map
          (fun v -> (label line [ "graph"; "pattern" ], v))
          (at_most line ~what:"incremental/rebuild"
             ~fast:("incremental_s", "incremental")
             ~slow:("recompute_s", ("0.5 * recompute", "0.5 *")) ~bound:0.5)));
    ("topk",
     (24, fun line ->
        Option.map
          (fun v ->
            ( Printf.sprintf "%s/k=%d" (label line [ "graph"; "pattern" ])
                (Option.value (int line "k") ~default:0),
              v ))
          (at_most line ~what:"pruned/unpruned region"
             ~fast:("pruned_s", "pruned")
             ~slow:("unpruned_s", ("unpruned", "unpruned")) ~bound:1.)));
    ("hierarchy",
     (24, fun line ->
        Option.map
          (fun v -> (label line [ "graph"; "pattern" ] ^ "/hierarchy", v))
          (at_most line ~what:"reference/CDS/probe"
             ~fast:("breakpoint_s", "breakpoint")
             ~slow:("reference_s", ("reference", "reference")) ~bound:1.))) ]

let () =
  let path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_search.json"
  in
  if not (Sys.file_exists path) then begin
    Printf.eprintf "compare: %s not found\n" path;
    exit 1
  end;
  let lines = read_lines path in
  let width, gate =
    match List.find_map (fun line -> field line "experiment") lines with
    | Some e when List.mem_assoc e gates -> List.assoc e gates
    | _ -> (0, fun _ -> None)
  in
  let rows = ref 0 and bad = ref 0 in
  List.iter
    (fun line ->
      match gate line with
      | None -> ()
      | Some (label, verdict) -> (
        incr rows;
        match verdict with
        | Pass msg -> Printf.printf "ok   %-*s %s\n" width label msg
        | Fail msg ->
          incr bad;
          Printf.printf "FAIL %-*s %s\n" width label msg))
    lines;
  if !rows = 0 then begin
    Printf.eprintf "compare: no gateable rows in %s\n" path;
    exit 1
  end;
  if !bad > 0 then begin
    Printf.printf "%d/%d rows regressed\n" !bad !rows;
    exit 1
  end;
  Printf.printf "all %d rows pass their gate\n" !rows
