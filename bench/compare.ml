(* Regression gates over the bench harness's JSON outputs.  The files
   are hand-formatted (one row object per line), so a line scanner is
   enough; no JSON library needed.

   - BENCH_search.json rows: the exact search must answer exactly what
     the float reference search of Dsd_check.Oracle answers
     (mismatches = 0), never drain excess (cold exact probes leave
     nothing to cancel), and on the Exact and Query rows, which search
     the same vertex sets as their references, take no more probes
     than the reference.
   - BENCH_serve.json rows: a repeated identical request must be
     answered at least 5x faster from the result LRU than the cold
     solve — the serving layer's reason to exist.
   - BENCH_incremental.json rows: patching the live session through a
     delta batch must cost at most half a from-scratch recompute
     (and the two answers must never have disagreed) — otherwise the
     arc surgery is slower than rebuilding.
   - BENCH_topk.json rows: the pruned extraction must return regions
     bit-identical to the unpruned one (mismatches = 0) and must not
     be slower than it — core-based candidate restriction is only
     sound pruning if it never changes the answer, and only pruning
     if it never costs time.
   - BENCH_hierarchy.json rows: the breakpoint-search hierarchy must
     agree bit-for-bit with the per-level reference search (B_1 with
     the canonical CDS, and at most two probes per level; mismatches =
     0) and must not be slower than it — 2L - 1 exact probes on one
     network replace about twenty per level, so paying more would mean
     the search failed.

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

(* Extract the integer following ["key": ] on [line], if present. *)
let int_field line key =
  let needle = Printf.sprintf "\"%s\": " key in
  let nlen = String.length needle and llen = String.length line in
  let rec find i =
    if i + nlen > llen then None
    else if String.sub line i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < llen
      && (match line.[!stop] with '0' .. '9' | '-' -> true | _ -> false)
    do
      incr stop
    done;
    if !stop = start then None
    else int_of_string_opt (String.sub line start (!stop - start))

let float_field line key =
  let needle = Printf.sprintf "\"%s\": " key in
  let nlen = String.length needle and llen = String.length line in
  let rec find i =
    if i + nlen > llen then None
    else if String.sub line i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    let stop = ref start in
    while
      !stop < llen
      && (match line.[!stop] with
          | '0' .. '9' | '-' | '.' | 'e' | '+' -> true
          | _ -> false)
    do
      incr stop
    done;
    if !stop = start then None
    else float_of_string_opt (String.sub line start (!stop - start))

let str_field line key =
  let needle = Printf.sprintf "\"%s\": \"" key in
  let nlen = String.length needle and llen = String.length line in
  let rec find i =
    if i + nlen > llen then None
    else if String.sub line i nlen = needle then Some (i + nlen)
    else find (i + 1)
  in
  match find 0 with
  | None -> None
  | Some start ->
    (match String.index_from_opt line start '"' with
     | Some stop -> Some (String.sub line start (stop - start))
     | None -> None)

let () =
  let path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_search.json"
  in
  if not (Sys.file_exists path) then begin
    Printf.eprintf "compare: %s not found\n" path;
    exit 1
  end;
  let rows = ref 0 and bad = ref 0 in
  let min_cached_speedup = 5.0 in
  List.iter
    (fun line ->
      match
        (int_field line "probes", int_field line "flow_excess_drained")
      with
      | Some probes, Some drained ->
        incr rows;
        let label =
          Printf.sprintf "%s/%s"
            (Option.value (str_field line "dataset") ~default:"?")
            (Option.value (str_field line "algorithm") ~default:"?")
        in
        let mismatches =
          Option.value (int_field line "mismatches") ~default:1
        in
        let reference = int_field line "reference_probes" in
        if mismatches > 0 then begin
          incr bad;
          Printf.printf "FAIL %-24s %d mismatches against the reference\n"
            label mismatches
        end
        else if drained > 0 then begin
          incr bad;
          Printf.printf "FAIL %-24s drained %d units of excess\n" label
            drained
        end
        else begin
          match reference with
          | Some r when probes > r ->
            incr bad;
            Printf.printf "FAIL %-24s %d probes > %d reference probes\n"
              label probes r
          | Some r ->
            Printf.printf "ok   %-24s %4d probes <= %4d reference probes\n"
              label probes r
          | None ->
            Printf.printf "ok   %-24s %4d probes, matches the reference\n"
              label probes
        end
      | _ -> (
        match
          (float_field line "pruned_s", float_field line "unpruned_s")
        with
        | Some pruned, Some unpruned ->
          incr rows;
          let label =
            Printf.sprintf "%s/%s/k=%d"
              (Option.value (str_field line "graph") ~default:"?")
              (Option.value (str_field line "pattern") ~default:"?")
              (Option.value (int_field line "k") ~default:0)
          in
          let mismatches =
            Option.value (int_field line "mismatches") ~default:0
          in
          if mismatches > 0 then begin
            incr bad;
            Printf.printf "FAIL %-24s %d pruned/unpruned region mismatches\n"
              label mismatches
          end
          else if pruned > unpruned then begin
            incr bad;
            Printf.printf "FAIL %-24s pruned %.3fs > unpruned %.3fs\n" label
              pruned unpruned
          end
          else
            Printf.printf "ok   %-24s pruned %8.3fs <= unpruned %8.3fs  (%.1fx)\n"
              label pruned unpruned
              (if pruned > 0. then unpruned /. pruned else 0.)
        | _ -> (
        match
          (float_field line "breakpoint_s", float_field line "reference_s")
        with
        | Some breakpoint, Some reference ->
          incr rows;
          let label =
            Printf.sprintf "%s/%s/hierarchy"
              (Option.value (str_field line "graph") ~default:"?")
              (Option.value (str_field line "pattern") ~default:"?")
          in
          let mismatches =
            Option.value (int_field line "mismatches") ~default:0
          in
          if mismatches > 0 then begin
            incr bad;
            Printf.printf "FAIL %-24s %d reference/CDS/probe mismatches\n"
              label mismatches
          end
          else if breakpoint > reference then begin
            incr bad;
            Printf.printf "FAIL %-24s breakpoint %.3fs > reference %.3fs\n"
              label breakpoint reference
          end
          else
            Printf.printf
              "ok   %-24s breakpoint %8.3fs <= reference %8.3fs  (%.1fx)\n"
              label breakpoint reference
              (if breakpoint > 0. then reference /. breakpoint else 0.)
        | _ -> (
        match
          ( float_field line "recompute_s",
            float_field line "incremental_s" )
        with
        | Some recompute, Some incr_s ->
          incr rows;
          let label =
            Printf.sprintf "%s/%s"
              (Option.value (str_field line "graph") ~default:"?")
              (Option.value (str_field line "pattern") ~default:"?")
          in
          let mismatches =
            Option.value (int_field line "mismatches") ~default:0
          in
          if mismatches > 0 then begin
            incr bad;
            Printf.printf "FAIL %-24s %d incremental/rebuild mismatches\n"
              label mismatches
          end
          else if incr_s > 0.5 *. recompute then begin
            incr bad;
            Printf.printf
              "FAIL %-24s incremental %.3fs > 0.5 * recompute %.3fs\n" label
              incr_s recompute
          end
          else
            Printf.printf "ok   %-24s incremental %8.3fs <= 0.5 * %8.3fs  (%.1fx)\n"
              label incr_s recompute
              (if incr_s > 0. then recompute /. incr_s else 0.)
        | _ -> (
        match float_field line "cached_speedup" with
        | Some speedup ->
          incr rows;
          let label =
            Printf.sprintf "%s/%s"
              (Option.value (str_field line "dataset") ~default:"?")
              (Option.value (str_field line "endpoint") ~default:"?")
          in
          if speedup < min_cached_speedup then begin
            incr bad;
            Printf.printf "FAIL %-32s cached only %.1fx faster (< %.0fx)\n"
              label speedup min_cached_speedup
          end
          else
            Printf.printf "ok   %-32s cached %8.1fx faster\n" label speedup
        | None -> ())))))
    (read_lines path);
  if !rows = 0 then begin
    Printf.eprintf "compare: no gateable rows in %s\n" path;
    exit 1
  end;
  if !bad > 0 then begin
    Printf.printf "%d/%d rows regressed\n" !bad !rows;
    exit 1
  end;
  Printf.printf "all %d rows pass their gate\n" !rows
