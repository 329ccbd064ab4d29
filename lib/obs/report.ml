(* Human- and machine-readable views of the accumulated counters and
   spans, shared by `dsd --stats` and the bench harness. *)

let span_lines () =
  List.map
    (fun (name, total, entries) ->
      Printf.sprintf "  %-16s %10.4fs  x%d" name total entries)
    (Span.snapshot ())

let counter_lines () =
  List.filter_map
    (fun (name, v) ->
      if v = 0 then None else Some (Printf.sprintf "  %-20s %12d" name v))
    (Counter.snapshot ())

let to_string () =
  let buf = Buffer.create 512 in
  let spans = span_lines () in
  let counters = counter_lines () in
  Buffer.add_string buf "spans (inclusive wall-clock):\n";
  if spans = [] then Buffer.add_string buf "  (none recorded)\n"
  else List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) spans;
  Buffer.add_string buf "counters:\n";
  if counters = [] then Buffer.add_string buf "  (none recorded)\n"
  else List.iter (fun l -> Buffer.add_string buf (l ^ "\n")) counters;
  (match Probe.deltas () with
  | [] -> ()
  | ds ->
    Buffer.add_string buf "per-probe augmenting paths:\n";
    Buffer.add_string buf
      (Printf.sprintf "  %-20s %12d\n" "probes" (List.length ds));
    Buffer.add_string buf
      (Printf.sprintf "  deltas               [%s]\n"
         (String.concat " " (List.map string_of_int ds))));
  Buffer.contents buf

(* One-line `k=v` fields: the decompose/enumerate/build/flow breakdown
   plus non-zero counters.  Bench payloads append this so BENCH_*.json
   rows stay comparable across runs. *)
let kv_fields () =
  let phase_fields =
    List.map
      (fun name -> Printf.sprintf "%s_s=%.4f" name (Span.total_s name))
      Phase.breakdown
  in
  let counter_fields =
    List.filter_map
      (fun (name, v) ->
        if v = 0 then None else Some (Printf.sprintf "%s=%d" name v))
      (Counter.snapshot ())
  in
  let probe_fields =
    if Probe.count () = 0 then []
    else [ Printf.sprintf "augmenting_paths=%s" (Probe.to_field ()) ]
  in
  String.concat " " (phase_fields @ counter_fields @ probe_fields)
