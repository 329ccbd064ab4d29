(* The Dsd_obs contract: exact counter values through the in-memory
   sink, span nesting/summing (including across Domain.spawn), and —
   the zero-cost promise — bit-identical algorithm results with
   recording disabled. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module F = Dsd_flow.Flow_network
module Obs = Dsd_obs.Control
module Counter = Dsd_obs.Counter
module Span = Dsd_obs.Span
module Trace = Dsd_obs.Trace

(* s=0, a=1, b=2, t=3: two disjoint unit paths; max flow 2 with a
   fully deterministic search order. *)
let two_path_net () =
  let net = F.create 4 in
  ignore (F.add_edge net ~src:0 ~dst:1 ~cap:1.);
  ignore (F.add_edge net ~src:1 ~dst:3 ~cap:1.);
  ignore (F.add_edge net ~src:0 ~dst:2 ~cap:1.);
  ignore (F.add_edge net ~src:2 ~dst:3 ~cap:1.);
  net

let test_counters_disabled_stay_zero () =
  Obs.reset ();
  let flow = Dsd_flow.Dinic.max_flow (two_path_net ()) ~s:0 ~t:3 in
  Helpers.check_float "flow" 2. flow;
  List.iter
    (fun name -> Alcotest.(check int) (Counter.to_string name) 0 (Counter.get name))
    Counter.all

let test_dinic_counters_exact () =
  Obs.with_recording (fun () ->
      let flow = Dsd_flow.Dinic.max_flow (two_path_net ()) ~s:0 ~t:3 in
      Helpers.check_float "flow" 2. flow);
  (* One level phase pushes both paths; the second finds t unreachable. *)
  Alcotest.(check int) "level builds" 2 (Counter.get Counter.Flow_level_builds);
  Alcotest.(check int) "augmentations" 2
    (Counter.get Counter.Flow_augmentations)

let test_edmonds_karp_counters_exact () =
  Obs.with_recording (fun () ->
      let flow = Dsd_check.Edmonds_karp.max_flow (two_path_net ()) ~s:0 ~t:3 in
      Helpers.check_float "flow" 2. flow);
  (* One BFS per augmenting path plus the failing final search. *)
  Alcotest.(check int) "bfs passes" 3 (Counter.get Counter.Flow_level_builds);
  Alcotest.(check int) "augmentations" 2
    (Counter.get Counter.Flow_augmentations)

let test_peel_and_instance_counters_exact () =
  (* K4 plus an isolated vertex: C(4,3) = 4 triangles, 5 peeled
     vertices. *)
  let g =
    G.of_edge_list ~n:5 [ (0, 1); (0, 2); (0, 3); (1, 2); (1, 3); (2, 3) ]
  in
  Obs.with_recording (fun () ->
      ignore (Dsd_core.Clique_core.decompose g P.triangle));
  Alcotest.(check int) "peeled" 5 (Counter.get Counter.Peeled_vertices);
  Alcotest.(check int) "triangles enumerated" 4
    (Counter.get Counter.Clique_instances)

(* Edges peel straight off the CSR: decomposing, Greedy++ and CoreApp
   on a BA graph list no instance, while every pop is still counted
   (n per decomposition and per Greedy++ round). *)
let test_edge_peels_list_nothing () =
  let g = Dsd_data.Gen.barabasi_albert ~seed:5 ~n:500 ~attach:4 in
  Obs.with_recording (fun () ->
      ignore (Dsd_core.Clique_core.decompose g P.edge);
      ignore (Dsd_core.Greedy_pp.run ~rounds:2 g P.edge);
      ignore (Dsd_core.Core_app.run g P.edge));
  Alcotest.(check int) "peeled" (4 * G.n g) (Counter.get Counter.Peeled_vertices);
  Alcotest.(check int) "instances listed" 0
    (Counter.get Counter.Clique_instances)

let test_span_nesting_and_totals () =
  Obs.with_recording (fun () ->
      Span.with_ "outer" (fun () ->
          Span.with_ "inner" (fun () -> Unix.sleepf 0.005);
          Span.with_ "inner" (fun () -> ())));
  Alcotest.(check int) "outer entries" 1 (Span.entries "outer");
  Alcotest.(check int) "inner entries" 2 (Span.entries "inner");
  let outer = Span.total_s "outer" and inner = Span.total_s "inner" in
  Alcotest.(check bool) "inner measured" true (inner >= 0.004);
  Alcotest.(check bool) "outer includes inner" true (outer >= inner)

let test_span_exception_safe () =
  Obs.with_recording (fun () ->
      (try Span.with_ "boom" (fun () -> failwith "x") with Failure _ -> ());
      (* The stack must have unwound: a sibling span nests at depth 0
         again and exits cleanly. *)
      Span.with_ "after" (fun () -> ()));
  Alcotest.(check int) "boom recorded" 1 (Span.entries "boom");
  Alcotest.(check int) "after recorded" 1 (Span.entries "after")

let test_memory_sink_events () =
  let sink = Trace.memory () in
  Obs.with_recording ~sink (fun () -> Span.with_ "phase" (fun () -> ()));
  match Trace.memory_events sink with
  | [ Trace.Span_enter e; Trace.Span_exit x ] ->
    Alcotest.(check string) "enter name" "phase" e.name;
    Alcotest.(check string) "exit name" "phase" x.name;
    Alcotest.(check int) "depth" 0 e.depth;
    Alcotest.(check bool) "elapsed >= 0" true (x.elapsed_s >= 0.)
  | es -> Alcotest.failf "expected enter+exit, got %d events" (List.length es)

let test_enable_keeps_installed_sink () =
  let sink = Trace.memory () in
  Obs.reset ();
  Trace.set_sink sink;
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () -> Span.with_ "phase" (fun () -> ()));
  match Trace.memory_events sink with
  | [ Trace.Span_enter e; Trace.Span_exit x ] ->
    Alcotest.(check string) "enter name" "phase" e.name;
    Alcotest.(check string) "exit name" "phase" x.name
  | es -> Alcotest.failf "expected enter+exit, got %d events" (List.length es)

let test_no_trace_output_when_disabled () =
  let sink = Trace.memory () in
  Trace.set_sink sink;
  (* Recording was never enabled: instrumented code must not emit. *)
  ignore (Dsd_flow.Dinic.max_flow (two_path_net ()) ~s:0 ~t:3);
  Trace.set_sink Trace.null;
  Alcotest.(check int) "no events" 0 (List.length (Trace.memory_events sink))

let test_disabled_results_bit_identical () =
  let g = Helpers.random_graph ~seed:77 ~max_n:20 ~max_m:60 () in
  let run () = Dsd_core.Core_exact.run g P.triangle in
  Obs.reset ();
  let off = run () in
  let on = Obs.with_recording ~sink:(Trace.memory ()) (fun () -> run ()) in
  let off_sg = off.Dsd_core.Core_exact.subgraph in
  let on_sg = on.Dsd_core.Core_exact.subgraph in
  Alcotest.(check bool) "identical density" true
    (Float.equal off_sg.Dsd_core.Density.density on_sg.Dsd_core.Density.density);
  Alcotest.check Helpers.sorted_array "identical vertices"
    off_sg.Dsd_core.Density.vertices on_sg.Dsd_core.Density.vertices;
  Alcotest.(check int) "identical iterations"
    off.Dsd_core.Core_exact.stats.Dsd_core.Core_exact.iterations
    on.Dsd_core.Core_exact.stats.Dsd_core.Core_exact.iterations

(* The library runs on one domain, but its callers may use several (a
   benchmark calls it from a second domain): spans of one name opened
   on different domains sum into one entry row, and counters add
   atomically. *)
let test_parallel_stripes_spans_and_counts () =
  let g = Dsd_data.Gen.er_gnp ~seed:3 ~n:120 ~p:0.15 in
  let reference = Dsd_clique.Kclist.count g ~h:3 in
  let domains = 3 in
  let counts =
    Obs.with_recording (fun () ->
        List.init domains (fun _ ->
            Domain.spawn (fun () ->
                Span.with_ "stripe" (fun () -> Dsd_clique.Kclist.count g ~h:3)))
        |> List.map Domain.join)
  in
  List.iter (Alcotest.(check int) "count on each domain" reference) counts;
  Alcotest.(check int) "stripe spans" domains (Span.entries "stripe");
  Alcotest.(check bool) "stripe time recorded" true (Span.total_s "stripe" > 0.);
  Alcotest.(check int) "instances counted across domains" (domains * reference)
    (Counter.get Counter.Clique_instances)

let test_jsonl_sink_valid_lines () =
  let path = Filename.temp_file "dsd_obs" ".jsonl" in
  let chan = open_out path in
  Obs.with_recording ~sink:(Trace.jsonl chan) (fun () ->
      Span.with_ "a" (fun () -> Trace.message "hello \"world\"\n"));
  close_out chan;
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove path;
  let lines = List.rev !lines in
  Alcotest.(check int) "enter + message + exit" 3 (List.length lines);
  List.iter
    (fun l ->
      Alcotest.(check bool) "looks like a json object" true
        (String.length l > 2 && l.[0] = '{' && l.[String.length l - 1] = '}'))
    lines;
  Alcotest.(check bool) "escaped quote survives" true
    (List.exists
       (fun l ->
         (* The message line must carry the escaped payload. *)
         let needle = {|hello \"world\"\n|} in
         let rec find i =
           if i + String.length needle > String.length l then false
           else String.sub l i (String.length needle) = needle || find (i + 1)
         in
         find 0)
       lines)

let suite =
  [
    Alcotest.test_case "disabled: counters stay zero" `Quick
      test_counters_disabled_stay_zero;
    Alcotest.test_case "dinic counters exact" `Quick test_dinic_counters_exact;
    Alcotest.test_case "edmonds-karp counters exact" `Quick
      test_edmonds_karp_counters_exact;
    Alcotest.test_case "peel/instance counters exact" `Quick
      test_peel_and_instance_counters_exact;
    Alcotest.test_case "edge peels list no instance" `Quick
      test_edge_peels_list_nothing;
    Alcotest.test_case "span nesting and totals" `Quick
      test_span_nesting_and_totals;
    Alcotest.test_case "span exception safety" `Quick test_span_exception_safe;
    Alcotest.test_case "memory sink events" `Quick test_memory_sink_events;
    Alcotest.test_case "enable keeps an installed sink" `Quick
      test_enable_keeps_installed_sink;
    Alcotest.test_case "disabled: no trace output" `Quick
      test_no_trace_output_when_disabled;
    Alcotest.test_case "disabled: results bit-identical" `Quick
      test_disabled_results_bit_identical;
    Alcotest.test_case "parallel stripes: spans sum across domains" `Quick
      test_parallel_stripes_spans_and_counts;
    Alcotest.test_case "jsonl sink writes valid lines" `Quick
      test_jsonl_sink_valid_lines;
  ]
