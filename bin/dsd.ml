(* dsd — command-line front end for densest subgraph discovery.

   Subcommands:
     generate    write a synthetic graph to an edge-list file
     stats       print dataset characteristics (Table 2 columns)
     decompose   (k, Psi)-core numbers / the kmax core
     cds         find the densest subgraph (exact or approximate)
     query       densest subgraph containing given vertices (Sec 6.3)
     watch       re-answer density/cds over an edge-delta stream
     truss       k-truss decomposition (comparison model)
     patterns    list the built-in patterns

   Graphs are read from edge-list files ('u v' per line, '#' comments)
   or taken from the built-in named datasets with --dataset. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module C = Cmdliner

(* User-facing failures (bad files, bad arguments to the library)
   should print one line and exit 2, not cmdliner's "internal error"
   banner. *)
let or_die f =
  try f () with
  | Invalid_argument msg | Failure msg | Sys_error msg ->
    Printf.eprintf "dsd: %s\n" msg;
    exit 2

(* --input accepts both formats transparently: binary CSR snapshots
   (sniffed by magic, loaded without re-parsing) and text edge lists. *)
let read_graph_file path =
  if Dsd_serve.Snapshot.is_snapshot path then Dsd_serve.Snapshot.load path
  else fst (Dsd_graph.Io.read path)

let load_graph file dataset =
  match (file, dataset) with
  | Some path, None -> read_graph_file path
  | None, Some name ->
    if not (Dsd_data.Datasets.mem name) then begin
      Printf.eprintf "unknown dataset %s; known: %s\n" name
        (String.concat ", "
           (List.map (fun s -> s.Dsd_data.Datasets.name) Dsd_data.Datasets.all));
      exit 2
    end
    else Dsd_data.Datasets.graph name
  | _ ->
    prerr_endline "exactly one of --input or --dataset is required";
    exit 2

let pattern_of_string s =
  match P.of_string s with
  | Some psi -> psi
  | None ->
    Printf.eprintf "unknown pattern %s (see 'dsd patterns')\n" s;
    exit 2

(* ---- common options ---- *)

let input_arg =
  C.Arg.(value & opt (some string) None
         & info [ "i"; "input" ] ~docv:"FILE" ~doc:"Edge-list input file.")

let dataset_arg =
  C.Arg.(value & opt (some string) None
         & info [ "d"; "dataset" ] ~docv:"NAME" ~doc:"Built-in synthetic dataset.")

let pattern_arg =
  C.Arg.(value & opt string "edge"
         & info [ "p"; "pattern" ] ~docv:"PSI"
             ~doc:"Density pattern: edge, triangle, 4/5/6-clique, 2/3-star, \
                   c3-star, diamond, 2-triangle, 3-triangle, basket.")

(* The library runs on one domain.  --domains stays for invocations
   that pass --domains 1; any other value is refused while the
   arguments are parsed, before any graph is loaded. *)
let domains_arg =
  let check = function
    | None | Some 1 -> ()
    | Some d ->
      Printf.eprintf "dsd: --domains %d: only 1 is supported (dsd runs on one domain)\n" d;
      exit 2
  in
  C.Term.(
    const check
    $ C.Arg.(value & opt (some int) None
             & info [ "domains" ] ~docv:"N"
                 ~doc:"Must be 1: every phase runs on the calling domain.  \
                       Kept so that invocations passing $(b,--domains 1) \
                       still work."))

(* ---- observability options ---- *)

let stats_arg =
  C.Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print the per-phase span/counter breakdown (core \
                   decomposition vs. flow vs. clique enumeration) after \
                   the result.")

let trace_arg =
  C.Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write structured trace events (one JSON object per \
                   line) to $(docv).")

(* Run [f] with recording turned on when --stats/--trace ask for it;
   otherwise leave the no-op sink in place so the solvers run exactly
   as unintrumented code. *)
let with_obs ~stats ~trace f =
  if not (stats || Option.is_some trace) then f ()
  else begin
    let chan = Option.map open_out trace in
    let sink =
      match chan with
      | Some c -> Dsd_obs.Trace.jsonl c
      | None -> Dsd_obs.Trace.null
    in
    let r = Dsd_obs.Control.with_recording ~sink f in
    Option.iter close_out chan;
    Option.iter (Printf.printf "trace      %s\n") trace;
    if stats then print_string (Dsd_obs.Report.to_string ());
    r
  end

(* ---- generate ---- *)

let generate =
  let model =
    C.Arg.(required & pos 0 (some string) None
           & info [] ~docv:"MODEL" ~doc:"er | rmat | ssca | ba | chunglu")
  in
  let n = C.Arg.(value & opt int 1000 & info [ "n" ] ~doc:"Vertices.") in
  let seed = C.Arg.(value & opt int 42 & info [ "seed" ] ~doc:"PRNG seed.") in
  let param =
    C.Arg.(value & opt float 0.01
           & info [ "param" ]
               ~doc:"Model parameter: ER edge probability, BA attach count, \
                     SSCA max clique, R-MAT edge factor, Chung-Lu average degree.")
  in
  let output =
    C.Arg.(required & opt (some string) None
           & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Output edge-list file.")
  in
  let run model n seed param output =
    let g =
      match model with
      | "er" -> Dsd_data.Gen.er_gnp ~seed ~n ~p:param
      | "rmat" ->
        let scale =
          int_of_float (Float.ceil (Float.log2 (float_of_int (max 2 n))))
        in
        Dsd_data.Gen.rmat ~seed ~scale ~edge_factor:(int_of_float param) ()
      | "ssca" -> Dsd_data.Gen.ssca ~seed ~n ~max_clique:(int_of_float param)
      | "ba" -> Dsd_data.Gen.barabasi_albert ~seed ~n ~attach:(int_of_float param)
      | "chunglu" ->
        Dsd_data.Gen.power_law_chung_lu ~seed ~n ~alpha:2.3 ~avg_deg:param
      | other ->
        Printf.eprintf "unknown model %s\n" other;
        exit 2
    in
    Dsd_graph.Io.write output g;
    Printf.printf "wrote %s: %d vertices, %d edges\n" output (G.n g) (G.m g)
  in
  let run a b c d e = or_die (fun () -> run a b c d e) in
  C.Cmd.v (C.Cmd.info "generate" ~doc:"Generate a synthetic graph.")
    C.Term.(const run $ model $ n $ seed $ param $ output)

(* ---- stats ---- *)

let stats =
  let run input dataset pattern () =
    let g = load_graph input dataset in
    let psi = pattern_of_string pattern in
    let _, cc = Dsd_graph.Traversal.components g in
    let alpha = Dsd_util.Stats.power_law_alpha (G.degrees g) in
    let decomp = Dsd_core.Clique_core.decompose ~track_density:false g psi in
    let core = Dsd_core.Clique_core.kmax_core decomp in
    Printf.printf "vertices            %d\n" (G.n g);
    Printf.printf "edges               %d\n" (G.m g);
    Printf.printf "connected comps     %d\n" cc;
    Printf.printf "pseudo-diameter     %d\n" (Dsd_graph.Traversal.pseudo_diameter g);
    Printf.printf "power-law alpha     %.4f\n" alpha;
    Printf.printf "pattern             %s\n" psi.P.name;
    Printf.printf "mu(G, Psi)          %d\n" decomp.Dsd_core.Clique_core.mu_total;
    Printf.printf "kmax                %d\n" decomp.Dsd_core.Clique_core.kmax;
    Printf.printf "(kmax, Psi)-core    %d vertices\n" (Array.length core)
  in
  let run a b c d = or_die (fun () -> run a b c d) in
  C.Cmd.v (C.Cmd.info "stats" ~doc:"Print dataset characteristics.")
    C.Term.(const run $ input_arg $ dataset_arg $ pattern_arg $ domains_arg)

(* ---- decompose ---- *)

let decompose =
  let show_all =
    C.Arg.(value & flag & info [ "all" ] ~doc:"Print every vertex's core number.")
  in
  let run input dataset pattern () show_all stats trace =
    let g = load_graph input dataset in
    let psi = pattern_of_string pattern in
    let decomp =
      with_obs ~stats ~trace (fun () ->
          Dsd_core.Clique_core.decompose ~track_density:false g psi)
    in
    Printf.printf "kmax = %d\n" decomp.Dsd_core.Clique_core.kmax;
    if show_all then
      Array.iteri
        (fun v c -> Printf.printf "%d %d\n" v c)
        decomp.Dsd_core.Clique_core.core
    else begin
      let core = Dsd_core.Clique_core.kmax_core decomp in
      Printf.printf "(kmax, %s)-core: %d vertices\n" psi.P.name (Array.length core);
      Array.iter (Printf.printf "%d ") core;
      print_newline ()
    end
  in
  let run a b c d e f g = or_die (fun () -> run a b c d e f g) in
  C.Cmd.v (C.Cmd.info "decompose" ~doc:"(k, Psi)-core decomposition.")
    C.Term.(const run $ input_arg $ dataset_arg $ pattern_arg $ domains_arg
            $ show_all $ stats_arg $ trace_arg)

(* ---- cds ---- *)

let cds =
  let algo =
    C.Arg.(value & opt string "coreexact"
           & info [ "a"; "algorithm" ]
               ~doc:"exact | coreexact | peel | incapp | coreapp | \
                     greedy++ | streaming")
  in
  let dot =
    C.Arg.(value & opt (some string) None
           & info [ "dot" ] ~docv:"FILE"
               ~doc:"Also write the graph as Graphviz DOT with the found \
                     subgraph highlighted.")
  in
  let run input dataset pattern () algo dot stats trace =
    let g = load_graph input dataset in
    let psi = pattern_of_string pattern in
    let api algorithm () = Dsd_core.Api.densest_subgraph ~psi ~algorithm g in
    let name, solve =
      match String.lowercase_ascii algo with
      | "exact" -> ("Exact", api Dsd_core.Api.Exact_flow)
      | "coreexact" -> ("CoreExact", api Dsd_core.Api.Core_exact)
      | "peel" -> ("PeelApp", api Dsd_core.Api.Peel)
      | "incapp" -> ("IncApp", api Dsd_core.Api.Inc_app)
      | "coreapp" -> ("CoreApp", api Dsd_core.Api.Core_app)
      | "greedy++" | "greedypp" ->
        ("Greedy++", fun () -> (Dsd_core.Greedy_pp.run g psi).Dsd_core.Greedy_pp.subgraph)
      | "streaming" ->
        ("Streaming", fun () -> (Dsd_core.Streaming.run g psi).Dsd_core.Streaming.subgraph)
      | other ->
        Printf.eprintf "unknown algorithm %s\n" other;
        exit 2
    in
    let (sg : Dsd_core.Density.subgraph), elapsed =
      with_obs ~stats ~trace (fun () -> Dsd_util.Timer.time solve)
    in
    Printf.printf "algorithm  %s\n" name;
    Printf.printf "pattern    %s\n" psi.P.name;
    Printf.printf "density    %.6f\n" sg.density;
    Printf.printf "vertices   %d\n" (Array.length sg.vertices);
    Printf.printf "time       %.3fs\n" elapsed;
    Array.iter (Printf.printf "%d ") sg.vertices;
    print_newline ();
    Option.iter
      (fun path ->
        Dsd_graph.Io.write_dot path g ~highlight:sg.vertices;
        Printf.printf "wrote %s\n" path)
      dot
  in
  let run a b c d e f g h = or_die (fun () -> run a b c d e f g h) in
  C.Cmd.v
    (C.Cmd.info "cds" ~doc:"Find the (approximately) densest subgraph.")
    C.Term.(const run $ input_arg $ dataset_arg $ pattern_arg $ domains_arg
            $ algo $ dot $ stats_arg $ trace_arg)

(* ---- query (Section 6.3 variant) ---- *)

let query =
  let vertices =
    C.Arg.(non_empty & pos_all int []
           & info [] ~docv:"VERTEX" ~doc:"Query vertices the subgraph must contain.")
  in
  let run input dataset pattern () vertices stats trace =
    let g = load_graph input dataset in
    let psi = pattern_of_string pattern in
    let r =
      with_obs ~stats ~trace (fun () ->
          Dsd_core.Query_dsd.run g psi ~query:(Array.of_list vertices))
    in
    let sg = r.Dsd_core.Query_dsd.subgraph in
    Printf.printf "pattern    %s\n" psi.P.name;
    Printf.printf "density    %.6f\n" sg.Dsd_core.Density.density;
    Printf.printf "vertices   %d\n" (Array.length sg.Dsd_core.Density.vertices);
    Printf.printf "time       %.3fs (%d min-cuts)\n" r.Dsd_core.Query_dsd.elapsed_s
      r.Dsd_core.Query_dsd.iterations;
    Array.iter (Printf.printf "%d ") sg.Dsd_core.Density.vertices;
    print_newline ()
  in
  let run a b c d e f g = or_die (fun () -> run a b c d e f g) in
  C.Cmd.v
    (C.Cmd.info "query"
       ~doc:"Densest subgraph containing given query vertices (Section 6.3).")
    C.Term.(const run $ input_arg $ dataset_arg $ pattern_arg $ domains_arg
            $ vertices $ stats_arg $ trace_arg)

(* ---- topk: disjoint locally densest regions ---- *)

let topk =
  let k_arg =
    C.Arg.(value & opt int 3
           & info [ "k" ] ~docv:"K"
               ~doc:"How many disjoint regions to extract.")
  in
  let run input dataset pattern () k stats trace =
    let g = load_graph input dataset in
    let psi = pattern_of_string pattern in
    let r =
      with_obs ~stats ~trace (fun () -> Dsd_core.Topk_lds.run ~k g psi)
    in
    Printf.printf "pattern    %s\n" psi.P.name;
    Printf.printf "regions    %d\n" (List.length r.Dsd_core.Topk_lds.regions);
    Printf.printf "time       %.3fs (%d rounds, %d min-cuts)\n"
      r.Dsd_core.Topk_lds.stats.elapsed_s r.Dsd_core.Topk_lds.stats.rounds
      r.Dsd_core.Topk_lds.stats.iterations;
    List.iteri
      (fun i (sg : Dsd_core.Density.subgraph) ->
        Printf.printf "region %d   density %.6f, %d vertices\n" (i + 1)
          sg.density (Array.length sg.vertices);
        Array.iter (Printf.printf "%d ") sg.vertices;
        print_newline ())
      r.Dsd_core.Topk_lds.regions
  in
  let run a b c d e f g = or_die (fun () -> run a b c d e f g) in
  C.Cmd.v
    (C.Cmd.info "topk"
       ~doc:"Top-k pairwise-disjoint locally densest subgraphs.")
    C.Term.(const run $ input_arg $ dataset_arg $ pattern_arg $ domains_arg
            $ k_arg $ stats_arg $ trace_arg)

(* ---- hierarchy: the density-friendly decomposition ---- *)

let hierarchy =
  let levels_arg =
    C.Arg.(value & opt int 0
           & info [ "levels" ] ~docv:"N"
               ~doc:"Print only the first $(docv) levels (0 = the whole \
                     chain).  The full decomposition is computed either way.")
  in
  let run input dataset pattern () levels stats trace =
    if levels < 0 then begin
      prerr_endline "dsd: --levels must be >= 0";
      exit 2
    end;
    let g = load_graph input dataset in
    let psi = pattern_of_string pattern in
    let d =
      with_obs ~stats ~trace (fun () -> Dsd_core.Ld_decomposition.decompose g psi)
    in
    let all = d.Dsd_core.Ld_decomposition.levels in
    Printf.printf "pattern    %s\n" psi.P.name;
    Printf.printf "levels     %d\n" (List.length all);
    Printf.printf "time       %.3fs (%d min-cuts)\n"
      d.Dsd_core.Ld_decomposition.elapsed_s
      d.Dsd_core.Ld_decomposition.iterations;
    List.iteri
      (fun i (lvl : Dsd_core.Ld_decomposition.level) ->
        if levels = 0 || i < levels then begin
          Printf.printf "level %d    marginal %.6f, %d vertices (prefix %d)\n"
            (i + 1) lvl.marginal_density
            (Array.length lvl.vertices)
            lvl.prefix_size;
          Array.iter (Printf.printf "%d ") lvl.vertices;
          print_newline ()
        end)
      all
  in
  let run a b c d e f g = or_die (fun () -> run a b c d e f g) in
  C.Cmd.v
    (C.Cmd.info "hierarchy"
       ~doc:"Density-friendly decomposition: the full chain of \
             locally-densest prefixes (level 1 is the CDS).")
    C.Term.(const run $ input_arg $ dataset_arg $ pattern_arg $ domains_arg
            $ levels_arg $ stats_arg $ trace_arg)

(* ---- watch: re-answer the CDS over an edge-delta stream ---- *)

let watch =
  let deltas_arg =
    C.Arg.(required & opt (some string) None
           & info [ "deltas" ] ~docv:"FILE"
               ~doc:"Delta stream: lines $(b,+ U V) (insert) and $(b,- U V) \
                     (delete); a blank line or $(b,--) ends a batch; \
                     $(b,#) starts a comment.")
  in
  let read_deltas path =
    let ic = open_in path in
    let batches = ref [] in
    let cur = ref [] in
    let flush () =
      if !cur <> [] then begin
        batches := Array.of_list (List.rev !cur) :: !batches;
        cur := []
      end
    in
    let bad line =
      Printf.eprintf "dsd watch: bad delta line '%s'\n" line;
      exit 2
    in
    (try
       while true do
         let line = String.trim (input_line ic) in
         if line = "" || line = "--" then flush ()
         else if line.[0] = '#' then ()
         else
           match
             List.filter (fun s -> s <> "") (String.split_on_char ' ' line)
           with
           | [ op; u; v ] -> (
             match (op, int_of_string_opt u, int_of_string_opt v) with
             | "+", Some u, Some v ->
               cur := Dsd_graph.Dynamic.Add (u, v) :: !cur
             | "-", Some u, Some v ->
               cur := Dsd_graph.Dynamic.Remove (u, v) :: !cur
             | _ -> bad line)
           | _ -> bad line
       done
     with End_of_file -> ());
    close_in ic;
    flush ();
    Array.of_list (List.rev !batches)
  in
  let run input dataset pattern deltas stats trace =
    let g = load_graph input dataset in
    let psi = pattern_of_string pattern in
    let batches = read_deltas deltas in
    with_obs ~stats ~trace (fun () ->
        let session = Dsd_core.Inc_dsd.create g psi in
        Printf.printf "pattern    %s\n" psi.P.name;
        Printf.printf "batches    %d\n" (Array.length batches);
        let answer tag (sg : Dsd_core.Density.subgraph) =
          print_endline tag;
          Printf.printf "density    %.6f\n" sg.density;
          Printf.printf "vertices   %d\n" (Array.length sg.vertices);
          Array.iter (Printf.printf "%d ") sg.vertices;
          print_newline ()
        in
        answer "initial" (Dsd_core.Inc_dsd.query session);
        Array.iteri
          (fun i batch ->
            let applied = Dsd_core.Inc_dsd.apply session batch in
            answer
              (Printf.sprintf "batch      %d (%d/%d ops, m=%d)" (i + 1)
                 applied (Array.length batch)
                 (Dsd_graph.Dynamic.m (Dsd_core.Inc_dsd.dynamic session)))
              (Dsd_core.Inc_dsd.query session))
          batches)
  in
  let run a b c d e f = or_die (fun () -> run a b c d e f) in
  C.Cmd.v
    (C.Cmd.info "watch"
       ~doc:"Stream edge inserts/deletes from a delta file and re-answer \
             the densest subgraph after every batch.")
    C.Term.(const run $ input_arg $ dataset_arg $ pattern_arg $ deltas_arg
            $ stats_arg $ trace_arg)

(* ---- fuzz ---- *)

let fuzz =
  let cases =
    C.Arg.(value & opt int 100
           & info [ "cases" ] ~docv:"N" ~doc:"Cases to generate.")
  in
  let seed =
    C.Arg.(value & opt int 42
           & info [ "seed" ] ~docv:"S" ~doc:"Root PRNG seed.")
  in
  let budget =
    C.Arg.(value & opt (some float) None
           & info [ "time-budget" ] ~docv:"T"
               ~doc:"Stop generating new cases after $(docv) seconds.")
  in
  let relation =
    C.Arg.(value & opt (some string) None
           & info [ "relation" ] ~docv:"R"
               ~doc:"Check only this metamorphic relation (see \
                     'dsd fuzz --list-relations').")
  in
  let list_relations =
    C.Arg.(value & flag
           & info [ "list-relations" ] ~doc:"List the relation registry and exit.")
  in
  let out =
    C.Arg.(value & opt string "."
           & info [ "out" ] ~docv:"DIR"
               ~doc:"Directory for the reproducer file written on failure.")
  in
  let replay =
    C.Arg.(value & opt (some string) None
           & info [ "replay" ] ~docv:"FILE"
               ~doc:"Re-run the single check recorded in a reproducer \
                     file instead of fuzzing.")
  in
  let run cases seed budget relation list_relations out replay =
    if list_relations then
      List.iter print_endline Dsd_check.Relation.names
    else
      match replay with
      | Some path ->
        let repro = Dsd_check.Repro.read path in
        Printf.printf "replay     %s relation=%s psi=%s seed=%d\n" path
          repro.Dsd_check.Repro.relation repro.Dsd_check.Repro.psi
          repro.Dsd_check.Repro.seed;
        (match Dsd_check.Engine.replay repro with
        | Dsd_check.Relation.Pass ->
          print_endline "verdict    PASS (violation no longer reproduces)"
        | Dsd_check.Relation.Skip why ->
          Printf.printf "verdict    SKIP (%s)\n" why
        | Dsd_check.Relation.Fail msg ->
          print_endline "verdict    FAIL";
          Printf.printf "violation  %s\n" msg;
          exit 1)
      | None ->
        let summary =
          Dsd_check.Engine.run ?relation ?time_budget_s:budget ~cases ~seed ()
        in
        Printf.printf "fuzz       seed=%d cases=%d\n" seed cases;
        print_string (Dsd_check.Engine.summary_to_string summary);
        (match summary.Dsd_check.Engine.failure with
        | None -> ()
        | Some f ->
          let path =
            Filename.concat out
              (Printf.sprintf "dsd-fuzz-%s-%d.repro" f.relation f.case_seed)
          in
          Dsd_check.Repro.write path (Dsd_check.Engine.to_repro f);
          Printf.printf "reproducer %s\n" path;
          Printf.printf "replay     dsd fuzz --replay %s\n" path;
          exit 1)
  in
  let run a b c d e f g = or_die (fun () -> run a b c d e f g) in
  C.Cmd.v
    (C.Cmd.info "fuzz"
       ~doc:"Metamorphic fuzzing: random graphs checked against the \
             paper's theorems as executable relations.")
    C.Term.(const run $ cases $ seed $ budget $ relation $ list_relations
            $ out $ replay)

(* ---- snapshot ---- *)

let snapshot =
  let build =
    let output =
      C.Arg.(required & pos 0 (some string) None
             & info [] ~docv:"OUT" ~doc:"Snapshot file to write.")
    in
    let run input dataset output =
      let g = load_graph input dataset in
      let bytes = Dsd_serve.Snapshot.write output g in
      Printf.printf "wrote %s: %d vertices, %d edges, %d bytes\n" output
        (G.n g) (G.m g) bytes
    in
    let run a b c = or_die (fun () -> run a b c) in
    C.Cmd.v
      (C.Cmd.info "build"
         ~doc:"Convert a graph to a binary CSR snapshot (instant loads).")
      C.Term.(const run $ input_arg $ dataset_arg $ output)
  in
  let info_cmd =
    let file =
      C.Arg.(required & pos 0 (some string) None
             & info [] ~docv:"FILE" ~doc:"Snapshot file to inspect.")
    in
    let run file =
      let i = Dsd_serve.Snapshot.info file in
      Printf.printf "version    %d\n" i.Dsd_serve.Snapshot.info_version;
      Printf.printf "vertices   %d\n" i.Dsd_serve.Snapshot.n;
      Printf.printf "edges      %d\n" i.Dsd_serve.Snapshot.m;
      Printf.printf "bytes      %d\n" i.Dsd_serve.Snapshot.bytes
    in
    let run a = or_die (fun () -> run a) in
    C.Cmd.v
      (C.Cmd.info "info" ~doc:"Print a snapshot's header.")
      C.Term.(const run $ file)
  in
  C.Cmd.group
    (C.Cmd.info "snapshot" ~doc:"Binary CSR snapshots for the serving layer.")
    [ build; info_cmd ]

(* ---- serve / client ---- *)

let socket_arg =
  C.Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH" ~doc:"Unix-domain socket path.")

let port_arg =
  C.Arg.(value & opt (some int) None
         & info [ "port" ] ~docv:"PORT" ~doc:"TCP port.")

let host_arg =
  C.Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST"
             ~doc:"TCP host to bind/connect (with --port).")

let address socket port host =
  match (socket, port) with
  | Some path, None -> Dsd_serve.Server.Unix_domain path
  | None, Some port -> Dsd_serve.Server.Tcp { host; port }
  | _ ->
    prerr_endline "exactly one of --socket or --port is required";
    exit 2

let serve =
  let graphs =
    C.Arg.(value & opt_all string []
           & info [ "g"; "graph" ] ~docv:"NAME=FILE"
               ~doc:"Serve graph $(b,FILE) (edge list or snapshot) under \
                     $(b,NAME).  Repeatable.")
  in
  let datasets =
    C.Arg.(value & opt_all string []
           & info [ "dataset" ] ~docv:"NAME"
               ~doc:"Also serve a built-in synthetic dataset.  Repeatable.")
  in
  let max_cached =
    C.Arg.(value & opt int 64
           & info [ "max-cached" ] ~docv:"N"
               ~doc:"Result-LRU capacity: hot (graph, psi, algorithm, query) \
                     responses answered without touching a solver.")
  in
  let timeout =
    C.Arg.(value & opt float 30.
           & info [ "receive-timeout" ] ~docv:"SECS"
               ~doc:"Disconnect a peer that sends nothing for $(docv) \
                     (must be positive).")
  in
  let run socket port host graphs datasets max_cached timeout () =
    if max_cached < 0 then begin
      prerr_endline "dsd: --max-cached must be >= 0";
      exit 2
    end;
    if not (Float.is_finite timeout && timeout > 0.) then begin
      prerr_endline "dsd: --receive-timeout must be a positive number of seconds";
      exit 2
    end;
    let named =
      List.map
        (fun spec ->
          match String.index_opt spec '=' with
          | Some i ->
            let name = String.sub spec 0 i in
            let path = String.sub spec (i + 1) (String.length spec - i - 1) in
            if name = "" || path = "" then begin
              Printf.eprintf "dsd: --graph expects NAME=FILE, got %s\n" spec;
              exit 2
            end;
            (name, read_graph_file path)
          | None ->
            Printf.eprintf "dsd: --graph expects NAME=FILE, got %s\n" spec;
            exit 2)
        graphs
      @ List.map
          (fun name ->
            if not (Dsd_data.Datasets.mem name) then begin
              Printf.eprintf "unknown dataset %s\n" name;
              exit 2
            end;
            (name, Dsd_data.Datasets.graph name))
          datasets
    in
    if named = [] then begin
      prerr_endline "dsd serve: at least one --graph or --dataset is required";
      exit 2
    end;
    let addr = address socket port host in
    (* Counters (serve_* and solver) accumulate for the stats endpoint
       for as long as the daemon lives. *)
    Dsd_obs.Control.enable ();
    let state = Dsd_serve.State.create ~max_cached named in
    List.iter
      (fun (name, g) ->
        Printf.printf "serving %-12s n=%d m=%d\n%!" name (G.n g) (G.m g))
      (Dsd_serve.State.graphs state);
    Dsd_serve.Server.run ~receive_timeout_s:timeout ~state addr
  in
  let run a b c d e f g h = or_die (fun () -> run a b c d e f g h) in
  C.Cmd.v
    (C.Cmd.info "serve"
       ~doc:"Long-lived serving daemon: graphs loaded once, prepared state \
             and hot results cached, requests over a Unix/TCP socket.")
    C.Term.(const run $ socket_arg $ port_arg $ host_arg $ graphs $ datasets
            $ max_cached $ timeout $ domains_arg)

let client =
  let words =
    C.Arg.(non_empty & pos_all string []
           & info [] ~docv:"COMMAND"
               ~doc:"ping | stats | density GRAPH PSI [ALGO] | cds GRAPH PSI \
                     [ALGO] | decompose GRAPH PSI | query GRAPH PSI VERTEX... \
                     | topk GRAPH PSI K | hierarchy GRAPH PSI [LEVELS] \
                     | delta GRAPH +U,V... -U,V... | shutdown")
  in
  let parse_vertices vs =
    List.map
      (fun s ->
        match int_of_string_opt s with
        | Some v -> v
        | None ->
          Printf.eprintf "dsd client: bad vertex %s\n" s;
          exit 2)
      vs
  in
  let request_of_words = function
    | [ "ping" ] -> Dsd_serve.Protocol.Ping
    | [ "stats" ] -> Dsd_serve.Protocol.Stats
    | [ "shutdown" ] -> Dsd_serve.Protocol.Shutdown
    | [ "density"; graph; psi ] ->
      Dsd_serve.Protocol.Density { graph; psi; algorithm = "coreexact" }
    | [ "density"; graph; psi; algorithm ] ->
      Dsd_serve.Protocol.Density { graph; psi; algorithm }
    | [ "cds"; graph; psi ] ->
      Dsd_serve.Protocol.Cds { graph; psi; algorithm = "coreexact" }
    | [ "cds"; graph; psi; algorithm ] ->
      Dsd_serve.Protocol.Cds { graph; psi; algorithm }
    | [ "decompose"; graph; psi ] -> Dsd_serve.Protocol.Decompose { graph; psi }
    | [ "topk"; graph; psi; k ] -> (
      match int_of_string_opt k with
      | Some k -> Dsd_serve.Protocol.Topk { graph; psi; k }
      | None ->
        Printf.eprintf "dsd client: bad k %s\n" k;
        exit 2)
    | [ "hierarchy"; graph; psi ] ->
      Dsd_serve.Protocol.Hierarchy { graph; psi; levels = 0 }
    | [ "hierarchy"; graph; psi; levels ] -> (
      match int_of_string_opt levels with
      | Some levels -> Dsd_serve.Protocol.Hierarchy { graph; psi; levels }
      | None ->
        Printf.eprintf "dsd client: bad level count %s\n" levels;
        exit 2)
    | "query" :: graph :: psi :: (_ :: _ as vs) ->
      Dsd_serve.Protocol.Query
        { graph; psi; vertices = Array.of_list (parse_vertices vs) }
    | "delta" :: graph :: (_ :: _ as ops) ->
      let adds = ref [] and removes = ref [] in
      List.iter
        (fun w ->
          let bad () =
            Printf.eprintf
              "dsd client: bad delta op '%s' (want +U,V or -U,V)\n" w;
            exit 2
          in
          if String.length w < 2 then bad ()
          else
            match
              String.split_on_char ','
                (String.sub w 1 (String.length w - 1))
            with
            | [ u; v ] -> (
              match (int_of_string_opt u, int_of_string_opt v) with
              | Some u, Some v -> (
                match w.[0] with
                | '+' -> adds := (u, v) :: !adds
                | '-' -> removes := (u, v) :: !removes
                | _ -> bad ())
              | _ -> bad ())
            | _ -> bad ())
        ops;
      Dsd_serve.Protocol.Apply_delta
        { graph;
          adds = Array.of_list (List.rev !adds);
          removes = Array.of_list (List.rev !removes) }
    | words ->
      Printf.eprintf "dsd client: bad command '%s'\n" (String.concat " " words);
      exit 2
  in
  let print_response (resp : Dsd_serve.Protocol.response) =
    match resp with
    | Pong -> print_endline "pong"
    | Shutdown_r -> print_endline "shutting down"
    | Density_r rho -> Printf.printf "density    %.6f\n" rho
    | Cds_r { density; vertices } | Query_r { density; vertices } ->
      Printf.printf "density    %.6f\n" density;
      Printf.printf "vertices   %d\n" (Array.length vertices);
      Array.iter (Printf.printf "%d ") vertices;
      print_newline ()
    | Decompose_r { kmax; core } ->
      Printf.printf "kmax = %d\n" kmax;
      Printf.printf "vertices   %d\n" (Array.length core)
    | Topk_r { regions } ->
      Printf.printf "regions    %d\n" (List.length regions);
      List.iteri
        (fun i (density, vertices) ->
          Printf.printf "region %d   density %.6f, %d vertices\n" (i + 1)
            density (Array.length vertices);
          Array.iter (Printf.printf "%d ") vertices;
          print_newline ())
        regions
    | Hierarchy_r { levels } ->
      Printf.printf "levels     %d\n" (List.length levels);
      List.iteri
        (fun i (marginal, vertices) ->
          Printf.printf "level %d    marginal %.6f, %d vertices\n" (i + 1)
            marginal (Array.length vertices);
          Array.iter (Printf.printf "%d ") vertices;
          print_newline ())
        levels
    | Apply_delta_r { n; m; added; removed } ->
      Printf.printf "graph      n=%d m=%d\n" n m;
      Printf.printf "applied    +%d -%d\n" added removed
    | Stats_r { counters; cache; graphs } ->
      List.iter (fun line -> Printf.printf "graph      %s\n" line) graphs;
      List.iter (fun (k, v) -> Printf.printf "cache.%-20s %8d\n" k v) cache;
      List.iter
        (fun (k, v) -> if v <> 0 then Printf.printf "%-26s %8d\n" k v)
        counters
    | Error_r msg ->
      Printf.eprintf "dsd client: server error: %s\n" msg;
      exit 1
  in
  let run socket port host words =
    let addr = address socket port host in
    let req = request_of_words words in
    match Dsd_serve.Client.once addr req with
    | resp -> print_response resp
    | exception Dsd_serve.Protocol.Error msg ->
      Printf.eprintf "dsd client: %s\n" msg;
      exit 1
    | exception Unix.Unix_error (err, fn, _) ->
      let where =
        match addr with
        | Dsd_serve.Server.Unix_domain path -> path
        | Dsd_serve.Server.Tcp { host; port } -> Printf.sprintf "%s:%d" host port
      in
      if fn = "connect" then
        Printf.eprintf "dsd client: cannot connect to %s: %s\n" where
          (Unix.error_message err)
      else
        Printf.eprintf "dsd client: %s: %s: %s\n" where fn
          (Unix.error_message err);
      exit 1
  in
  let run a b c d = or_die (fun () -> run a b c d) in
  C.Cmd.v
    (C.Cmd.info "client"
       ~doc:"Send one request to a running `dsd serve` daemon.")
    C.Term.(const run $ socket_arg $ port_arg $ host_arg $ words)

(* ---- truss ---- *)

let truss =
  let k = C.Arg.(value & opt (some int) None
                 & info [ "k" ] ~doc:"Print the edges of the k-truss.") in
  let run input dataset k =
    let g = load_graph input dataset in
    let t = Dsd_core.Truss.decompose g in
    Printf.printf "max truss  %d\n" (Dsd_core.Truss.kmax t);
    let sg = Dsd_core.Truss.max_truss_subgraph g t in
    Printf.printf "kmax-truss %d vertices, edge density %.4f\n"
      (Array.length sg.Dsd_core.Density.vertices) sg.Dsd_core.Density.density;
    Option.iter
      (fun k ->
        let edges = Dsd_core.Truss.k_truss t ~k in
        Printf.printf "%d-truss: %d edges\n" k (Array.length edges);
        Array.iter (fun (u, v) -> Printf.printf "%d %d\n" u v) edges)
      k
  in
  let run a b c = or_die (fun () -> run a b c) in
  C.Cmd.v
    (C.Cmd.info "truss" ~doc:"k-truss decomposition (comparison model).")
    C.Term.(const run $ input_arg $ dataset_arg $ k)

(* ---- patterns ---- *)

let patterns =
  let run () =
    List.iter
      (fun (psi : P.t) ->
        Printf.printf "%-12s |V|=%d |E|=%d  %s\n" psi.name psi.size
          (P.edge_count psi)
          (String.concat " "
             (List.map
                (fun (u, v) -> Printf.sprintf "%d-%d" u v)
                (Array.to_list psi.edges))))
      ([ P.edge; P.triangle; P.clique 4; P.clique 5; P.clique 6 ] @ P.figure7)
  in
  C.Cmd.v (C.Cmd.info "patterns" ~doc:"List built-in patterns.")
    C.Term.(const run $ const ())

let () =
  let info =
    C.Cmd.info "dsd" ~version:"1.0.0"
      ~doc:"Core-based densest subgraph discovery (VLDB'19 reproduction)."
  in
  exit
    (C.Cmd.eval
       (C.Cmd.group info
          [ generate; stats; decompose; cds; query; topk; hierarchy; watch;
            fuzz; truss; patterns; snapshot; serve; client ]))
