(* One runner per table/figure of the paper's evaluation (Section 8 +
   appendix).  Each prints rows in the paper's shape; EXPERIMENTS.md
   records paper-vs-measured.  Cells run in forked children under a
   wall-clock timeout (Harness.run_cell): a TIMEOUT entry corresponds
   to the paper's bars touching the top of the chart. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module D = Dsd_core.Density
module H = Harness

let hs = [ 2; 3; 4; 5; 6 ]

let clique_name h =
  match h with
  | 2 -> "edge"
  | 3 -> "triangle"
  | h -> string_of_int h ^ "-clique"

let dataset g_name = Dsd_data.Datasets.graph g_name

let time_of f = Printf.sprintf "%f" (snd (H.timed f))

(* Reference optima used by ratio experiments, computed in a child so a
   pathological dataset yields a skipped section instead of a hung
   harness. *)
let guarded_float ?timeout f =
  match H.run_cell ?timeout (fun () -> Printf.sprintf "%f" (f ())) with
  | H.Ok s -> (try Some (float_of_string (String.trim s)) with _ -> None)
  | _ -> None

(* ---- Table 2 / Figure 18: dataset characteristics ---- *)

let tab2 () =
  H.section "Table 2 / Fig. 18 — dataset characteristics (triangle cores)";
  let names =
    Dsd_data.Datasets.(
      names_of_group Small @ names_of_group Large @ names_of_group Random
      @ names_of_group Extra @ names_of_group Case_study)
  in
  let rows =
    List.map
      (fun name ->
        let g = dataset name in
        let basic =
          Printf.sprintf "%d %d" (G.n g) (G.m g)
        in
        let cell =
          H.run_cell ~timeout:(2. *. !H.default_timeout) (fun () ->
              let _, cc = Dsd_graph.Traversal.components g in
              let dia = Dsd_graph.Traversal.pseudo_diameter g in
              let alpha = Dsd_util.Stats.power_law_alpha (G.degrees g) in
              let d =
                Dsd_core.Clique_core.decompose ~track_density:false g P.triangle
              in
              let core = Dsd_core.Clique_core.kmax_core d in
              Printf.sprintf "%d %d %.3f %d %d" cc dia alpha
                d.Dsd_core.Clique_core.kmax (Array.length core))
        in
        let stats =
          match cell with
          | H.Ok s -> String.split_on_char ' ' (String.trim s)
          | other -> [ H.show_payload other; "-"; "-"; "-"; "-" ]
        in
        name :: (String.split_on_char ' ' basic @ stats))
      names
  in
  H.table
    ~header:[ "dataset"; "n"; "m"; "#CC"; "diam~"; "alpha"; "kmax"; "core size" ]
    ~rows

(* ---- Figure 8(a)-(e): exact CDS algorithms on small datasets ---- *)

let exact_cell g psi = H.run_cell (fun () -> time_of (fun () -> ignore (Dsd_core.Exact.run g psi)))
let core_exact_cell g psi =
  H.run_cell (fun () -> time_of (fun () -> ignore (Dsd_core.Core_exact.run g psi)))

let fig8_exact () =
  H.section "Figure 8(a)-(e) — exact algorithms (Exact vs CoreExact), h-cliques";
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]  n=%d m=%d\n" name (G.n g) (G.m g);
      let rows =
        List.map
          (fun h ->
            let psi = P.clique h in
            [ clique_name h;
              H.show_time (exact_cell g psi);
              H.show_time (core_exact_cell g psi) ])
          hs
      in
      H.table ~header:[ "h-clique"; "Exact"; "CoreExact" ] ~rows)
    (Dsd_data.Datasets.names_of_group Dsd_data.Datasets.Small)

(* ---- Figure 8(f)-(j): approximation algorithms on large datasets ---- *)

let approx_cells g psi =
  [ H.run_cell (fun () -> time_of (fun () -> ignore (Dsd_core.Nucleus.run g psi)));
    H.run_cell (fun () -> time_of (fun () -> ignore (Dsd_core.Peel_app.run g psi)));
    H.run_cell (fun () -> time_of (fun () -> ignore (Dsd_core.Inc_app.run g psi)));
    H.run_cell (fun () -> time_of (fun () -> ignore (Dsd_core.Core_app.run g psi))) ]

let fig8_approx_on group =
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]  n=%d m=%d\n" name (G.n g) (G.m g);
      let rows =
        List.map
          (fun h ->
            clique_name h :: List.map H.show_time (approx_cells g (P.clique h)))
          hs
      in
      H.table ~header:[ "h-clique"; "Nucleus"; "PeelApp"; "IncApp"; "CoreApp" ] ~rows)
    (Dsd_data.Datasets.names_of_group group)

let fig8_approx () =
  H.section "Figure 8(f)-(j) — approximation algorithms, h-cliques";
  fig8_approx_on Dsd_data.Datasets.Large

(* ---- Figure 9: flow-network sizes across CoreExact iterations ---- *)

let fig9 () =
  H.section "Figure 9 — flow network size per CoreExact iteration";
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]  (iteration -1 = Exact's whole-graph network)\n" name;
      let rows =
        List.filter_map
          (fun h ->
            let psi = P.clique h in
            let cell =
              H.run_cell ~timeout:(3. *. !H.default_timeout) (fun () ->
                  (* Whole-graph network size: n + |Lambda| + 2 as in
                     Algorithm 1 (for h = 2 it is n + 2). *)
                  let whole =
                    if h = 2 then G.n g + 2
                    else G.n g + Dsd_clique.Kclist.count g ~h:(h - 1) + 2
                  in
                  let r = Dsd_core.Core_exact.run g psi in
                  let sizes = r.Dsd_core.Core_exact.stats.network_nodes in
                  String.concat " "
                    (List.map string_of_int (whole :: sizes)))
            in
            match cell with
            | H.Ok s ->
              let sizes = String.split_on_char ' ' (String.trim s) in
              let take7 = List.filteri (fun i _ -> i < 8) sizes in
              Some (clique_name h :: take7
                    @ List.init (max 0 (8 - List.length take7)) (fun _ -> "-"))
            | other -> Some [ clique_name h; H.show_payload other ]
          )
          hs
      in
      let pad r = r @ List.init (max 0 (9 - List.length r)) (fun _ -> "-") in
      H.table
        ~header:[ "h-clique"; "it=-1"; "0"; "1"; "2"; "3"; "4"; "5"; "6" ]
        ~rows:(List.map pad rows))
    [ "ca_hepth"; "as_caida" ]

(* ---- Figure 10: pruning-criterion ablation ---- *)

let fig10 () =
  H.section "Figure 10 — effect of pruning criteria in CoreExact";
  let variants =
    Dsd_core.Core_exact.
      [ ("P1", { p1 = true; p2 = false });
        ("P2", { p1 = false; p2 = true });
        ("none", no_prunings);
        ("all", all_prunings) ]
  in
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]\n" name;
      let rows =
        List.map
          (fun h ->
            let psi = P.clique h in
            clique_name h
            :: List.map
                 (fun (_, prunings) ->
                   H.show_time
                     (H.run_cell (fun () ->
                          time_of (fun () ->
                              ignore (Dsd_core.Core_exact.run ~prunings g psi)))))
                 variants)
          hs
      in
      H.table ~header:("h-clique" :: List.map fst variants) ~rows)
    [ "as733"; "ca_hepth" ]

(* ---- Table 3: % of CoreExact time in core decomposition ---- *)

let tab3 () =
  H.section "Table 3 — %% of CoreExact time spent in core decomposition";
  let rows =
    List.concat_map
      (fun name ->
        let g = dataset name in
        [ name
          :: List.map
               (fun h ->
                 let cell =
                   H.run_cell (fun () ->
                       let r = Dsd_core.Core_exact.run g (P.clique h) in
                       let s = r.Dsd_core.Core_exact.stats in
                       Printf.sprintf "%.2f%%"
                         (100. *. s.Dsd_core.Core_exact.decompose_s
                          /. max 1e-9 s.Dsd_core.Core_exact.elapsed_s))
                 in
                 H.show_payload cell)
               hs ])
      [ "as733"; "ca_hepth" ]
  in
  H.table
    ~header:("dataset" :: List.map clique_name hs)
    ~rows

(* ---- Table 4: EMcore vs CoreApp (edge, kmax-core) ---- *)

let tab4 () =
  H.section "Table 4 — EMcore vs CoreApp for the classical kmax-core (seconds)";
  let names = Dsd_data.Datasets.names_of_group Dsd_data.Datasets.Large in
  let rows =
    List.map
      (fun algo_name ->
        algo_name
        :: List.map
             (fun name ->
               let g = dataset name in
               let cell =
                 H.run_cell (fun () ->
                     time_of (fun () ->
                         match algo_name with
                         | "EMcore" -> ignore (Dsd_core.Emcore.run g)
                         | _ -> ignore (Dsd_core.Core_app.run g P.edge)))
               in
               H.show_time cell)
             names)
      [ "EMcore"; "CoreApp" ]
  in
  H.table ~header:("algo." :: names) ~rows

(* ---- Figure 11: approximation ratios ---- *)

let fig11 () =
  H.section "Figure 11 — theoretical (1/h) vs actual approximation ratios";
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]\n" name;
      let rows =
        List.map
          (fun h ->
            let psi = P.clique h in
            let cell =
              H.run_cell ~timeout:(6. *. !H.default_timeout) (fun () ->
                  let opt =
                    (Dsd_core.Core_exact.run g psi).Dsd_core.Core_exact.subgraph
                  in
                  let peel = (Dsd_core.Peel_app.run g psi).Dsd_core.Peel_app.subgraph in
                  let capp = (Dsd_core.Core_app.run g psi).Dsd_core.Core_app.subgraph in
                  if opt.D.density <= 0. then "n/a n/a"
                  else
                    Printf.sprintf "%.4f %.4f"
                      (peel.D.density /. opt.D.density)
                      (capp.D.density /. opt.D.density))
            in
            let actuals =
              match cell with
              | H.Ok s -> String.split_on_char ' ' (String.trim s)
              | other -> [ H.show_payload other; "-" ]
            in
            [ clique_name h; Printf.sprintf "%.3f" (1. /. float_of_int h) ]
            @ actuals)
          hs
      in
      H.table ~header:[ "h-clique"; "T=1/h"; "R(PeelApp)"; "R(CoreApp)" ] ~rows)
    [ "netscience"; "as_caida" ]

(* ---- Figure 12: CoreExact vs CoreApp ---- *)

let fig12 () =
  H.section "Figure 12 — exact (CoreExact) vs approximation (CoreApp)";
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]\n" name;
      let rows =
        List.map
          (fun h ->
            let psi = P.clique h in
            [ clique_name h;
              H.show_time (core_exact_cell g psi);
              H.show_time
                (H.run_cell (fun () ->
                     time_of (fun () -> ignore (Dsd_core.Core_app.run g psi)))) ])
          hs
      in
      H.table ~header:[ "h-clique"; "CoreExact"; "CoreApp" ] ~rows)
    [ "ca_hepth"; "as_caida" ]

(* ---- Figures 13/14: random graphs ---- *)

let fig13 () =
  H.section "Figure 13 — exact algorithms on random graphs (SSCA/ER/R-MAT)";
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]  n=%d m=%d\n" name (G.n g) (G.m g);
      let rows =
        List.map
          (fun h ->
            let psi = P.clique h in
            [ clique_name h;
              H.show_time (exact_cell g psi);
              H.show_time (core_exact_cell g psi) ])
          hs
      in
      H.table ~header:[ "h-clique"; "Exact"; "CoreExact" ] ~rows)
    (Dsd_data.Datasets.names_of_group Dsd_data.Datasets.Random)

let fig14 () =
  H.section "Figure 14 — approximation algorithms on random graphs";
  fig8_approx_on Dsd_data.Datasets.Random

(* ---- Table 5: densities of CDS's and PDS's vs the EDS ---- *)

let tab5 () =
  H.section "Table 5 — rho_opt per pattern vs the pattern-density of the EDS";
  let patterns =
    [ P.edge; P.triangle; P.clique 4; P.clique 5; P.clique 6; P.star 2; P.diamond ]
  in
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]\n" name;
      (* The EDS once; then per pattern: rho_opt and rho(EDS, psi). *)
      let eds = (Dsd_core.Core_exact.run g P.edge).Dsd_core.Core_exact.subgraph in
      let rows =
        List.map
          (fun psi ->
            let cell =
              H.run_cell ~timeout:(3. *. !H.default_timeout) (fun () ->
                  let opt =
                    if psi.P.kind = P.Clique then
                      (Dsd_core.Core_exact.run g psi).Dsd_core.Core_exact.subgraph
                    else
                      (Dsd_core.Core_pexact.run g psi).Dsd_core.Core_exact.subgraph
                  in
                  let on_eds =
                    (Dsd_core.Density.of_vertices g psi eds.D.vertices).D.density
                  in
                  Printf.sprintf "%.3f %.3f" opt.D.density on_eds)
            in
            match cell with
            | H.Ok s ->
              (match String.split_on_char ' ' (String.trim s) with
               | [ a; b ] -> [ psi.P.name; a; b ]
               | _ -> [ psi.P.name; String.trim s; "-" ])
            | other -> [ psi.P.name; H.show_payload other; "-" ])
          patterns
      in
      H.table ~header:[ "pattern"; "rho_opt"; "rho(EDS,Psi)" ] ~rows)
    [ "sdblp"; "yeast"; "netscience"; "as733" ]

(* ---- Figure 15: exact PDS algorithms ---- *)

let fig15 () =
  H.section "Figure 15 — exact PDS algorithms (PExact vs CorePExact), Fig. 7 patterns";
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]\n" name;
      let rows =
        List.map
          (fun psi ->
            [ psi.P.name;
              H.show_time
                (H.run_cell (fun () ->
                     time_of (fun () ->
                         ignore
                           (Dsd_core.Exact.run ~family:Dsd_core.Flow_build.Pds g
                              psi))));
              H.show_time
                (H.run_cell (fun () ->
                     time_of (fun () -> ignore (Dsd_core.Core_pexact.run g psi)))) ])
          P.figure7
      in
      H.table ~header:[ "pattern"; "PExact"; "CorePExact" ] ~rows)
    [ "as733"; "ca_hepth" ]

(* ---- Figure 16: approximation PDS algorithms ---- *)

let fig16 () =
  H.section "Figure 16 — approximation PDS algorithms, Fig. 7 patterns";
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]  n=%d m=%d\n" name (G.n g) (G.m g);
      let rows =
        List.map
          (fun psi ->
            [ psi.P.name;
              H.show_time
                (H.run_cell (fun () ->
                     time_of (fun () -> ignore (Dsd_core.Peel_app.run g psi))));
              H.show_time
                (H.run_cell (fun () ->
                     time_of (fun () -> ignore (Dsd_core.Inc_app.run g psi))));
              H.show_time
                (H.run_cell (fun () ->
                     time_of (fun () -> ignore (Dsd_core.Core_app.run g psi)))) ])
          P.figure7
      in
      H.table ~header:[ "pattern"; "PeelApp"; "IncApp"; "CoreApp" ] ~rows)
    [ "ca_hepth"; "as_caida" ]

(* ---- Figure 17: DBLP case study ---- *)

let fig17 () =
  H.section "Figure 17 — case study: S-DBLP PDS for triangle vs 2-star";
  let g = dataset "sdblp" in
  let describe label psi =
    let sg =
      if psi.P.kind = P.Clique then
        (Dsd_core.Core_exact.run g psi).Dsd_core.Core_exact.subgraph
      else (Dsd_core.Core_pexact.run g psi).Dsd_core.Core_exact.subgraph
    in
    let sub, _ = G.induced g sg.D.vertices in
    Printf.printf
      "%-8s PDS: density %.2f, %d authors, %d internal edges (%.0f%% of all pairs), max degree %d\n"
      label sg.D.density (Array.length sg.D.vertices) (G.m sub)
      (100. *. float_of_int (G.m sub)
       /. float_of_int (max 1 (G.n sub * (G.n sub - 1) / 2)))
      (G.max_degree sub)
  in
  describe "triangle" P.triangle;
  describe "2-star" (P.star 2)

(* ---- Figure 20 (appendix): extra datasets ---- *)

let fig20 () =
  H.section "Figure 20 — approximation CDS algorithms on extra datasets";
  fig8_approx_on Dsd_data.Datasets.Extra

(* ---- Figure 21 (appendix): yeast PDS per motif ---- *)

let fig21 () =
  H.section "Figure 21 — yeast PDS per motif (functional classes)";
  let g = dataset "yeast" in
  let rows =
    List.map
      (fun (label, psi) ->
        let cell =
          H.run_cell ~timeout:(3. *. !H.default_timeout) (fun () ->
              let sg =
                if psi.P.kind = P.Clique then
                  (Dsd_core.Core_exact.run g psi).Dsd_core.Core_exact.subgraph
                else (Dsd_core.Core_pexact.run g psi).Dsd_core.Core_exact.subgraph
              in
              Printf.sprintf "%.3f %d" sg.D.density (Array.length sg.D.vertices))
        in
        match cell with
        | H.Ok s ->
          (match String.split_on_char ' ' (String.trim s) with
           | [ d; size ] -> [ label; d; size ]
           | _ -> [ label; String.trim s; "-" ])
        | other -> [ label; H.show_payload other; "-" ])
      [ ("edge", P.edge); ("c3-star", P.c3_star);
        ("2-triangle", P.two_triangle); ("4-clique", P.clique 4) ]
  in
  H.table ~header:[ "motif"; "PDS density"; "PDS size" ] ~rows

(* ---- Section 6.3: query-vertex CDS variant ---- *)

let sec63 () =
  H.section "Section 6.3 — query-vertex CDS: core-located vs naive search";
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]  (query = one random vertex of the kmax-core)\n" name;
      let rows =
        List.map
          (fun h ->
            let psi = P.clique h in
            let cell which =
              H.run_cell (fun () ->
                  let decomp =
                    Dsd_core.Clique_core.decompose ~track_density:false g psi
                  in
                  let core = Dsd_core.Clique_core.kmax_core decomp in
                  if Array.length core = 0 then "n/a"
                  else begin
                    let query = [| core.(0) |] in
                    time_of (fun () ->
                        ignore
                          (match which with
                           | `Core -> Dsd_core.Query_dsd.run g psi ~query
                           | `Naive -> Dsd_core.Query_dsd.run_naive g psi ~query))
                  end)
            in
            [ clique_name h; H.show_time (cell `Naive); H.show_time (cell `Core) ])
          [ 2; 3; 4 ]
      in
      H.table ~header:[ "h-clique"; "naive [65]"; "core-located" ] ~rows)
    [ "as733"; "ca_hepth" ]

(* ---- ablation: construct+ grouping in CorePExact ---- *)

let abl_grouping () =
  H.section "Ablation — construct+ instance grouping in the exact PDS networks";
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]  (time and largest network built)\n" name;
      let rows =
        List.map
          (fun psi ->
            let cell grouped =
              H.run_cell (fun () ->
                  let r, t =
                    H.timed (fun () -> Dsd_core.Core_exact.run
                                ~family:(if grouped then Dsd_core.Flow_build.Pds_grouped
                                         else Dsd_core.Flow_build.Pds)
                                g psi)
                  in
                  let nodes =
                    List.fold_left max 0 r.Dsd_core.Core_exact.stats.network_nodes
                  in
                  Printf.sprintf "%.3fs/%d nodes" t nodes)
            in
            [ psi.P.name; H.show_payload (cell false); H.show_payload (cell true) ])
          [ P.star 2; P.c3_star; P.diamond; P.two_triangle ]
      in
      H.table ~header:[ "pattern"; "ungrouped (PExact net)"; "grouped (construct+)" ] ~rows)
    [ "as733" ]

(* ---- ablation: CoreApp initial window ---- *)

let abl_window () =
  H.section "Ablation — CoreApp initial window size";
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]\n" name;
      let rows =
        List.map
          (fun w ->
            let cell =
              H.run_cell (fun () ->
                  let r, t =
                    H.timed (fun () ->
                        Dsd_core.Core_app.run ~initial_window:w g P.triangle)
                  in
                  Printf.sprintf "%.3fs (%d rounds, final |W|=%d)" t
                    r.Dsd_core.Core_app.rounds r.Dsd_core.Core_app.final_window)
            in
            [ string_of_int w; H.show_payload cell ])
          [ 4; 16; 64; 256; 4096 ]
      in
      H.table ~header:[ "initial |W|"; "triangle CoreApp" ] ~rows)
    [ "as_caida"; "dblp_s" ]

(* ---- extensions: Greedy++, streaming, truss ---- *)

let ext_greedy () =
  H.section "Extension — Greedy++ rounds vs density (PeelApp = 1 round)";
  List.iter
    (fun (name, psi) ->
      let g = dataset name in
      Printf.printf "\n[%s, %s]  exact rho_opt from CoreExact\n" name psi.P.name;
      match
        guarded_float (fun () ->
            (Dsd_core.Core_exact.run g psi).Dsd_core.Core_exact.subgraph.D.density)
      with
      | None -> print_endline "  (exact reference timed out; section skipped)"
      | Some opt ->
      let rows =
        List.map
          (fun rounds ->
            let cell =
              H.run_cell (fun () ->
                  let r, t =
                    H.timed (fun () -> Dsd_core.Greedy_pp.run ~rounds g psi)
                  in
                  Printf.sprintf "%.4f %.3f"
                    (r.Dsd_core.Greedy_pp.subgraph.D.density /. max 1e-9 opt)
                    t)
            in
            match cell with
            | H.Ok s ->
              (match String.split_on_char ' ' (String.trim s) with
               | [ ratio; t ] -> [ string_of_int rounds; ratio; t ^ "s" ]
               | _ -> [ string_of_int rounds; String.trim s; "-" ])
            | other -> [ string_of_int rounds; H.show_payload other; "-" ])
          [ 1; 2; 4; 8; 16 ]
      in
      H.table ~header:[ "rounds"; "density/rho_opt"; "time" ] ~rows)
    [ ("ca_hepth", P.edge); ("as_caida", P.triangle) ]

let ext_streaming () =
  H.section "Extension — Bahmani streaming approximation: eps sweep";
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]  (edge density; exact rho_opt from CoreExact)\n" name;
      match
        guarded_float (fun () ->
            (Dsd_core.Core_exact.run g P.edge).Dsd_core.Core_exact.subgraph.D.density)
      with
      | None -> print_endline "  (exact reference timed out; section skipped)"
      | Some opt ->
      let rows =
        List.map
          (fun eps ->
            let cell =
              H.run_cell (fun () ->
                  let r, t =
                    H.timed (fun () -> Dsd_core.Streaming.run ~eps g P.edge)
                  in
                  Printf.sprintf "%.4f %d %.3f"
                    (r.Dsd_core.Streaming.subgraph.D.density /. max 1e-9 opt)
                    r.Dsd_core.Streaming.passes t)
            in
            match cell with
            | H.Ok s ->
              (match String.split_on_char ' ' (String.trim s) with
               | [ ratio; passes; t ] ->
                 [ Printf.sprintf "%.2f" eps; ratio; passes; t ^ "s" ]
               | _ -> [ Printf.sprintf "%.2f" eps; String.trim s; "-"; "-" ])
            | other -> [ Printf.sprintf "%.2f" eps; H.show_payload other; "-"; "-" ])
          [ 0.01; 0.1; 0.5; 1.0 ]
      in
      H.table ~header:[ "eps"; "density/rho_opt"; "passes"; "time" ] ~rows)
    [ "ca_hepth"; "as_caida" ]

let ext_truss () =
  H.section "Extension — k-truss vs densest subgraph (related-work models)";
  let rows =
    List.map
      (fun name ->
        let g = dataset name in
        let cell =
          H.run_cell ~timeout:(3. *. !H.default_timeout) (fun () ->
              let t = Dsd_core.Truss.decompose g in
              let truss_sg = Dsd_core.Truss.max_truss_subgraph g t in
              let eds =
                (Dsd_core.Core_exact.run g P.edge).Dsd_core.Core_exact.subgraph
              in
              Printf.sprintf "%d %d %.3f %d %.3f"
                (Dsd_core.Truss.kmax t)
                (Array.length truss_sg.D.vertices)
                truss_sg.D.density
                (Array.length eds.D.vertices)
                eds.D.density)
        in
        match cell with
        | H.Ok s -> name :: String.split_on_char ' ' (String.trim s)
        | other -> [ name; H.show_payload other; "-"; "-"; "-"; "-" ])
      [ "yeast"; "netscience"; "as733"; "ca_hepth" ]
  in
  H.table
    ~header:[ "dataset"; "truss kmax"; "|truss|"; "truss density"; "|EDS|"; "rho_opt" ]
    ~rows

(* ---- future work: sampled approximation, size constraints ---- *)

let ext_sampled () =
  H.section
    "Future work — [49]-style sampling with core restriction (triangle density)";
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]  exact rho_opt from CoreExact\n" name;
      match
        guarded_float (fun () ->
            (Dsd_core.Core_exact.run g P.triangle).Dsd_core.Core_exact.subgraph.D.density)
      with
      | None -> print_endline "  (exact reference timed out; section skipped)"
      | Some opt ->
      let rows =
        List.concat_map
          (fun p ->
            List.map
              (fun core_first ->
                let cell =
                  H.run_cell (fun () ->
                      let r, t =
                        H.timed (fun () ->
                            Dsd_core.Sampled_app.run ~core_first ~seed:42 ~p g
                              P.triangle)
                      in
                      Printf.sprintf "%.4f %d/%d %.3f"
                        (r.Dsd_core.Sampled_app.subgraph.D.density /. max 1e-9 opt)
                        r.Dsd_core.Sampled_app.sampled_instances
                        r.Dsd_core.Sampled_app.total_instances t)
                in
                let tail =
                  match cell with
                  | H.Ok s ->
                    (match String.split_on_char ' ' (String.trim s) with
                     | [ ratio; insts; t ] -> [ ratio; insts; t ^ "s" ]
                     | _ -> [ String.trim s; "-"; "-" ])
                  | other -> [ H.show_payload other; "-"; "-" ]
                in
                [ Printf.sprintf "%.2f" p;
                  (if core_first then "core" else "full") ]
                @ tail)
              [ false; true ])
          [ 1.0; 0.3; 0.1 ]
      in
      H.table
        ~header:[ "p"; "region"; "density/rho_opt"; "sampled/total"; "time" ]
        ~rows)
    [ "ca_hepth" ]

let ext_atleastk () =
  H.section "Future work — densest-at-least-k (size-constrained DSD)";
  let g = dataset "netscience" in
  Printf.printf "\n[netscience]  (edge density; unconstrained rho_opt first)\n";
  let rows =
    List.map
      (fun k ->
        let cell =
          H.run_cell (fun () ->
              let r = Dsd_core.At_least_k.run g P.edge ~k in
              Printf.sprintf "%.4f %d"
                r.Dsd_core.At_least_k.subgraph.D.density
                (Array.length r.Dsd_core.At_least_k.subgraph.D.vertices))
        in
        match cell with
        | H.Ok s ->
          (match String.split_on_char ' ' (String.trim s) with
           | [ d; size ] -> [ string_of_int k; d; size ]
           | _ -> [ string_of_int k; String.trim s; "-" ])
        | other -> [ string_of_int k; H.show_payload other; "-" ])
      [ 1; 50; 200; 500; 1000 ]
  in
  H.table ~header:[ "k (min size)"; "density"; "|subgraph|" ] ~rows

(* ---- extension: directed densest subgraph ---- *)

let ext_directed () =
  H.section "Extension — directed densest subgraph (Kannan-Vinay density)";
  Printf.printf
    "\n(directed ER graphs; exact is O(n^2) flows so only the small one)\n";
  let rows =
    List.map
      (fun (n, p, with_exact) ->
        let g = Dsd_data.Gen.er_directed ~seed:77 ~n ~p in
        let approx_cell =
          H.run_cell (fun () ->
              let r, t = H.timed (fun () -> Dsd_core.Directed.approx ~eps:0.2 g) in
              Printf.sprintf "%.4f %.3f" r.Dsd_core.Directed.density t)
        in
        let exact_cell =
          if with_exact then
            H.run_cell ~timeout:(6. *. !H.default_timeout) (fun () ->
                let r, t = H.timed (fun () -> Dsd_core.Directed.exact g) in
                Printf.sprintf "%.4f %.3f" r.Dsd_core.Directed.density t)
          else H.Ok "- -"
        in
        let split c =
          match c with
          | H.Ok s ->
            (match String.split_on_char ' ' (String.trim s) with
             | [ d; t ] -> [ d; t ]
             | _ -> [ String.trim s; "-" ])
          | other -> [ H.show_payload other; "-" ]
        in
        [ Printf.sprintf "n=%d p=%.3f (m=%d)" n p (Dsd_graph.Digraph.m g) ]
        @ split exact_cell @ split approx_cell)
      [ (40, 0.08, true); (400, 0.02, false); (2000, 0.005, false) ]
  in
  H.table
    ~header:[ "digraph"; "exact rho"; "exact s"; "approx rho"; "approx s" ]
    ~rows

(* ---- bechamel micro-benchmarks of the primitives ---- *)

let micro () =
  H.section "Micro — bechamel benchmarks of core primitives";
  let open Bechamel in
  let g = dataset "as733" in
  let gc = dataset "ca_hepth" in
  let tests =
    Test.make_grouped ~name:"primitives" ~fmt:"%s %s"
      [
        Test.make ~name:"kcore-decomp(as733)"
          (Staged.stage (fun () -> ignore (Dsd_graph.Degeneracy.compute g)));
        Test.make ~name:"triangle-list(as733)"
          (Staged.stage (fun () -> ignore (Dsd_clique.Kclist.count g ~h:3)));
        Test.make ~name:"tri-core-decomp(as733)"
          (Staged.stage (fun () ->
               ignore
                 (Dsd_core.Clique_core.decompose ~track_density:false g P.triangle)));
        Test.make ~name:"eds-mincut(ca_hepth)"
          (Staged.stage (fun () ->
               let t =
                 Dsd_core.Flow_build.prepare Dsd_core.Flow_build.Eds gc P.edge
                   ~instances:(Dsd_clique.Instances.empty ~arity:2)
               in
               Dsd_flow.Flow_network.retarget t.net ~s:t.source ~sink:t.sink
                 ~alpha:2.0;
               ignore (Dsd_core.Flow_build.solve t)));
      ]
  in
  let benchmark () =
    let instance = Toolkit.Instance.monotonic_clock in
    let cfg =
      Benchmark.cfg ~limit:200 ~quota:(Time.second 1.0) ~kde:(Some 10) ()
    in
    let raw = Benchmark.all cfg [ instance ] tests in
    let ols =
      Analyze.ols ~bootstrap:0 ~r_square:false
        ~predictors:[| Measure.run |]
    in
    let results = Analyze.all ols instance raw in
    Hashtbl.fold (fun name v acc -> (name, v) :: acc) results []
    |> List.sort compare
    |> List.iter (fun (name, v) ->
           match Analyze.OLS.estimates v with
           | Some [ est ] ->
             Printf.printf "  %-28s %12.1f ns/run\n" name est
           | _ -> Printf.printf "  %-28s (no estimate)\n" name)
  in
  benchmark ()

(* ---- per-phase observability breakdown ---- *)

(* Not a paper figure: the Dsd_obs span/counter fields future
   BENCH_*.json entries carry.  One row per dataset x algorithm, the
   payload being "<secs> decompose_s=... flow_s=... <counters>". *)
let phases () =
  H.section
    "Per-phase breakdown — Dsd_obs spans/counters (decompose/enumerate/\
     build/flow)";
  let algos =
    [ ("CoreExact", fun g h -> ignore (Dsd_core.Core_exact.run g (P.clique h)));
      ("Exact", fun g h -> ignore (Dsd_core.Exact.run g (P.clique h)));
      ("PeelApp", fun g h -> ignore (Dsd_core.Peel_app.run g (P.clique h))) ]
  in
  List.iter
    (fun h ->
      Printf.printf "\n[%s]\n" (clique_name h);
      let rows =
        List.concat_map
          (fun name ->
            let g = dataset name in
            List.map
              (fun (algo, run) ->
                let cell = H.run_cell (fun () -> H.timed_obs (fun () -> run g h)) in
                [ name; algo; H.show_payload cell ])
              algos)
          [ "as733"; "ca_hepth" ]
      in
      H.table ~header:[ "dataset"; "algorithm"; "time + per-phase fields" ] ~rows)
    [ 2; 3 ]

(* ---- retarget: network builds vs O(V) re-alphas (BENCH_retarget.json) ---- *)

(* How much of the search the build-once path saves: per dataset x
   pattern, the probe count against how many networks were actually
   constructed (flow_networks_built) vs merely re-capacitated
   (flow_retargets), plus the span totals of the two phases.  Exact
   always builds once, CoreExact once per component arena plus
   Optimisation-3 rebuilds. *)
let retarget () =
  let smoke = !H.smoke in
  H.section
    (Printf.sprintf "Retarget — flow-network builds vs O(V) re-alphas%s"
       (if smoke then " [smoke]" else ""));
  let datasets =
    if smoke then [ "yeast" ] else [ "yeast"; "netscience"; "as733"; "ca_hepth" ]
  in
  let cases =
    [ ("Exact", "triangle",
       fun g -> (Dsd_core.Exact.run g P.triangle).Dsd_core.Exact.stats.Dsd_core.Exact.iterations);
      ("CoreExact", "triangle",
       fun g -> (Dsd_core.Core_exact.run g P.triangle).Dsd_core.Core_exact.stats.Dsd_core.Core_exact.iterations);
      ("CorePExact", "diamond",
       fun g -> (Dsd_core.Core_pexact.run g P.diamond).Dsd_core.Core_exact.stats.Dsd_core.Core_exact.iterations) ]
  in
  let json_rows = ref [] in
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]  n=%d m=%d\n" name (G.n g) (G.m g);
      let rows =
        List.map
          (fun (algo, pname, run) ->
            let cell =
              H.run_cell ~timeout:(3. *. !H.default_timeout) (fun () ->
                  let iters, elapsed =
                    H.timed (fun () ->
                        Dsd_obs.Control.with_recording (fun () -> run g))
                  in
                  Printf.sprintf "%d %d %d %.6f %.6f %.6f" iters
                    (Dsd_obs.Counter.get Dsd_obs.Counter.Flow_networks_built)
                    (Dsd_obs.Counter.get Dsd_obs.Counter.Flow_retargets)
                    elapsed
                    (Dsd_obs.Span.total_s Dsd_obs.Phase.build_network)
                    (Dsd_obs.Span.total_s Dsd_obs.Phase.retarget))
            in
            match cell with
            | H.Ok s ->
              (match String.split_on_char ' ' (String.trim s) with
               | [ it; b; rt; el; bs; rs ] ->
                 json_rows :=
                   Printf.sprintf
                     "    {\"dataset\": \"%s\", \"algorithm\": \"%s\", \
                      \"pattern\": \"%s\", \"iterations\": %s, \
                      \"flow_networks_built\": %s, \"flow_retargets\": %s, \
                      \"elapsed_s\": %s, \"build_s\": %s, \"retarget_s\": %s}"
                     name algo pname it b rt el bs rs
                   :: !json_rows;
                 [ algo; pname; it; b; rt; el ^ "s"; bs ^ "s"; rs ^ "s" ]
               | _ -> [ algo; pname; String.trim s; "-"; "-"; "-"; "-"; "-" ])
            | other ->
              [ algo; pname; H.show_payload other; "-"; "-"; "-"; "-"; "-" ])
          cases
      in
      H.table
        ~header:
          [ "algorithm"; "pattern"; "iters"; "builds"; "retargets"; "total";
            "build_s"; "retarget_s" ]
        ~rows)
    datasets;
  H.write_json "retarget" (List.rev !json_rows)

(* ---- search: the exact search vs the float references (BENCH_search.json) ---- *)

(* The exact Dinkelbach search against the float bisections it replaced
   (Dsd_check.Oracle): Exact against reference_cds and Query (at the
   highest-degree vertex) against reference_query, which search the
   same vertex sets, timed and with both probe counts; CoreExact and
   CorePExact checked against reference_cds's density.  A row's
   mismatches count answers that differ from the reference (density
   bits, plus the vertex set for Exact and Query); its drained count is
   the excess the search's flow had to cancel, which cold exact probes
   never produce.  Elapsed times are the best of three repetitions.
   bench/compare.ml gates on the JSON: zero mismatches and zero drains
   everywhere, and probes <= reference probes on the Exact and Query
   rows. *)
let search () =
  let smoke = !H.smoke in
  H.section
    (Printf.sprintf "Search — exact Dinkelbach vs the float references%s"
       (if smoke then " [smoke]" else ""));
  let datasets =
    if smoke then [ "yeast" ] else [ "yeast"; "netscience"; "as733"; "ca_hepth" ]
  in
  let module O = Dsd_check.Oracle in
  let top_vertex g =
    let best = ref 0 in
    for v = 1 to G.n g - 1 do
      if G.degree g v > G.degree g !best then best := v
    done;
    [| !best |]
  in
  (* (algorithm, pattern, run, reference, compare vertices and carry
     the reference probes) *)
  let cases =
    [ ("Exact", "triangle",
       (fun g ->
         let r = Dsd_core.Exact.run g P.triangle in
         (r.Dsd_core.Exact.subgraph, r.Dsd_core.Exact.stats.Dsd_core.Exact.iterations)),
       (fun g -> O.reference_cds g P.triangle), true);
      ("Query", "triangle",
       (fun g ->
         let r = Dsd_core.Query_dsd.run g P.triangle ~query:(top_vertex g) in
         (r.Dsd_core.Query_dsd.subgraph, r.Dsd_core.Query_dsd.iterations)),
       (fun g -> O.reference_query g P.triangle ~query:(top_vertex g)), true);
      ("CoreExact", "triangle",
       (fun g ->
         let r = Dsd_core.Core_exact.run g P.triangle in
         (r.Dsd_core.Core_exact.subgraph,
          r.Dsd_core.Core_exact.stats.Dsd_core.Core_exact.iterations)),
       (fun g -> O.reference_cds g P.triangle), false);
      ("CorePExact", "diamond",
       (fun g ->
         let r = Dsd_core.Core_pexact.run g P.diamond in
         (r.Dsd_core.Core_exact.subgraph,
          r.Dsd_core.Core_exact.stats.Dsd_core.Core_exact.iterations)),
       (fun g -> O.reference_cds g P.diamond), false) ]
  in
  let reps = if smoke then 1 else 3 in
  let best_of f =
    let best = ref infinity and out = ref None in
    for _ = 1 to reps do
      let r, t = H.timed f in
      if t < !best then best := t;
      out := Some r
    done;
    (Option.get !out, !best)
  in
  (* One forked cell per row: payload is
     "probes reference_probes drained elapsed reference_elapsed mismatches". *)
  let run_row g (run, reference, vertices) =
    H.run_cell ~timeout:(6. *. float_of_int reps *. !H.default_timeout)
      (fun () ->
        let ((sg : D.subgraph), probes), elapsed =
          best_of (fun () -> Dsd_obs.Control.with_recording (fun () -> run g))
        in
        let drained = Dsd_obs.Counter.get Dsd_obs.Counter.Flow_excess_drained in
        let ((r : D.subgraph), rprobes), relapsed =
          best_of (fun () -> reference g)
        in
        let mismatches =
          if
            Int64.bits_of_float sg.density = Int64.bits_of_float r.density
            && ((not vertices) || sg.vertices = r.vertices)
          then 0
          else 1
        in
        Printf.sprintf "%d %d %d %.6f %.6f %d" probes rprobes drained elapsed
          relapsed mismatches)
  in
  let json_rows = ref [] in
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]  n=%d m=%d\n" name (G.n g) (G.m g);
      let rows =
        List.map
          (fun (algo, pname, run, reference, exact_row) ->
            let cell = run_row g (run, reference, exact_row) in
            match cell with
            | H.Ok s -> (
              match String.split_on_char ' ' (String.trim s) with
              | [ probes; rprobes; drained; el; rel; mis ] ->
                json_rows :=
                  Printf.sprintf
                    "    {\"dataset\": \"%s\", \"algorithm\": \"%s\", \
                     \"pattern\": \"%s\", \"probes\": %s, %s\
                     \"elapsed_s\": %s, \"reference_s\": %s, \
                     \"flow_excess_drained\": %s, \"mismatches\": %s}"
                    name algo pname probes
                    (if exact_row then
                       Printf.sprintf "\"reference_probes\": %s, " rprobes
                     else "")
                    el rel drained mis
                  :: !json_rows;
                [ algo; pname; probes; (if exact_row then rprobes else "-");
                  drained; el ^ "s"; rel ^ "s"; mis ]
              | _ -> [ algo; pname; String.trim s; "-"; "-"; "-"; "-"; "-" ])
            | other ->
              [ algo; pname; H.show_payload other; "-"; "-"; "-"; "-"; "-" ])
          cases
      in
      H.table
        ~header:
          [ "algorithm"; "pattern"; "probes"; "ref probes"; "drained";
            "search_s"; "reference_s"; "mismatch" ]
        ~rows)
    datasets;
  H.write_json "search" (List.rev !json_rows)

(* ---- serve: hot-result cache latency over a real socket (BENCH_serve.json) ---- *)

(* What the serving layer's caches buy for a repeated request.  An
   in-process `dsd serve` daemon is started on a Unix-domain socket;
   each endpoint is asked the same question three times over the wire:

   - cold: nothing prepared — pays enumeration / decomposition /
     network construction plus the solve;
   - prepared: the result LRU is cleared but the per-(graph, psi)
     prepared state (instances, decomposition, Exact's flow arena)
     survives — what a *similar* request pays;
   - cached: the identical request again — answered from the result
     LRU without touching a solver.

   All three answers are bit-identical (the differential suite and the
   serve-equals-api relation pin that); this measures only latency.
   bench/compare.ml gates cached_speedup >= 5 on the JSON. *)
let serve () =
  let smoke = !H.smoke in
  H.section
    (Printf.sprintf
       "Serve — cold vs prepared vs cached request latency%s"
       (if smoke then " [smoke]" else ""));
  let datasets =
    if smoke then [ "yeast" ] else [ "yeast"; "netscience"; "as733"; "ca_hepth" ]
  in
  let endpoints name =
    [ ("density/coreexact",
       Dsd_serve.Protocol.Density
         { graph = name; psi = "triangle"; algorithm = "coreexact" });
      ("cds/exact",
       Dsd_serve.Protocol.Cds
         { graph = name; psi = "triangle"; algorithm = "exact" });
      ("decompose",
       Dsd_serve.Protocol.Decompose { graph = name; psi = "triangle" }) ]
  in
  let json_rows = ref [] in
  List.iter
    (fun name ->
      let g = dataset name in
      Printf.printf "\n[%s]  n=%d m=%d\n" name (G.n g) (G.m g);
      let socket =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "dsd-bench-%d.sock" (Unix.getpid ()))
      in
      let addr = Dsd_serve.Server.Unix_domain socket in
      let rows =
        List.map
          (fun (endpoint, req) ->
            (* A fresh daemon per endpoint so "cold" really is cold:
               no prepared state left over from the previous row. *)
            let state = Dsd_serve.State.create ~max_cached:64 [ (name, g) ] in
            let server = Dsd_serve.Server.start ~state addr in
            let client = Dsd_serve.Client.connect addr in
            let ask () =
              snd (H.timed (fun () ->
                  ignore (Dsd_serve.Client.call client req)))
            in
            let cold = ask () in
            (* second identical request: straight from the result LRU *)
            let cached = ask () in
            (* median of repeats for a stable cached figure *)
            let reps = if smoke then 3 else 9 in
            let samples = Array.init reps (fun _ -> ask ()) in
            Array.sort compare samples;
            let cached = min cached samples.(reps / 2) in
            (* same question to a cleared LRU: prepared state only *)
            Dsd_serve.State.clear_results state;
            let prepared = ask () in
            Dsd_serve.Client.close client;
            ignore (Dsd_serve.Client.once addr Dsd_serve.Protocol.Shutdown);
            Dsd_serve.Server.join server;
            let speedup a b = if b > 0. then a /. b else infinity in
            json_rows :=
              Printf.sprintf
                "    {\"dataset\": \"%s\", \"endpoint\": \"%s\", \
                 \"cold_s\": %.6f, \"prepared_s\": %.6f, \"cached_s\": %.6f, \
                 \"prepared_speedup\": %.3f, \"cached_speedup\": %.3f}"
                name endpoint cold prepared cached
                (speedup cold prepared) (speedup cold cached)
              :: !json_rows;
            [ endpoint;
              Printf.sprintf "%.4fs" cold;
              Printf.sprintf "%.4fs" prepared;
              Printf.sprintf "%.6fs" cached;
              Printf.sprintf "%.1fx" (speedup cold prepared);
              Printf.sprintf "%.1fx" (speedup cold cached) ])
          (endpoints name)
      in
      H.table
        ~header:
          [ "endpoint"; "cold"; "prepared"; "cached"; "prep spd"; "cache spd" ]
        ~rows)
    datasets;
  H.write_json "serve" (List.rev !json_rows)

(* ---- incremental: patch vs recompute on a sliding window (BENCH_incremental.json) ---- *)

(* What the incremental subsystem buys on an edge stream.  A sliding
   window of W edges advances by B edges per batch (B inserts of the
   next stream edges plus B deletes of the oldest, interleaved the way
   `dsd watch` applies them); after every batch the exact CDS is
   re-answered twice — by patching the live session ({!Inc_dsd.apply}
   + warm {!query}) and by a from-scratch rebuild ({!Inc_dsd.create}
   on the current snapshot + query).  Answers are asserted
   bit-identical per batch (the differential battery and the
   delta-equals-rebuild relation pin the same property); the JSON row
   records the summed times per mode.  bench/compare.ml gates
   incremental_s <= 0.5 * recompute_s and mismatches = 0. *)
let incremental () =
  let smoke = !H.smoke in
  H.section
    (Printf.sprintf "Incremental — patch vs recompute on a sliding window%s"
       (if smoke then " [smoke]" else ""));
  let cases =
    if smoke then
      [ ("ba_500",
         Dsd_data.Gen.barabasi_albert ~seed:9 ~n:500 ~attach:6,
         "triangle", P.triangle, 4, 5) ]
    else
      [ ("ba_2k",
         Dsd_data.Gen.barabasi_albert ~seed:7 ~n:2_000 ~attach:6,
         "triangle", P.triangle, 8, 12);
        ("ba_2k",
         Dsd_data.Gen.barabasi_albert ~seed:7 ~n:2_000 ~attach:6,
         "5-clique", P.clique 5, 8, 12);
        ("ba_5k",
         Dsd_data.Gen.barabasi_albert ~seed:5 ~n:5_000 ~attach:4,
         "4-clique", P.clique 4, 8, 12) ]
  in
  let json_rows = ref [] in
  let rows =
    List.map
      (fun (gname, g, pname, psi, batch_ops, batches) ->
        let n = G.n g in
        (* Both modes timed in one forked child so the speedup column
           is a ratio of same-process times. *)
        let cell =
          H.run_cell
            ~timeout:(4. *. float_of_int batches *. !H.default_timeout)
            (fun () ->
              let stream = G.edges g in
              let total = Array.length stream in
              let window = total * 3 / 5 in
              let session =
                Dsd_core.Inc_dsd.create
                  (G.of_edges ~n (Array.sub stream 0 window)) psi
              in
              (* Answer the initial window before the stream starts —
                 what `dsd watch` does — so the per-batch incremental
                 column measures warm queries only. *)
              ignore (Dsd_core.Inc_dsd.density session);
              let inc_t = ref 0. and rec_t = ref 0. in
              let mismatches = ref 0 in
              let head = ref window and tail = ref 0 in
              for _ = 1 to batches do
                let b = min batch_ops (total - !head) in
                let ops =
                  Array.init (2 * b) (fun i ->
                      if i mod 2 = 0 then
                        let u, v = stream.(!tail + (i / 2)) in
                        Dsd_graph.Dynamic.Remove (u, v)
                      else
                        let u, v = stream.(!head + (i / 2)) in
                        Dsd_graph.Dynamic.Add (u, v))
                in
                head := !head + b;
                tail := !tail + b;
                let d_inc, dt =
                  H.timed (fun () ->
                      ignore (Dsd_core.Inc_dsd.apply session ops);
                      Dsd_core.Inc_dsd.density session)
                in
                inc_t := !inc_t +. dt;
                let d_rec, dt =
                  H.timed (fun () ->
                      Dsd_core.Inc_dsd.density
                        (Dsd_core.Inc_dsd.create
                           (Dsd_core.Inc_dsd.graph session) psi))
                in
                rec_t := !rec_t +. dt;
                if d_inc <> d_rec then incr mismatches
              done;
              Printf.sprintf "%d %.6f %.6f %d" window !inc_t !rec_t
                !mismatches)
        in
        match cell with
        | H.Ok s ->
          (match String.split_on_char ' ' (String.trim s) with
           | [ w; inc_s; rec_s; mis ] ->
             let speedup =
               match (float_of_string_opt rec_s, float_of_string_opt inc_s) with
               | Some r, Some i when i > 0. -> Printf.sprintf "%.2f" (r /. i)
               | _ -> "null"
             in
             json_rows :=
               Printf.sprintf
                 "    {\"graph\": \"%s\", \"pattern\": \"%s\", \"n\": %d, \
                  \"window_m\": %s, \"batch_ops\": %d, \"batches\": %d, \
                  \"recompute_s\": %s, \"incremental_s\": %s, \
                  \"speedup\": %s, \"mismatches\": %s}"
                 gname pname n w batch_ops batches rec_s inc_s speedup mis
               :: !json_rows;
             [ gname; pname; w; string_of_int batches; inc_s ^ "s";
               rec_s ^ "s"; speedup ^ "x"; mis ]
           | _ -> [ gname; pname; String.trim s; "-"; "-"; "-"; "-"; "-" ])
        | other ->
          [ gname; pname; H.show_payload other; "-"; "-"; "-"; "-"; "-" ])
      cases
  in
  H.table
    ~header:
      [ "graph"; "pattern"; "window"; "batches"; "incremental"; "recompute";
        "speedup"; "mismatch" ]
    ~rows;
  H.write_json "incremental" (List.rev !json_rows)

(* Top-k locally densest extraction: rounds searched on the core-pruned
   candidate set vs on the whole remaining graph.  Planted community
   graphs are the favourable shape — each round's candidate core is one
   dense block, so the pruned search runs on a small network while the
   unpruned mode pays full-graph min cuts every probe, and the pruned
   mode pays a core decomposition per round instead.  Both modes run in
   the same forked child: once each untimed (the first call in a fresh
   fork pays page faults and heap growth), their regions compared
   bitwise, then [topk_reps] interleaved timed repetitions, alternating
   which mode goes first.  Each row reports both modes' median
   ([pruned_s], [unpruned_s]) and min–max; the JSON is gated by
   bench/compare.ml (zero mismatches, pruned median no slower than the
   unpruned median). *)
let topk_reps = 9

let topk () =
  let smoke = !H.smoke in
  H.section
    (Printf.sprintf "Top-k LDS — pruned vs unpruned extraction%s"
       (if smoke then " [smoke]" else ""));
  let cases =
    if smoke then
      [ ("planted_2k",
         Dsd_data.Gen.planted_clique ~seed:5 ~n:2_000 ~p:0.005 ~clique:25,
         "triangle", P.triangle, 2) ]
    else
      [ ("planted_3k",
         Dsd_data.Gen.planted_clique ~seed:5 ~n:3_000 ~p:0.004 ~clique:30,
         "triangle", P.triangle, 3);
        ("planted_3k",
         Dsd_data.Gen.planted_clique ~seed:5 ~n:3_000 ~p:0.004 ~clique:30,
         "edge", P.edge, 3);
        ("planted_pair",
         Dsd_data.Gen.disjoint_union
           (Dsd_data.Gen.planted_clique ~seed:5 ~n:1_500 ~p:0.005 ~clique:30)
           (Dsd_data.Gen.planted_clique ~seed:9 ~n:1_500 ~p:0.005 ~clique:20),
         "triangle", P.triangle, 2) ]
  in
  let json_rows = ref [] in
  let rows =
    List.map
      (fun (gname, g, pname, psi, k) ->
        let n = G.n g in
        let cell =
          H.run_cell ~timeout:(8. *. !H.default_timeout) (fun () ->
              let run prune () = Dsd_core.Topk_lds.run ~prune ~k g psi in
              let rp = run true () in
              let ru = run false () in
              let tp = Array.make topk_reps 0. in
              let tu = Array.make topk_reps 0. in
              for i = 0 to topk_reps - 1 do
                let time_pruned () = tp.(i) <- snd (H.timed (run true)) in
                let time_unpruned () = tu.(i) <- snd (H.timed (run false)) in
                if i mod 2 = 0 then (time_pruned (); time_unpruned ())
                else (time_unpruned (); time_pruned ())
              done;
              let spread ts =
                Printf.sprintf "%.6f %.6f %.6f" (Dsd_util.Stats.median ts)
                  (Array.fold_left Float.min infinity ts)
                  (Array.fold_left Float.max neg_infinity ts)
              in
              let mismatches =
                if
                  List.length rp.Dsd_core.Topk_lds.regions
                  = List.length ru.Dsd_core.Topk_lds.regions
                  && List.for_all2
                       (fun (a : D.subgraph) (b : D.subgraph) ->
                         Int64.bits_of_float a.density
                         = Int64.bits_of_float b.density
                         && a.vertices = b.vertices)
                       rp.Dsd_core.Topk_lds.regions
                       ru.Dsd_core.Topk_lds.regions
                then 0
                else 1
              in
              Printf.sprintf "%d %s %s %d %d %d"
                (List.length rp.Dsd_core.Topk_lds.regions)
                (spread tp) (spread tu) rp.Dsd_core.Topk_lds.stats.iterations
                ru.Dsd_core.Topk_lds.stats.iterations mismatches)
        in
        match cell with
        | H.Ok s ->
          (match String.split_on_char ' ' (String.trim s) with
           | [ regions; pruned_s; pmin; pmax; unpruned_s; umin; umax; pi; ui;
               mis ] ->
             let speedup =
               match
                 (float_of_string_opt unpruned_s, float_of_string_opt pruned_s)
               with
               | Some u, Some p when p > 0. -> Printf.sprintf "%.2f" (u /. p)
               | _ -> "null"
             in
             json_rows :=
               Printf.sprintf
                 "    {\"graph\": \"%s\", \"pattern\": \"%s\", \"k\": %d, \
                  \"n\": %d, \"regions\": %s, \"reps\": %d, \
                  \"pruned_s\": %s, \"pruned_min_s\": %s, \
                  \"pruned_max_s\": %s, \"unpruned_s\": %s, \
                  \"unpruned_min_s\": %s, \"unpruned_max_s\": %s, \
                  \"pruned_iterations\": %s, \
                  \"unpruned_iterations\": %s, \"speedup\": %s, \
                  \"mismatches\": %s}"
                 gname pname k n regions topk_reps pruned_s pmin pmax
                 unpruned_s umin umax pi ui speedup mis
               :: !json_rows;
             [ gname; pname; string_of_int k; regions;
               Printf.sprintf "%ss [%s-%s]" pruned_s pmin pmax;
               Printf.sprintf "%ss [%s-%s]" unpruned_s umin umax;
               speedup ^ "x"; mis ]
           | _ -> [ gname; pname; string_of_int k; String.trim s; "-"; "-";
                    "-"; "-" ])
        | other ->
          [ gname; pname; string_of_int k; H.show_payload other; "-"; "-";
            "-"; "-" ])
      cases
  in
  H.table
    ~header:
      [ "graph"; "pattern"; "k"; "regions"; "pruned median [min-max]";
        "unpruned median [min-max]"; "speedup"; "mismatch" ]
    ~rows;
  H.write_json "topk" (List.rev !json_rows)

(* Density-friendly hierarchy: the breakpoint search vs the per-level
   reference search it replaced (Dsd_check.Oracle), with iterated top-k
   extraction (one canonical CDS per round — a coarser object than the
   hierarchy) as the cost yardstick.  Both run in the same forked child
   and their chains are compared bit-for-bit; B_1 must equal the
   canonical CDS region, and the breakpoint search must take at most
   two probes per level.  The JSON is gated by bench/compare.ml (zero
   mismatches, breakpoint search never slower than the reference). *)
let hierarchy () =
  let smoke = !H.smoke in
  H.section
    (Printf.sprintf
       "Density-friendly hierarchy — breakpoint search vs per-level reference%s"
       (if smoke then " [smoke]" else ""));
  let cases =
    if smoke then
      [ ("planted_2k",
         Dsd_data.Gen.planted_clique ~seed:5 ~n:2_000 ~p:0.005 ~clique:25,
         "triangle", P.triangle) ]
    else
      [ ("planted_3k",
         Dsd_data.Gen.planted_clique ~seed:5 ~n:3_000 ~p:0.004 ~clique:30,
         "triangle", P.triangle);
        ("planted_3k",
         Dsd_data.Gen.planted_clique ~seed:5 ~n:3_000 ~p:0.004 ~clique:30,
         "edge", P.edge);
        ("planted_pair",
         Dsd_data.Gen.disjoint_union
           (Dsd_data.Gen.planted_clique ~seed:5 ~n:1_500 ~p:0.005 ~clique:30)
           (Dsd_data.Gen.planted_clique ~seed:9 ~n:1_500 ~p:0.005 ~clique:20),
         "triangle", P.triangle) ]
  in
  let json_rows = ref [] in
  let rows =
    List.map
      (fun (gname, g, pname, psi) ->
        let n = G.n g in
        let cell =
          H.run_cell ~timeout:(8. *. !H.default_timeout) (fun () ->
              let module LD = Dsd_core.Ld_decomposition in
              let d, tb = H.timed (fun () -> LD.decompose g psi) in
              let r, tr =
                H.timed (fun () ->
                    Dsd_check.Oracle.reference_ld_decomposition g psi)
              in
              let t = List.length d.LD.levels in
              let tk, tc =
                H.timed (fun () -> Dsd_core.Topk_lds.run ~k:t g psi)
              in
              let same_chain =
                List.length r.LD.levels = t
                && List.for_all2
                     (fun (a : LD.level) (b : LD.level) ->
                       Int64.bits_of_float a.marginal_density
                       = Int64.bits_of_float b.marginal_density
                       && a.vertices = b.vertices
                       && a.prefix_size = b.prefix_size)
                     d.LD.levels r.LD.levels
              in
              let b1_is_cds =
                match (d.LD.levels, tk.Dsd_core.Topk_lds.regions) with
                | b1 :: _, (c : D.subgraph) :: _ ->
                  Int64.bits_of_float b1.LD.marginal_density
                  = Int64.bits_of_float c.density
                  && b1.LD.vertices = c.vertices
                | _ -> false
              in
              let mismatches =
                (if same_chain then 0 else 1)
                + (if b1_is_cds then 0 else 1)
                + if d.LD.iterations <= 2 * t then 0 else 1
              in
              Printf.sprintf "%d %.6f %.6f %.6f %d %d %d" t tb tr tc
                d.LD.iterations r.LD.iterations mismatches)
        in
        match cell with
        | H.Ok s ->
          (match String.split_on_char ' ' (String.trim s) with
           | [ lv; breakpoint_s; reference_s; topk_s; bp; rp; mis ] ->
             let ratio a b =
               match (float_of_string_opt a, float_of_string_opt b) with
               | Some a, Some b when b > 0. -> Printf.sprintf "%.2f" (a /. b)
               | _ -> "null"
             in
             let speedup = ratio reference_s breakpoint_s in
             let vs_topk = ratio breakpoint_s topk_s in
             json_rows :=
               Printf.sprintf
                 "    {\"graph\": \"%s\", \"pattern\": \"%s\", \"n\": %d, \
                  \"levels\": %s, \"breakpoint_s\": %s, \"reference_s\": %s, \
                  \"topk_s\": %s, \"probes\": %s, \"reference_probes\": %s, \
                  \"speedup\": %s, \"vs_topk\": %s, \"mismatches\": %s}"
                 gname pname n lv breakpoint_s reference_s topk_s bp rp speedup
                 vs_topk mis
               :: !json_rows;
             [ gname; pname; lv; breakpoint_s ^ "s"; reference_s ^ "s";
               topk_s ^ "s"; bp; rp; speedup ^ "x"; mis ]
           | _ ->
             [ gname; pname; String.trim s; "-"; "-"; "-"; "-"; "-"; "-"; "-" ])
        | other ->
          [ gname; pname; H.show_payload other; "-"; "-"; "-"; "-"; "-"; "-";
            "-" ])
      cases
  in
  H.table
    ~header:
      [ "graph"; "pattern"; "levels"; "breakpoint"; "reference"; "topk";
        "probes"; "ref probes"; "speedup"; "mismatch" ]
    ~rows;
  H.write_json "hierarchy" (List.rev !json_rows)

(* ---- registry ---- *)

let all : (string * string * (unit -> unit)) list =
  [
    ("tab2", "Table 2/Fig 18: dataset characteristics", tab2);
    ("fig8_exact", "Fig 8(a-e): exact CDS algorithms", fig8_exact);
    ("fig8_approx", "Fig 8(f-j): approximation CDS algorithms", fig8_approx);
    ("fig9", "Fig 9: flow network sizes in CoreExact", fig9);
    ("fig10", "Fig 10: pruning ablation", fig10);
    ("tab3", "Table 3: core decomposition share of CoreExact", tab3);
    ("phases", "Dsd_obs per-phase span/counter breakdown", phases);
    ("tab4", "Table 4: EMcore vs CoreApp", tab4);
    ("fig11", "Fig 11: approximation ratios", fig11);
    ("fig12", "Fig 12: CoreExact vs CoreApp", fig12);
    ("fig13", "Fig 13: exact algorithms on random graphs", fig13);
    ("fig14", "Fig 14: approximation algorithms on random graphs", fig14);
    ("tab5", "Table 5: densities of CDS/PDS vs EDS", tab5);
    ("fig15", "Fig 15: exact PDS algorithms", fig15);
    ("fig16", "Fig 16: approximation PDS algorithms", fig16);
    ("fig17", "Fig 17: S-DBLP case study", fig17);
    ("fig20", "Fig 20: approximation on extra datasets", fig20);
    ("fig21", "Fig 21: yeast motif case study", fig21);
    ("sec63", "Sec 6.3: query-vertex CDS variant", sec63);
    ("ext_greedy", "extension: Greedy++ convergence", ext_greedy);
    ("ext_streaming", "extension: streaming eps sweep", ext_streaming);
    ("retarget", "flow-network builds vs re-capacitations (BENCH_retarget.json)", retarget);
    ("search", "exact search vs the float references (BENCH_search.json)", search);
    ("serve", "cold vs prepared vs cached request latency (BENCH_serve.json)", serve);
    ("incremental", "patch vs recompute on a sliding window (BENCH_incremental.json)", incremental);
    ("topk", "pruned vs unpruned top-k LDS extraction (BENCH_topk.json)", topk);
    ("hierarchy", "breakpoint vs reference density-friendly hierarchy (BENCH_hierarchy.json)", hierarchy);
    ("ext_truss", "extension: truss vs CDS", ext_truss);
    ("ext_sampled", "future work: sampled approximation", ext_sampled);
    ("ext_atleastk", "future work: densest-at-least-k", ext_atleastk);
    ("ext_directed", "extension: directed densest subgraph", ext_directed);
    ("abl_grouping", "ablation: construct+ grouping", abl_grouping);
    ("abl_window", "ablation: CoreApp initial window", abl_window);
    ("micro", "bechamel micro-benchmarks", micro);
  ]
