(* Exact algorithms: Exact (Algorithm 1) and CoreExact (Algorithm 4)
   against the exhaustive brute-force oracle, against each other,
   across flow-network constructions and pruning configurations, plus
   Lemma 7 (CDS location). *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module D = Dsd_core.Density

(* Densities are one int division each, so equal rationals have equal
   bits. *)
let same a b = Int64.bits_of_float a = Int64.bits_of_float b

(* Exact returns the canonical region: the union of all densest
   subsets. *)
let exact_matches_brute_prop psi g =
  let brute_density, region =
    Dsd_check.Oracle.brute_force_maximal_densest g psi
  in
  let r = Dsd_core.Exact.run g psi in
  same brute_density r.Dsd_core.Exact.subgraph.D.density
  && region = r.Dsd_core.Exact.subgraph.D.vertices

let core_exact_matches_brute_prop psi g =
  let brute_density, _ = Helpers.brute_force_densest g psi in
  let r = Dsd_core.Core_exact.run g psi in
  same brute_density r.Dsd_core.Core_exact.subgraph.D.density

(* The returned vertex set's density must equal the reported density
   (the subgraph really is that dense, not just the scalar). *)
let core_exact_witness_prop psi g =
  let r = Dsd_core.Core_exact.run g psi in
  let sg = r.Dsd_core.Core_exact.subgraph in
  same sg.D.density (Helpers.density_of_subset g psi sg.D.vertices)

let prunings_equivalent_prop psi g =
  let reference = (Dsd_core.Core_exact.run g psi).Dsd_core.Core_exact.subgraph in
  List.for_all
    (fun prunings ->
      let r = Dsd_core.Core_exact.run ~prunings g psi in
      same reference.D.density r.Dsd_core.Core_exact.subgraph.D.density)
    Dsd_core.Core_exact.
      [ no_prunings; { p1 = true; p2 = false }; { p1 = false; p2 = true } ]

(* The EDS-specialised Goldberg network and the generic h=2 clique
   network must agree. *)
let eds_network_vs_clique_network_prop g =
  let a = Dsd_core.Exact.run ~family:Dsd_core.Flow_build.Eds g P.edge in
  let b = Dsd_core.Exact.run ~family:Dsd_core.Flow_build.Clique_flow g P.edge in
  same a.Dsd_core.Exact.subgraph.D.density b.Dsd_core.Exact.subgraph.D.density

(* Lemma 7: the CDS is contained in the (ceil(rho_opt), Psi)-core. *)
let lemma7_prop psi g =
  let r = Dsd_core.Core_exact.run g psi in
  let sg = r.Dsd_core.Core_exact.subgraph in
  if Array.length sg.D.vertices = 0 then true
  else begin
    let k = int_of_float (Float.ceil (sg.D.density -. 1e-9)) in
    let decomp = Dsd_core.Clique_core.decompose g psi in
    let core = Helpers.int_array_as_set (Dsd_core.Clique_core.core_vertices decomp ~k) in
    List.for_all (fun v -> List.mem v core)
      (Array.to_list sg.D.vertices)
  end

let test_two_cliques_eds () =
  let g = Dsd_data.Paper_graphs.two_cliques ~a:6 ~b:4 ~bridge:true in
  let r = Dsd_core.Core_exact.run g P.edge in
  Helpers.check_float "density of K6" 2.5 r.Dsd_core.Core_exact.subgraph.D.density;
  Alcotest.(check (list int)) "vertices"
    [ 0; 1; 2; 3; 4; 5 ]
    (Helpers.int_array_as_set r.Dsd_core.Core_exact.subgraph.D.vertices)

let test_two_cliques_triangle () =
  let g = Dsd_data.Paper_graphs.two_cliques ~a:6 ~b:4 ~bridge:false in
  let r = Dsd_core.Core_exact.run g P.triangle in
  (* K6: C(6,3)/6 = 20/6. *)
  Helpers.check_float "triangle density" (20. /. 6.)
    r.Dsd_core.Core_exact.subgraph.D.density

let test_eds_vs_cds_differ () =
  (* Figure 1's phenomenon: EDS = K3,4, triangle-CDS = K4. *)
  let g = Dsd_data.Paper_graphs.eds_vs_cds in
  let eds = Dsd_core.Core_exact.run g P.edge in
  Helpers.check_float "EDS density" (12. /. 7.) eds.Dsd_core.Core_exact.subgraph.D.density;
  Alcotest.(check (list int)) "EDS = K3,4" [ 0; 1; 2; 3; 4; 5; 6 ]
    (Helpers.int_array_as_set eds.Dsd_core.Core_exact.subgraph.D.vertices);
  let cds = Dsd_core.Core_exact.run g P.triangle in
  Helpers.check_float "CDS density" 1.0 cds.Dsd_core.Core_exact.subgraph.D.density;
  Alcotest.(check (list int)) "CDS = K4" [ 7; 8; 9; 10 ]
    (Helpers.int_array_as_set cds.Dsd_core.Core_exact.subgraph.D.vertices)

let test_exact_on_figure2 () =
  let g = Dsd_data.Paper_graphs.figure2 in
  let r = Dsd_core.Exact.run g P.triangle in
  (* One triangle on {B,C,D}: density 1/3. *)
  Helpers.check_float "density" (1. /. 3.) r.Dsd_core.Exact.subgraph.D.density;
  Alcotest.(check (list int)) "triangle vertices" [ 1; 2; 3 ]
    (Helpers.int_array_as_set r.Dsd_core.Exact.subgraph.D.vertices)

let test_no_instances () =
  let g = Dsd_data.Paper_graphs.path 6 in
  let r = Dsd_core.Exact.run g P.triangle in
  Helpers.check_float "no triangles" 0. r.Dsd_core.Exact.subgraph.D.density;
  let rc = Dsd_core.Core_exact.run g P.triangle in
  Helpers.check_float "core exact agrees" 0. rc.Dsd_core.Core_exact.subgraph.D.density

let test_exact_equals_core_exact_medium () =
  (* Beyond brute-force scale: the two exact algorithms agree on a
     denser random graph, for every h. *)
  let g = Helpers.random_graph ~seed:77 ~max_n:60 ~max_m:400 () in
  List.iter
    (fun h ->
      let a = Dsd_core.Exact.run g (P.clique h) in
      let b = Dsd_core.Core_exact.run g (P.clique h) in
      Alcotest.(check bool)
        (Printf.sprintf "h=%d agree" h)
        true
        (same a.Dsd_core.Exact.subgraph.D.density
           b.Dsd_core.Core_exact.subgraph.D.density))
    [ 2; 3; 4 ]

let test_core_exact_network_shrinks () =
  let g = Dsd_data.Gen.planted_clique ~seed:3 ~n:300 ~p:0.02 ~clique:12 in
  let exact = Dsd_core.Exact.run g P.triangle in
  let core = Dsd_core.Core_exact.run g P.triangle in
  Alcotest.(check bool) "same answer" true
    (same exact.Dsd_core.Exact.subgraph.D.density
       core.Dsd_core.Core_exact.subgraph.D.density);
  (* CoreExact's largest network must be smaller than Exact's (that is
     the whole point of the paper). *)
  let core_max =
    List.fold_left max 0 core.Dsd_core.Core_exact.stats.network_nodes
  in
  Alcotest.(check bool) "network smaller" true
    (core_max < exact.Dsd_core.Exact.stats.last_network_nodes);
  (* And the planted clique is found. *)
  Alcotest.(check (list int)) "planted clique found"
    (List.init 12 Fun.id)
    (Helpers.int_array_as_set core.Dsd_core.Core_exact.subgraph.D.vertices)

let test_stats_populated () =
  let g = Dsd_data.Paper_graphs.two_cliques ~a:5 ~b:3 ~bridge:true in
  let r = Dsd_core.Core_exact.run g P.edge in
  let s = r.Dsd_core.Core_exact.stats in
  Alcotest.(check bool) "kmax" true (s.Dsd_core.Core_exact.kmax = 4);
  Alcotest.(check bool) "timings nonneg" true
    (s.Dsd_core.Core_exact.decompose_s >= 0. && s.Dsd_core.Core_exact.flow_s >= 0.);
  Alcotest.(check int) "network sizes recorded"
    s.Dsd_core.Core_exact.iterations
    (List.length s.Dsd_core.Core_exact.network_nodes)

(* On this padded graph the exact grid (D about n^2 = 9 * 10^10) would
   scale the edge network's capacities past 2^53 (about 4 m D), so every
   probe falls back to a cold aim at num/den itself, which keeps no
   flow, and the search answers exactly as on the block alone. *)
let test_large_edge_network () =
  let block = Dsd_data.Gen.barabasi_albert ~seed:3 ~n:4_000 ~attach:20 in
  let g = Dsd_data.Gen.disjoint_union block (G.empty 296_000) in
  let small = Dsd_core.Exact.run block P.edge in
  let large, warm =
    Dsd_obs.Control.with_recording (fun () ->
        let r = Dsd_core.Exact.run g P.edge in
        (r, Dsd_obs.Counter.get Dsd_obs.Counter.Flow_warm_starts))
  in
  let check name (r : D.subgraph) =
    Alcotest.(check bool) (name ^ " density") true
      (same small.Dsd_core.Exact.subgraph.D.density r.D.density);
    Alcotest.(check (array int)) (name ^ " vertices")
      small.Dsd_core.Exact.subgraph.D.vertices r.D.vertices
  in
  check "exact" large.Dsd_core.Exact.subgraph;
  Alcotest.(check bool) "ran a real search" true
    (large.Dsd_core.Exact.stats.iterations > 1);
  Alcotest.(check int) "cold probes past the grid" 0 warm;
  check "api"
    (Dsd_core.Api.densest_subgraph ~algorithm:Dsd_core.Api.Exact_flow g)

let patterns_for_exact =
  [ ("edge", P.edge); ("triangle", P.triangle); ("4-clique", P.clique 4) ]

let suite =
  [
    Alcotest.test_case "two cliques EDS" `Quick test_two_cliques_eds;
    Alcotest.test_case "two cliques triangle" `Quick test_two_cliques_triangle;
    Alcotest.test_case "EDS vs CDS differ (fig 1)" `Quick test_eds_vs_cds_differ;
    Alcotest.test_case "exact on figure 2" `Quick test_exact_on_figure2;
    Alcotest.test_case "no instances" `Quick test_no_instances;
    Alcotest.test_case "exact = core-exact (medium)" `Slow test_exact_equals_core_exact_medium;
    Alcotest.test_case "networks shrink + planted clique" `Slow test_core_exact_network_shrinks;
    Alcotest.test_case "stats populated" `Quick test_stats_populated;
    Alcotest.test_case "edge network past 2^53" `Slow test_large_edge_network;
    Helpers.qtest ~count:40 "eds net = clique net (h=2)"
      (Helpers.small_graph_arb ~max_n:12 ~max_m:30 ())
      eds_network_vs_clique_network_prop;
  ]
  @ List.concat_map
      (fun (name, psi) ->
        [
          Helpers.qtest ~count:25 ("exact = brute force: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (exact_matches_brute_prop psi);
          Helpers.qtest ~count:25 ("core-exact = brute force: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (core_exact_matches_brute_prop psi);
          Helpers.qtest ~count:25 ("core-exact witness density: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (core_exact_witness_prop psi);
          Helpers.qtest ~count:15 ("prunings equivalent: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (prunings_equivalent_prop psi);
          Helpers.qtest ~count:15 ("lemma 7: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (lemma7_prop psi);
        ])
      patterns_for_exact
