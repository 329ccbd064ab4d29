(* Pattern densest subgraph: PExact and CorePExact against brute
   force, Lemma 11 (construct+ preserves min-cut capacity), and the
   construct+ grouping itself. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module D = Dsd_core.Density
module FB = Dsd_core.Flow_build

(* Densities are one int division each, so equal rationals have equal
   bits. *)
let same a b = Int64.bits_of_float a = Int64.bits_of_float b

(* PExact (Algorithm 8): Exact with the one-node-per-instance network. *)
let pexact g psi = Dsd_core.Exact.run ~family:FB.Pds g psi

let pexact_matches_brute_prop psi g =
  let brute, _ = Helpers.brute_force_densest g psi in
  let r = pexact g psi in
  same brute r.Dsd_core.Exact.subgraph.D.density

let core_pexact_matches_brute_prop psi g =
  let brute, _ = Helpers.brute_force_densest g psi in
  let r = Dsd_core.Core_pexact.run g psi in
  same brute r.Dsd_core.Core_exact.subgraph.D.density

(* Lemma 11: the PExact network and the construct+ network have the
   same min-cut capacity, for any alpha. *)
let lemma11_prop (psi, g, alpha) =
  let instances = Dsd_core.Enumerate.instances g psi in
  if instances.Dsd_clique.Instances.count = 0 then true
  else begin
    let a = Helpers.network_at FB.Pds g psi ~instances ~alpha in
    let b = Helpers.network_at FB.Pds_grouped g psi ~instances ~alpha in
    let fa = Dsd_flow.Dinic.max_flow a.FB.net ~s:a.FB.source ~t:a.FB.sink in
    let fb = Dsd_flow.Dinic.max_flow b.FB.net ~s:b.FB.source ~t:b.FB.sink in
    Float.abs (fa -. fb) < 1e-6
  end

let test_grouping_shrinks_network () =
  (* Example 6's setting: a K4 carries 3 C4 instances on one vertex
     set, so construct+ uses one group node instead of three. *)
  let g = Dsd_data.Paper_graphs.two_cliques ~a:4 ~b:3 ~bridge:true in
  let instances = Dsd_core.Enumerate.instances g P.diamond in
  Alcotest.(check int) "3 instances" 3 instances.Dsd_clique.Instances.count;
  let network family =
    Helpers.network_at family g P.diamond ~instances ~alpha:0.5
  in
  let plain = network FB.Pds and grouped = network FB.Pds_grouped in
  Alcotest.(check int) "plain nodes" (7 + 3 + 2) plain.FB.node_count;
  Alcotest.(check int) "grouped nodes" (7 + 1 + 2) grouped.FB.node_count

let test_pds_known_answers () =
  (* In K6 disjoint from sparse stuff, every pattern's PDS is the K6:
     mu(K6, psi)/6. *)
  let g = Dsd_data.Paper_graphs.two_cliques ~a:6 ~b:3 ~bridge:true in
  List.iter
    (fun psi ->
      let k6 = G.complete 6 in
      let expect =
        float_of_int (Dsd_pattern.Match.count k6 psi) /. 6.
      in
      let r = Dsd_core.Core_pexact.run g psi in
      Alcotest.(check bool)
        (psi.P.name ^ " PDS density")
        true
        (same expect r.Dsd_core.Core_exact.subgraph.D.density))
    [ P.star 2; P.c3_star; P.diamond; P.two_triangle ]

let test_star_pds_prefers_hub () =
  (* A big star beats a small clique on 2-star density. *)
  let edges = ref [] in
  (* Hub 0 with 12 leaves. *)
  for i = 1 to 12 do
    edges := (0, i) :: !edges
  done;
  (* Disjoint K4 on 13..16. *)
  for u = 13 to 16 do
    for v = u + 1 to 16 do
      edges := (u, v) :: !edges
    done
  done;
  let g = G.of_edge_list ~n:17 !edges in
  let r = Dsd_core.Core_pexact.run g (P.star 2) in
  let sg = r.Dsd_core.Core_exact.subgraph in
  (* Hub + all leaves: C(12,2)=66 instances over 13 vertices ~ 5.08;
     K4 has 12/4 = 3. *)
  Helpers.check_float "hub density" (66. /. 13.) sg.D.density;
  Alcotest.(check bool) "contains hub" true (Array.exists (( = ) 0) sg.D.vertices)

let test_pexact_vs_core_pexact_medium () =
  let g = Helpers.random_graph ~seed:55 ~max_n:40 ~max_m:160 () in
  List.iter
    (fun psi ->
      let a = pexact g psi in
      let b = Dsd_core.Core_pexact.run g psi in
      Alcotest.(check bool) (psi.P.name ^ " agree") true
        (same a.Dsd_core.Exact.subgraph.D.density
           b.Dsd_core.Core_exact.subgraph.D.density))
    [ P.star 2; P.c3_star; P.diamond; P.two_triangle ]

(* Cliques may also be solved through the pattern networks; all
   constructions agree. *)
let clique_through_pds_prop g =
  let psi = P.triangle in
  let a = Dsd_core.Exact.run g psi in
  let b = pexact g psi in
  same a.Dsd_core.Exact.subgraph.D.density b.Dsd_core.Exact.subgraph.D.density

let arb_pattern_graph_alpha =
  let patterns =
    [| P.star 2; P.c3_star; P.diamond; P.two_triangle; P.three_triangle |]
  in
  QCheck.make
    ~print:(fun (psi, g, alpha) ->
      Printf.sprintf "%s on n=%d m=%d alpha=%.3f" psi.P.name (G.n g) (G.m g) alpha)
    QCheck.Gen.(
      triple
        (map (fun i -> patterns.(i mod Array.length patterns)) small_nat)
        (Helpers.small_graph_gen ~max_n:9 ~max_m:22 ())
        (float_bound_inclusive 4.0))

let patterns_for_pds =
  [ ("2-star", P.star 2); ("3-star", P.star 3); ("c3-star", P.c3_star);
    ("diamond/C4", P.diamond); ("2-triangle", P.two_triangle);
    ("basket", P.basket) ]

let suite =
  [
    Alcotest.test_case "construct+ shrinks network" `Quick test_grouping_shrinks_network;
    Alcotest.test_case "PDS known answers in K6" `Quick test_pds_known_answers;
    Alcotest.test_case "2-star PDS prefers hub" `Quick test_star_pds_prefers_hub;
    Alcotest.test_case "pexact = core-pexact (medium)" `Slow test_pexact_vs_core_pexact_medium;
    Helpers.qtest ~count:60 "lemma 11: capacities equal" arb_pattern_graph_alpha lemma11_prop;
    Helpers.qtest ~count:25 "clique via pds network"
      (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
      clique_through_pds_prop;
  ]
  @ List.concat_map
      (fun (name, psi) ->
        [
          Helpers.qtest ~count:20 ("pexact = brute force: " ^ name)
            (Helpers.small_graph_arb ~max_n:9 ~max_m:22 ())
            (pexact_matches_brute_prop psi);
          Helpers.qtest ~count:20 ("core-pexact = brute force: " ^ name)
            (Helpers.small_graph_arb ~max_n:9 ~max_m:22 ())
            (core_pexact_matches_brute_prop psi);
        ])
      patterns_for_pds
