(* (k, Psi)-core decomposition: against the naive threshold-peeling
   oracle, nestedness/maximality invariants, Theorem 1 bounds, and the
   Nucleus baseline's fixpoint. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module CC = Dsd_core.Clique_core

(* The vertices of the classical k-core, ascending. *)
let k_core (dg : Dsd_graph.Degeneracy.t) ~k =
  List.filter (fun v -> dg.core.(v) >= k) (List.init (Array.length dg.core) Fun.id)
  |> Array.of_list

let test_kcore_figure3 () =
  let dg = Dsd_graph.Degeneracy.compute Dsd_data.Paper_graphs.figure3_like in
  Alcotest.(check int) "kmax" 3 dg.degeneracy;
  Alcotest.(check (array int)) "3-core" [| 0; 1; 2; 3 |]
    (k_core dg ~k:dg.degeneracy);
  Alcotest.(check (array int)) "2-core" [| 0; 1; 2; 3; 4; 5 |] (k_core dg ~k:2);
  Alcotest.(check int) "core of bridge vertex" 2 dg.core.(4)

let test_triangle_core_figure3 () =
  let d = CC.decompose Dsd_data.Paper_graphs.figure3_like P.triangle in
  Alcotest.(check int) "kmax" 3 d.CC.kmax;
  Alcotest.(check (array int)) "(3,tri)-core" [| 0; 1; 2; 3 |] (CC.kmax_core d);
  (* The pendant triangle vertices participate in 1 triangle. *)
  Alcotest.(check int) "core of 4" 1 d.CC.core.(4);
  Alcotest.(check int) "core of isolated-edge vertex" 0 d.CC.core.(6);
  Alcotest.(check int) "mu" 5 d.CC.mu_total

let test_clique_core_kn () =
  (* In K_n every vertex has clique-core number C(n-1, h-1). *)
  let g = G.complete 6 in
  List.iter
    (fun h ->
      let d = CC.decompose g (P.clique h) in
      let expect = Dsd_util.Binom.choose 5 (h - 1) in
      Alcotest.(check int) (Printf.sprintf "kmax h=%d" h) expect d.CC.kmax;
      Array.iter
        (fun c -> Alcotest.(check int) "uniform" expect c)
        d.CC.core)
    [ 2; 3; 4; 5 ]

let core_numbers_match_oracle_prop psi g =
  let d = CC.decompose g psi in
  d.CC.core = Helpers.naive_core_numbers g psi

(* Theorem 1: for every non-empty (k, Psi)-core,
   k / |V_Psi| <= rho(R_k) <= kmax. *)
let theorem1_bounds_prop psi g =
  let d = CC.decompose g psi in
  let ok = ref true in
  for k = 1 to d.CC.kmax do
    let core = CC.core_vertices d ~k in
    if Array.length core > 0 then begin
      let rho = Helpers.density_of_subset g psi core in
      if rho +. 1e-9 < float_of_int k /. float_of_int psi.P.size then ok := false;
      if rho > float_of_int d.CC.kmax +. 1e-9 then ok := false
    end
  done;
  !ok

(* Each vertex of the (k, Psi)-core has >= k instances inside the
   core (Definition 6), i.e. the peel result is a valid core. *)
let core_internal_degree_prop psi g =
  let d = CC.decompose g psi in
  let ok = ref true in
  for k = 1 to d.CC.kmax do
    let core = CC.core_vertices d ~k in
    if Array.length core > 0 then begin
      let sub, _map = G.induced g core in
      let deg =
        match psi.P.kind with
        | P.Clique -> Dsd_clique.Clique_count.degrees sub ~h:psi.P.size
        | _ -> Dsd_pattern.Match.degrees sub psi
      in
      Array.iter (fun dv -> if dv < k then ok := false) deg
    end
  done;
  !ok

let test_best_residual_tracks_density () =
  let g = Dsd_data.Paper_graphs.two_cliques ~a:6 ~b:4 ~bridge:true in
  let d = CC.decompose ~track_density:true g P.edge in
  (* Densest residual of the edge-peel is the K6 block (density 2.5):
     the bridge and the K4 peel away first. *)
  Helpers.check_float "rho'" 2.5 d.CC.best_residual_density;
  Alcotest.(check (list int)) "residual = K6"
    [ 0; 1; 2; 3; 4; 5 ]
    (Helpers.int_array_as_set (CC.best_residual d))

let test_density_disabled () =
  let g = G.complete 4 in
  let d = CC.decompose ~track_density:false g P.edge in
  Helpers.check_float "no tracking" 0. d.CC.best_residual_density

let test_theorem1_chain_family () =
  (* Figure 4(b): classical kmax stays 2 while the kmax-core density
     approaches the upper bound 2 as the chain grows. *)
  let prev = ref 0. in
  List.iter
    (fun x ->
      let g = Dsd_data.Paper_graphs.theorem1_chain x in
      let d = CC.decompose g P.edge in
      Alcotest.(check int) (Printf.sprintf "kmax x=%d" x) 2 d.CC.kmax;
      let rho = Helpers.density_of_subset g P.edge (CC.kmax_core d) in
      Alcotest.(check bool) "within bounds" true (rho >= 1. && rho <= 2.);
      Alcotest.(check bool) "monotone towards 2" true (rho >= !prev);
      prev := rho)
    [ 2; 4; 8; 16; 64 ];
  Alcotest.(check bool) "approaches 2" true (!prev > 1.9)

let nucleus_matches_decomposition_prop psi g =
  let d = CC.decompose g psi in
  let nucleus = Dsd_core.Nucleus.run g psi in
  nucleus.Dsd_core.Nucleus.core = d.CC.core
  && nucleus.Dsd_core.Nucleus.kmax = d.CC.kmax

let test_emcore_matches_degeneracy () =
  List.iter
    (fun seed ->
      let g = Helpers.random_graph ~seed ~max_n:40 ~max_m:150 () in
      let em = Dsd_core.Emcore.run g in
      let dg = Dsd_graph.Degeneracy.compute g in
      Alcotest.(check int) "kmax" dg.degeneracy em.Dsd_core.Emcore.kmax;
      if dg.degeneracy > 0 then
        Alcotest.(check (list int)) "core set"
          (Helpers.int_array_as_set (k_core dg ~k:dg.degeneracy))
          (Helpers.int_array_as_set em.Dsd_core.Emcore.subgraph.Dsd_core.Density.vertices))
    [ 1; 2; 3; 4; 5 ]

let test_empty_graph () =
  let g = G.empty 5 in
  let d = CC.decompose g P.triangle in
  Alcotest.(check int) "kmax" 0 d.CC.kmax;
  Alcotest.(check int) "mu" 0 d.CC.mu_total

(* The clique and generic engines against the brute-force peel of
   Dsd_check.Oracle: the density-tracked decomposition agrees in core
   numbers, peel order, kmax, the kmax-core's instance count, the bits
   of every residual density and the best suffix, and
   [peel_canonical]'s [on_peel] sequence is the reference's (vertex,
   charge) transcript — on the CSR engine for edges and on the
   instance store for every other pattern. *)
let test_peel_reference () =
  let bits a = Array.map Int64.bits_of_float a in
  let patterns =
    [ P.edge; P.triangle; P.clique 4; P.c3_star; P.two_triangle;
      P.three_triangle; P.basket ]
  in
  for seed = 1 to 30 do
    let g = Helpers.random_graph ~seed:(900 + seed) ~max_n:16 ~max_m:50 () in
    List.iter
      (fun psi ->
        let tag = Printf.sprintf "%s %s" (Helpers.seed_ctx seed) psi.P.name in
        let r, charges = Dsd_check.Oracle.reference_peel g psi in
        let d = CC.decompose ~track_density:true g psi in
        Alcotest.(check (array int)) ("core " ^ tag) r.CC.core d.CC.core;
        Alcotest.(check (array int)) ("order " ^ tag) r.CC.order d.CC.order;
        Alcotest.(check int) ("kmax " ^ tag) r.CC.kmax d.CC.kmax;
        Alcotest.(check int) ("kmax-core count " ^ tag) r.CC.kmax_count
          d.CC.kmax_count;
        Alcotest.(check int) ("mu " ^ tag) r.CC.mu_total d.CC.mu_total;
        Alcotest.(check (array int64)) ("residual bits " ^ tag)
          (bits r.CC.residual_densities) (bits d.CC.residual_densities);
        Alcotest.(check int64) ("best density bits " ^ tag)
          (Int64.bits_of_float r.CC.best_residual_density)
          (Int64.bits_of_float d.CC.best_residual_density);
        Alcotest.(check int) ("best start " ^ tag) r.CC.best_residual_start
          d.CC.best_residual_start;
        Alcotest.(check int) ("best count " ^ tag) r.CC.best_residual_count
          d.CC.best_residual_count;
        let seen = ref [] in
        ignore
          (CC.peel_canonical ~track_density:true (CC.engine g psi)
             ~on_peel:(fun v c -> seen := (v, c) :: !seen));
        Alcotest.(check (array (pair int int))) ("on_peel " ^ tag) charges
          (Array.of_list (List.rev !seen)))
      patterns
  done

(* The CSR engine's [kill] reports co-members in the order the instance
   store over [Enumerate.instances] reports them (Greedy++'s heap ties
   follow it), with the same counts and degrees, before and after a
   [reset]. *)
let test_edge_kill_order () =
  let module IS = Dsd_clique.Instance_store in
  for seed = 1 to 20 do
    let g = Helpers.random_graph ~seed:(700 + seed) ~max_n:30 ~max_m:120 () in
    let n = G.n g in
    let store = IS.create ~n (Dsd_core.Enumerate.instances g P.edge) in
    let e = CC.engine g P.edge in
    (* 7919 is a prime above n, so this visits every vertex once. *)
    let victims = List.init n (fun i -> i * 7919 mod n) in
    for pass = 1 to 2 do
      List.iter
        (fun v ->
          let tag =
            Printf.sprintf "%s pass %d v %d" (Helpers.seed_ctx seed) pass v
          in
          let a = ref [] and b = ref [] in
          let ka =
            IS.kill_vertex store v ~on_comember:(fun u ->
                a := (u, IS.degree store u) :: !a)
          in
          let kb =
            CC.kill e v ~on_comember:(fun u -> b := (u, CC.degree e u) :: !b)
          in
          Alcotest.(check int) ("killed " ^ tag) ka kb;
          Alcotest.(check (list (pair int int))) ("co-members " ^ tag) !a !b)
        victims;
      IS.reset store;
      CC.reset e
    done
  done

let patterns_under_test =
  [ ("edge", P.edge); ("triangle", P.triangle); ("4-clique", P.clique 4);
    ("2-star", P.star 2); ("3-star", P.star 3); ("diamond/C4", P.diamond);
    ("c3-star", P.c3_star); ("2-triangle", P.two_triangle) ]

let suite =
  [
    Alcotest.test_case "k-core figure 3" `Quick test_kcore_figure3;
    Alcotest.test_case "triangle-core figure 3" `Quick test_triangle_core_figure3;
    Alcotest.test_case "clique cores of K6" `Quick test_clique_core_kn;
    Alcotest.test_case "best residual density" `Quick test_best_residual_tracks_density;
    Alcotest.test_case "tracking disabled" `Quick test_density_disabled;
    Alcotest.test_case "theorem 1 chain family" `Quick test_theorem1_chain_family;
    Alcotest.test_case "emcore = degeneracy" `Quick test_emcore_matches_degeneracy;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
  ]
  @ List.concat_map
      (fun (name, psi) ->
        [
          Helpers.qtest ~count:30
            ("core numbers vs oracle: " ^ name)
            (Helpers.small_graph_arb ~max_n:9 ~max_m:22 ())
            (core_numbers_match_oracle_prop psi);
          Helpers.qtest ~count:30
            ("theorem 1 bounds: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:25 ())
            (theorem1_bounds_prop psi);
          Helpers.qtest ~count:30
            ("core internal degree: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:25 ())
            (core_internal_degree_prop psi);
          Helpers.qtest ~count:20
            ("nucleus fixpoint: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:25 ())
            (nucleus_matches_decomposition_prop psi);
        ])
      patterns_under_test
  @ [ Alcotest.test_case "peel equals the reference (30 seeds)" `Quick
        test_peel_reference;
      Alcotest.test_case "edge kill order equals the store's" `Quick
        test_edge_kill_order ]
