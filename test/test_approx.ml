(* Approximation algorithms: PeelApp, IncApp, CoreApp.  Checks the
   1/|V_Psi| guarantee against exact optima, the Lemma 8 core identity,
   and cross-algorithm agreement (IncApp, CoreApp and Nucleus must all
   return the same (kmax, Psi)-core). *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module D = Dsd_core.Density

let approx_ratio_prop run psi g =
  let opt, _ = Helpers.brute_force_densest g psi in
  if opt = 0. then true
  else begin
    let approx = run g psi in
    approx.D.density >= (opt /. float_of_int psi.P.size) -. 1e-9
    && approx.D.density <= opt +. 1e-9
  end

let peel = fun g psi -> (Dsd_core.Peel_app.run g psi).Dsd_core.Peel_app.subgraph
let inc = fun g psi -> (Dsd_core.Inc_app.run g psi).Dsd_core.Inc_app.subgraph
let capp = fun g psi -> (Dsd_core.Core_app.run g psi).Dsd_core.Core_app.subgraph

(* IncApp and CoreApp return the identical (kmax, Psi)-core. *)
let incapp_coreapp_same_core_prop psi g =
  let a = Dsd_core.Inc_app.run g psi in
  let b = Dsd_core.Core_app.run g psi in
  a.Dsd_core.Inc_app.kmax = b.Dsd_core.Core_app.kmax
  && Helpers.int_array_as_set a.Dsd_core.Inc_app.subgraph.D.vertices
     = Helpers.int_array_as_set b.Dsd_core.Core_app.subgraph.D.vertices

(* PeelApp's result is at least as dense as the (kmax, Psi)-core: the
   core is one of the residual graphs of the peel. *)
let peel_at_least_core_prop psi g =
  let p = Dsd_core.Peel_app.run g psi in
  let i = Dsd_core.Inc_app.run g psi in
  p.Dsd_core.Peel_app.subgraph.D.density
  >= i.Dsd_core.Inc_app.subgraph.D.density -. 1e-9

(* Greedy++'s best-so-far curve never regresses, starts at PeelApp
   (round 1 is PeelApp by construction: all loads are zero), and ends
   at the returned subgraph's density. *)
let greedy_pp_monotone_prop psi g =
  let r = Dsd_core.Greedy_pp.run ~rounds:6 g psi in
  let d = r.Dsd_core.Greedy_pp.densities in
  let monotone = ref (Array.length d > 0) in
  for i = 1 to Array.length d - 1 do
    if d.(i) < d.(i - 1) then monotone := false
  done;
  let p = Dsd_core.Peel_app.run g psi in
  !monotone
  && d.(0) = p.Dsd_core.Peel_app.subgraph.D.density
  && d.(Array.length d - 1) = r.Dsd_core.Greedy_pp.subgraph.D.density

(* Streaming meets its 1/(|V_Psi|(1+eps)) guarantee against the
   brute-force oracle and never overshoots the optimum. *)
let streaming_bound_prop ~eps psi g =
  let opt, _ = Helpers.brute_force_densest g psi in
  let r = Dsd_core.Streaming.run ~eps g psi in
  let d = r.Dsd_core.Streaming.subgraph.D.density in
  d >= (opt /. (float_of_int psi.P.size *. (1. +. eps))) -. 1e-9
  && d <= opt +. 1e-9

let test_streaming_rejects_bad_eps () =
  let g = Dsd_data.Paper_graphs.path 4 in
  List.iter
    (fun eps ->
      match Dsd_core.Streaming.run ~eps g P.edge with
      | _ -> Alcotest.failf "eps = %g was accepted" eps
      | exception Invalid_argument _ -> ())
    [ 0.; -0.5; -1e9 ]

let test_core_app_finds_hidden_core () =
  (* The kmax-core is a moderately-sized planted block; CoreApp should
     find it while examining a fraction of the graph. *)
  let g = Dsd_data.Gen.planted_clique ~seed:5 ~n:2000 ~p:0.002 ~clique:20 in
  let r = Dsd_core.Core_app.run g P.edge in
  Alcotest.(check int) "kmax" 19 r.Dsd_core.Core_app.kmax;
  Alcotest.(check (list int)) "core = planted clique"
    (List.init 20 Fun.id)
    (Helpers.int_array_as_set r.Dsd_core.Core_app.subgraph.D.vertices);
  Alcotest.(check bool) "window stayed small" true
    (r.Dsd_core.Core_app.final_window < 2000)

let test_core_app_triangle_on_planted () =
  let g = Dsd_data.Gen.planted_clique ~seed:6 ~n:800 ~p:0.004 ~clique:12 in
  let r = Dsd_core.Core_app.run g P.triangle in
  let i = Dsd_core.Inc_app.run g P.triangle in
  Alcotest.(check int) "kmax agree" i.Dsd_core.Inc_app.kmax r.Dsd_core.Core_app.kmax;
  Alcotest.(check (list int)) "cores agree"
    (Helpers.int_array_as_set i.Dsd_core.Inc_app.subgraph.D.vertices)
    (Helpers.int_array_as_set r.Dsd_core.Core_app.subgraph.D.vertices)

let test_lemma8_bound () =
  (* Lemma 8: the (kmax, Psi)-core has density >= kmax / |V_Psi|. *)
  List.iter
    (fun seed ->
      let g = Helpers.random_graph ~seed ~max_n:30 ~max_m:120 () in
      List.iter
        (fun psi ->
          let r = Dsd_core.Inc_app.run g psi in
          if r.Dsd_core.Inc_app.kmax > 0 then
            Alcotest.(check bool)
              (Printf.sprintf "bound %s %s" (Helpers.seed_ctx seed) psi.P.name)
              true
              (r.Dsd_core.Inc_app.subgraph.D.density
               >= (float_of_int r.Dsd_core.Inc_app.kmax /. float_of_int psi.P.size)
                  -. 1e-9))
        [ P.edge; P.triangle; P.star 2; P.diamond ])
    [ 10; 11; 12 ]

let test_empty_results () =
  let g = Dsd_data.Paper_graphs.path 5 in
  let r = Dsd_core.Peel_app.run g P.triangle in
  Alcotest.(check int) "peel empty" 0 (Array.length r.Dsd_core.Peel_app.subgraph.D.vertices);
  let r2 = Dsd_core.Core_app.run g P.triangle in
  Alcotest.(check int) "coreapp kmax" 0 r2.Dsd_core.Core_app.kmax

(* K_{6,6} (gamma C(6,2) = 15), K_{5,5} (gamma 10) and a K5 (gamma 6):
   the bipartite blocks have the top classical cores but no triangle,
   so the triangle kmax-core is the K5 at the bottom of the gamma
   order. *)
let bipartite_blocks_and_k5 () =
  let edges = ref [] in
  let biclique base s =
    for i = 0 to s - 1 do
      for j = 0 to s - 1 do
        edges := (base + i, base + s + j) :: !edges
      done
    done
  in
  biclique 0 6;
  biclique 12 5;
  for i = 22 to 26 do
    for j = i + 1 to 26 do
      edges := (i, j) :: !edges
    done
  done;
  G.of_edge_list ~n:27 !edges

let test_initial_window_override () =
  (* The initial window of 12 ends at a gamma below the top one, so it
     is examined, fails, and doubles: 12 -> 24 (past K_{5,5}'s tie,
     which ends at 22) -> 27 (capped at n), where the K5 is found. *)
  let g = bipartite_blocks_and_k5 () in
  let r = Dsd_core.Core_app.run ~initial_window:12 g P.triangle in
  Alcotest.(check int) "kmax" 6 r.Dsd_core.Core_app.kmax;
  Alcotest.(check int) "rounds" 3 r.Dsd_core.Core_app.rounds;
  Alcotest.(check int) "final window" 27 r.Dsd_core.Core_app.final_window;
  Alcotest.(check (array int)) "kmax core" [| 22; 23; 24; 25; 26 |]
    r.Dsd_core.Core_app.subgraph.D.vertices

(* Every vertex of a Barabási-Albert graph has the same classical core
   number, hence the same gamma: no window can stop inside that tie,
   so CoreApp peels G itself in one round and returns IncApp's core,
   bit for bit. *)
let test_core_app_tied_gamma_one_round () =
  let g = Dsd_data.Gen.barabasi_albert ~seed:11 ~n:400 ~attach:3 in
  let core = (Dsd_graph.Degeneracy.compute g).core in
  Alcotest.(check bool) "gamma ties" true
    (Array.for_all (fun c -> c = core.(0)) core);
  List.iter
    (fun psi ->
      let r = Dsd_core.Core_app.run g psi in
      let i = Dsd_core.Inc_app.run g psi in
      Alcotest.(check int) ("rounds " ^ psi.P.name) 1 r.Dsd_core.Core_app.rounds;
      Alcotest.(check (array int)) ("vertices " ^ psi.P.name)
        i.Dsd_core.Inc_app.subgraph.D.vertices
        r.Dsd_core.Core_app.subgraph.D.vertices;
      Alcotest.(check int64) ("density bits " ^ psi.P.name)
        (Int64.bits_of_float i.Dsd_core.Inc_app.subgraph.D.density)
        (Int64.bits_of_float r.Dsd_core.Core_app.subgraph.D.density))
    [ P.edge; P.triangle; P.clique 4 ]

let test_api_layer () =
  let g = Dsd_data.Paper_graphs.two_cliques ~a:6 ~b:4 ~bridge:false in
  List.iter
    (fun algo ->
      let sg = Dsd_core.Api.densest_subgraph ~algorithm:algo g in
      Alcotest.(check bool)
        (Dsd_core.Api.algorithm_name algo ^ " finds a dense subgraph")
        true
        (sg.D.density >= 1.25))
    Dsd_core.Api.[ Exact_flow; Core_exact; Peel; Inc_app; Core_app ];
  let exact = Dsd_core.Api.densest_subgraph g in
  Helpers.check_float "default is exact" 2.5 exact.D.density;
  let cn = Dsd_core.Api.core_numbers g P.edge in
  Alcotest.(check int) "core numbers" 5 cn.(0);
  let core = Dsd_core.Api.kmax_core g P.edge in
  Alcotest.(check (list int)) "kmax core" [ 0; 1; 2; 3; 4; 5 ]
    (Helpers.int_array_as_set core.D.vertices)

let patterns_for_approx =
  [ ("edge", P.edge); ("triangle", P.triangle); ("4-clique", P.clique 4);
    ("2-star", P.star 2); ("diamond/C4", P.diamond); ("c3-star", P.c3_star) ]

let suite =
  [
    Alcotest.test_case "core app planted clique" `Slow test_core_app_finds_hidden_core;
    Alcotest.test_case "core app triangle planted" `Slow test_core_app_triangle_on_planted;
    Alcotest.test_case "lemma 8 bound" `Quick test_lemma8_bound;
    Alcotest.test_case "empty results" `Quick test_empty_results;
    Alcotest.test_case "initial window override" `Quick test_initial_window_override;
    Alcotest.test_case "api layer" `Quick test_api_layer;
    Alcotest.test_case "streaming rejects eps <= 0" `Quick
      test_streaming_rejects_bad_eps;
  ]
  @ List.concat_map
      (fun (name, psi) ->
        [
          Helpers.qtest ~count:25 ("greedy++ monotone, round 1 = peel: " ^ name)
            (Helpers.small_graph_arb ~max_n:12 ~max_m:36 ())
            (greedy_pp_monotone_prop psi);
          Helpers.qtest ~count:20 ("streaming bound eps=0.1: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (streaming_bound_prop ~eps:0.1 psi);
          Helpers.qtest ~count:20 ("streaming bound eps=0.5: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (streaming_bound_prop ~eps:0.5 psi);
        ])
      [ ("edge", P.edge); ("triangle", P.triangle) ]
  @ List.concat_map
      (fun (name, psi) ->
        [
          Helpers.qtest ~count:20 ("peel ratio: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (approx_ratio_prop peel psi);
          Helpers.qtest ~count:20 ("incapp ratio: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (approx_ratio_prop inc psi);
          Helpers.qtest ~count:20 ("coreapp ratio: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (approx_ratio_prop capp psi);
          Helpers.qtest ~count:20 ("incapp = coreapp: " ^ name)
            (Helpers.small_graph_arb ~max_n:12 ~max_m:36 ())
            (incapp_coreapp_same_core_prop psi);
          Helpers.qtest ~count:20 ("peel >= core: " ^ name)
            (Helpers.small_graph_arb ~max_n:12 ~max_m:36 ())
            (peel_at_least_core_prop psi);
        ])
      patterns_for_approx
  @ [
      Alcotest.test_case "core app tied gamma: one round" `Quick
        test_core_app_tied_gamma_one_round;
    ]
