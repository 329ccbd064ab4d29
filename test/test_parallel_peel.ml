(* Determinism battery for the bucket-free parallel peel and the
   pool-striped phases under the exact solvers: at every pool width —
   including widths far beyond this machine's cores — every solver
   built on the shared round-synchronous engine must reproduce the
   sequential run bit-for-bit.  [~sequential_below:0] strips the
   pool's inline fallback so even these small fixtures exercise the
   real worker fan-out, chunk claiming and merge paths. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module Pool = Dsd_util.Pool
module CC = Dsd_core.Clique_core
module GP = Dsd_core.Greedy_pp
module CE = Dsd_core.Core_exact
module TK = Dsd_core.Topk_lds
module D = Dsd_core.Density

let domain_counts = [ 1; 2; 4; 8 ]
let patterns = [ P.edge; P.triangle ]

let check_floats tag a b =
  Alcotest.(check (list (float 0.)))
    tag
    (Array.to_list a)
    (Array.to_list b)

(* ---- 30-seed transcript differential: decompose ---- *)

(* The full density-tracked transcript — core numbers, the linearised
   peel order, kmax, every residual density and the best suffix — is
   the strongest statement of the engine's determinism contract: any
   scheduling leak shows up here before it shows up in an answer. *)
let test_transcript_differential () =
  for seed = 1 to 30 do
    let g = Helpers.random_graph ~seed:(300 + seed) ~max_n:28 ~max_m:90 () in
    List.iter
      (fun psi ->
        let s = CC.decompose ~track_density:true g psi in
        List.iter
          (fun d ->
            Pool.with_pool ~sequential_below:0 d (fun pool ->
                let p = CC.decompose ~pool ~track_density:true g psi in
                let tag =
                  Printf.sprintf "%s %s d=%d" (Helpers.seed_ctx seed)
                    psi.P.name d
                in
                Alcotest.(check (array int)) ("core " ^ tag) s.CC.core p.CC.core;
                Alcotest.(check (array int)) ("order " ^ tag) s.CC.order p.CC.order;
                Alcotest.(check int) ("kmax " ^ tag) s.CC.kmax p.CC.kmax;
                Alcotest.(check int) ("mu " ^ tag) s.CC.mu_total p.CC.mu_total;
                check_floats ("residuals " ^ tag) s.CC.residual_densities
                  p.CC.residual_densities;
                Alcotest.(check (float 0.)) ("rho' " ^ tag)
                  s.CC.best_residual_density p.CC.best_residual_density;
                Alcotest.(check int) ("rho' start " ^ tag)
                  s.CC.best_residual_start p.CC.best_residual_start))
          domain_counts)
      patterns
  done

(* ---- Greedy++ rides the shared engine for round 0 ---- *)

(* Round 0's loads feed every later round, so a single mis-charged
   owned-count would cascade into a different best subgraph; the whole
   densities trace must therefore match, not just the final answer. *)
let test_greedy_pp_differential () =
  for seed = 1 to 10 do
    let g = Helpers.random_graph ~seed:(340 + seed) ~max_n:24 ~max_m:70 () in
    List.iter
      (fun psi ->
        let s = GP.run ~rounds:4 g psi in
        List.iter
          (fun d ->
            Pool.with_pool ~sequential_below:0 d (fun pool ->
                let p = GP.run ~pool ~rounds:4 g psi in
                let tag =
                  Printf.sprintf "%s %s d=%d" (Helpers.seed_ctx seed)
                    psi.P.name d
                in
                Alcotest.(check (array int)) ("vertices " ^ tag)
                  s.GP.subgraph.D.vertices p.GP.subgraph.D.vertices;
                Alcotest.(check (float 0.)) ("density " ^ tag)
                  s.GP.subgraph.D.density p.GP.subgraph.D.density;
                check_floats ("densities " ^ tag) s.GP.densities p.GP.densities))
          domain_counts)
      patterns
  done

(* ---- CoreExact over pool-striped phases ---- *)

(* Disjoint unions of random blobs give the candidate core several
   components, so the per-component searches (each enumerating and
   building its network on the pool) and the running-best skip
   actually engage. *)
let multi_component_graph seed =
  let a = Helpers.random_graph ~seed:(400 + seed) ~max_n:14 ~max_m:40 () in
  let b = Helpers.random_graph ~seed:(430 + seed) ~max_n:14 ~max_m:40 () in
  let c = Helpers.random_graph ~seed:(460 + seed) ~max_n:10 ~max_m:30 () in
  Dsd_data.Gen.disjoint_union (Dsd_data.Gen.disjoint_union a b) c

let test_core_exact_striped_differential () =
  for seed = 1 to 10 do
    let g = multi_component_graph seed in
    List.iter
      (fun psi ->
        let s = CE.run g psi in
        List.iter
          (fun d ->
            Pool.with_pool ~sequential_below:0 d (fun pool ->
                let p = CE.run ~pool g psi in
                let tag =
                  Printf.sprintf "%s %s d=%d" (Helpers.seed_ctx seed)
                    psi.P.name d
                in
                Alcotest.(check (array int)) ("vertices " ^ tag)
                  s.CE.subgraph.D.vertices p.CE.subgraph.D.vertices;
                Alcotest.(check (float 0.)) ("density " ^ tag)
                  s.CE.subgraph.D.density p.CE.subgraph.D.density))
          domain_counts)
      patterns
  done

(* ---- qcheck: Topk_lds is pool-invariant ---- *)

(* Regions (vertex sets AND densities, in extraction order) must be
   bit-identical whatever the pool drives: the decomposition, the
   enumeration and the network build of every round. *)
let topk_pool_invariant =
  Helpers.qtest ~count:40 "topk invariant under striped pools"
    (Helpers.small_graph_arb ~max_n:14 ~max_m:40 ())
    (fun g ->
      let same (a : D.subgraph) (b : D.subgraph) =
        a.D.vertices = b.D.vertices
        && Int64.bits_of_float a.D.density = Int64.bits_of_float b.D.density
      in
      List.for_all
        (fun psi ->
          let s = (TK.run ~k:3 g psi).TK.regions in
          List.for_all
            (fun d ->
              Pool.with_pool ~sequential_below:0 d (fun pool ->
                  let p = (TK.run ~pool ~k:3 g psi).TK.regions in
                  List.length s = List.length p
                  && List.for_all2 same s p))
            [ 2; 4 ])
        patterns)

let suite =
  [
    Alcotest.test_case "peel transcript differential (30 seeds)" `Slow
      test_transcript_differential;
    Alcotest.test_case "greedy++ differential" `Slow
      test_greedy_pp_differential;
    Alcotest.test_case "coreexact striped differential" `Slow
      test_core_exact_striped_differential;
    topk_pool_invariant;
  ]
