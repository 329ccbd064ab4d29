(* Differential testing: every exact solver configuration must agree
   on the optimal h-clique density, and both max-flow engines must
   agree on the max-flow value.  Seeded Dsd_data.Gen graphs keep every
   run reproducible. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module D = Dsd_core.Density
module CE = Dsd_core.Core_exact
module F = Dsd_flow.Flow_network

let pruning_combos =
  List.concat_map
    (fun p1 -> List.map (fun p2 -> { CE.p1; p2 }) [ false; true ])
    [ false; true ]

let combo_name (p : CE.prunings) =
  Printf.sprintf "p1=%b,p2=%b" p.CE.p1 p.CE.p2

let seeded_graphs =
  List.init 20 (fun seed ->
      (seed, Helpers.random_graph ~seed ~max_n:12 ~max_m:28 ()))

(* All Core_exact configurations against the flow-only baseline. *)
let test_exact_solvers_agree () =
  List.iter
    (fun (seed, g) ->
      List.iter
        (fun h ->
          let psi = P.clique h in
          let ctx = Printf.sprintf "%s h=%d" (Helpers.seed_ctx seed) h in
          let reference =
            (Dsd_core.Exact.run g psi).Dsd_core.Exact.subgraph.D.density
          in
          List.iter
            (fun prunings ->
              let r = CE.run ~prunings g psi in
              Helpers.check_float
                (ctx ^ " CoreExact " ^ combo_name prunings)
                reference r.CE.subgraph.D.density)
            pruning_combos;
          (* The instance-node (PExact) and construct+ (CorePExact)
             networks solve the same clique problem. *)
          let pexact =
            Dsd_core.Exact.run ~family:Dsd_core.Flow_build.Pds g psi
          in
          Helpers.check_float (ctx ^ " PExact") reference
            pexact.Dsd_core.Exact.subgraph.D.density;
          let corepexact = Dsd_core.Core_pexact.run g psi in
          Helpers.check_float (ctx ^ " CorePExact") reference
            corepexact.CE.subgraph.D.density)
        [ 2; 3 ])
    seeded_graphs

(* Exact solvers also agree with the exhaustive subset oracle. *)
let test_exact_matches_brute_force () =
  List.iter
    (fun (seed, g) ->
      List.iter
        (fun h ->
          let psi = P.clique h in
          let opt, _ = Helpers.brute_force_densest g psi in
          let r = CE.run g psi in
          Helpers.check_float
            (Printf.sprintf "%s h=%d vs brute force" (Helpers.seed_ctx seed) h)
            opt r.CE.subgraph.D.density)
        [ 2; 3 ])
    seeded_graphs

(* Random flow networks: node count, arc density and float capacities
   drawn from a seeded PRNG; Dinic and Edmonds-Karp must compute the
   same max-flow value. *)
let random_network rng =
  let n = 2 + Dsd_util.Prng.int rng 14 in
  let arcs = Dsd_util.Prng.int rng (4 * n) in
  let net = F.create n in
  for _ = 1 to arcs do
    let u, v = Dsd_util.Prng.pair_distinct rng n in
    let cap = Dsd_util.Prng.float rng 10. in
    ignore (F.add_edge net ~src:u ~dst:v ~cap)
  done;
  net

let test_dinic_vs_edmonds_karp () =
  for seed = 0 to 24 do
    (* Two identical copies: max_flow mutates the residual state. *)
    let a = random_network (Helpers.rng seed) in
    let b = random_network (Helpers.rng seed) in
    let n = F.node_count a in
    let s = 0 and t = n - 1 in
    let fa = Dsd_flow.Dinic.max_flow a ~s ~t in
    let fb = Dsd_check.Edmonds_karp.max_flow b ~s ~t in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "%s max flow" (Helpers.seed_ctx seed))
      fa fb
  done

let suite =
  [
    Alcotest.test_case "exact solver configurations agree (h=2,3)" `Quick
      test_exact_solvers_agree;
    Alcotest.test_case "exact solvers match brute force" `Quick
      test_exact_matches_brute_force;
    Alcotest.test_case "dinic = edmonds-karp on random networks" `Quick
      test_dinic_vs_edmonds_karp;
  ]
