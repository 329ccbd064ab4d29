(* Density-friendly (locally-dense) decomposition: chain invariants,
   first level = densest subgraph, exact first-level check against
   brute force, and known shapes.  Every comparison is exact: densities
   are quotients of small integers, IEEE division rounds correctly, so
   equal rationals give equal floats and rounding preserves order. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module LD = Dsd_core.Ld_decomposition

let levels_partition_v_prop psi g =
  let d = LD.decompose g psi in
  let all =
    List.concat_map (fun l -> Array.to_list l.LD.vertices) d.LD.levels
  in
  List.sort compare all = List.init (G.n g) Fun.id

let marginals_strictly_decreasing_prop psi g =
  let d = LD.decompose g psi in
  let rec ok = function
    | a :: (b :: _ as rest) ->
      a.LD.marginal_density > b.LD.marginal_density && ok rest
    | _ -> true
  in
  ok d.LD.levels

let first_level_is_densest_prop psi g =
  let opt, _ = Helpers.brute_force_densest g psi in
  let d = LD.decompose g psi in
  match d.LD.levels with
  | [] -> G.n g = 0
  | first :: _ ->
    first.LD.marginal_density = opt
    && (opt = 0. || Helpers.density_of_subset g psi first.LD.vertices = opt)

(* Every prefix B_i is at least as dense as any further prefix — the
   defining "density-friendly" property. *)
let prefixes_density_monotone_prop psi g =
  let d = LD.decompose g psi in
  let k = List.length d.LD.levels in
  let densities =
    List.init k (fun i ->
        Helpers.density_of_subset g psi (LD.prefix d (i + 1)))
  in
  let rec ok = function
    | a :: (b :: _ as rest) -> a >= b && ok rest
    | _ -> true
  in
  ok densities

let test_two_cliques_levels () =
  (* K6 ⊔ K4 ⊔ isolated-ish path: levels must come out K6 (2.5), then
     K4 (1.5 marginal), then the rest. *)
  let g = Dsd_data.Paper_graphs.two_cliques ~a:6 ~b:4 ~bridge:false in
  let d = LD.decompose g P.edge in
  (match d.LD.levels with
   | l1 :: l2 :: _ ->
     Alcotest.(check (list int)) "level 1 = K6" [ 0; 1; 2; 3; 4; 5 ]
       (Helpers.int_array_as_set l1.LD.vertices);
     Helpers.check_float "level 1 marginal" 2.5 l1.LD.marginal_density;
     Alcotest.(check (list int)) "level 2 = K4" [ 6; 7; 8; 9 ]
       (Helpers.int_array_as_set l2.LD.vertices);
     Helpers.check_float "level 2 marginal" 1.5 l2.LD.marginal_density
   | _ -> Alcotest.fail "expected at least two levels");
  Alcotest.(check (array int)) "prefix 1"
    [| 0; 1; 2; 3; 4; 5 |] (LD.prefix d 1)

let test_uniform_graph_single_level () =
  (* A clique decomposes into exactly one level. *)
  let d = LD.decompose (G.complete 5) P.edge in
  Alcotest.(check int) "one level" 1 (List.length d.LD.levels);
  Helpers.check_float "its marginal" 2. (List.hd d.LD.levels).LD.marginal_density

let test_no_instances_single_zero_level () =
  let d = LD.decompose (Dsd_data.Paper_graphs.path 4) P.triangle in
  Alcotest.(check int) "one level" 1 (List.length d.LD.levels);
  Helpers.check_float "zero marginal" 0.
    (List.hd d.LD.levels).LD.marginal_density

let test_triangle_ld_on_mixed () =
  (* eds_vs_cds: triangle decomposition must put K4 first (only
     triangle-carrying region). *)
  let d = LD.decompose Dsd_data.Paper_graphs.eds_vs_cds P.triangle in
  match d.LD.levels with
  | first :: _ ->
    Alcotest.(check (list int)) "K4 first" [ 7; 8; 9; 10 ]
      (Helpers.int_array_as_set first.LD.vertices)
  | [] -> Alcotest.fail "no levels"

let test_prefix_boundaries () =
  let g = Dsd_data.Paper_graphs.two_cliques ~a:6 ~b:4 ~bridge:false in
  let d = LD.decompose g P.edge in
  let t = List.length d.LD.levels in
  Alcotest.(check (array int)) "prefix 0 = B_0 = empty" [||] (LD.prefix d 0);
  Alcotest.(check (array int)) "prefix t = V"
    (Array.init 10 Fun.id) (LD.prefix d t);
  List.iter
    (fun i ->
      Alcotest.check_raises
        (Printf.sprintf "prefix %d raises" i)
        (Invalid_argument
           (Printf.sprintf
              "Ld_decomposition.prefix: index %d not in [0, %d]" i t))
        (fun () -> ignore (LD.prefix d i)))
    [ -1; t + 1 ]

(* The chain's defining property, STRICT version — exact rationals, so
   no tolerance — exercised across every fuzz generator (seeded, so
   any failure replays). *)
let test_marginals_strict_across_generators () =
  List.iter
    (fun (gen : Dsd_check.Generator.t) ->
      let rng = Helpers.rng 7001 in
      for round = 1 to 5 do
        let case = gen.Dsd_check.Generator.sample rng in
        let d = LD.decompose case.Dsd_check.Generator.graph
            case.Dsd_check.Generator.psi in
        let rec ok = function
          | a :: (b :: _ as rest) ->
            if a.LD.marginal_density <= b.LD.marginal_density then
              Alcotest.failf
                "%s round %d (%s): marginals not strictly decreasing \
                 (%.17g then %.17g) [%s]"
                gen.Dsd_check.Generator.name round (Helpers.seed_ctx 7001)
                a.LD.marginal_density b.LD.marginal_density
                case.Dsd_check.Generator.label
            else ok rest
          | _ -> ()
        in
        ok d.LD.levels
      done)
    Dsd_check.Generator.all

let suite =
  [
    Alcotest.test_case "two cliques levels" `Quick test_two_cliques_levels;
    Alcotest.test_case "prefix boundaries" `Quick test_prefix_boundaries;
    Alcotest.test_case "marginals strictly decrease (all generators)" `Quick
      test_marginals_strict_across_generators;
    Alcotest.test_case "clique single level" `Quick test_uniform_graph_single_level;
    Alcotest.test_case "no instances" `Quick test_no_instances_single_zero_level;
    Alcotest.test_case "triangle LD on mixed graph" `Quick test_triangle_ld_on_mixed;
  ]
  @ List.concat_map
      (fun (name, psi) ->
        [
          Helpers.qtest ~count:20 ("levels partition V: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (levels_partition_v_prop psi);
          Helpers.qtest ~count:20 ("marginals decreasing: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (marginals_strictly_decreasing_prop psi);
          Helpers.qtest ~count:20 ("first level densest: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (first_level_is_densest_prop psi);
          Helpers.qtest ~count:15 ("prefix densities monotone: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (prefixes_density_monotone_prop psi);
        ])
      [ ("edge", P.edge); ("triangle", P.triangle); ("C4", P.diamond) ]
