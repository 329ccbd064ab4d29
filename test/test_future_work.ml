(* The paper's future-work features: the [49]-style sampled
   approximation with core restriction, and size-constrained
   (at-least-k) DSD. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module D = Dsd_core.Density

(* ---- Sampled_app ---- *)

let test_sampling_p1_equals_peel () =
  (* p = 1 keeps every instance, in listing order: the same peel as
     PeelApp, so the same vertex set and the same density bits. *)
  for seed = 61 to 70 do
    let g = Helpers.random_graph ~seed ~max_n:40 ~max_m:160 () in
    List.iter
      (fun psi ->
        let ctx = Printf.sprintf "%s %s" (Helpers.seed_ctx seed) psi.P.name in
        let peel = (Dsd_core.Peel_app.run g psi).Dsd_core.Peel_app.subgraph in
        let sampled =
          (Dsd_core.Sampled_app.run ~core_first:false ~seed:1 ~p:1.0 g psi)
            .Dsd_core.Sampled_app.subgraph
        in
        Alcotest.(check (array int)) (ctx ^ ": same vertex set")
          peel.D.vertices sampled.D.vertices;
        Alcotest.(check int64) (ctx ^ ": same density bits")
          (Int64.bits_of_float peel.D.density)
          (Int64.bits_of_float sampled.D.density))
      [ P.edge; P.triangle; P.clique 4 ]
  done

let sampled_never_beats_optimum_prop psi (g, seed) =
  let opt, _ = Helpers.brute_force_densest g psi in
  let r = Dsd_core.Sampled_app.run ~seed ~p:0.5 g psi in
  r.Dsd_core.Sampled_app.subgraph.D.density <= opt +. 1e-9

let sampled_core_first_no_worse_count_prop psi (g, seed) =
  (* The core restriction only shrinks the instance universe. *)
  let with_core = Dsd_core.Sampled_app.run ~core_first:true ~seed ~p:1.0 g psi in
  let without = Dsd_core.Sampled_app.run ~core_first:false ~seed ~p:1.0 g psi in
  with_core.Dsd_core.Sampled_app.total_instances
  <= without.Dsd_core.Sampled_app.total_instances

let test_sampled_deterministic_in_seed () =
  let g = Helpers.random_graph ~seed:62 ~max_n:30 ~max_m:120 () in
  let a = Dsd_core.Sampled_app.run ~seed:7 ~p:0.4 g P.triangle in
  let b = Dsd_core.Sampled_app.run ~seed:7 ~p:0.4 g P.triangle in
  Alcotest.(check int) "same sample size"
    a.Dsd_core.Sampled_app.sampled_instances
    b.Dsd_core.Sampled_app.sampled_instances;
  Helpers.check_float "same density"
    a.Dsd_core.Sampled_app.subgraph.D.density
    b.Dsd_core.Sampled_app.subgraph.D.density

let test_sampled_finds_planted_clique () =
  (* Even at p = 0.3 the planted clique dominates the sample. *)
  let g = Dsd_data.Gen.planted_clique ~seed:9 ~n:600 ~p:0.005 ~clique:16 in
  let r = Dsd_core.Sampled_app.run ~seed:5 ~p:0.3 g P.triangle in
  let set = Helpers.int_array_as_set r.Dsd_core.Sampled_app.subgraph.D.vertices in
  let planted_found =
    List.length (List.filter (fun v -> v < 16) set)
  in
  Alcotest.(check bool) "most of the clique found" true (planted_found >= 12);
  Alcotest.(check bool) "sampled fewer instances" true
    (r.Dsd_core.Sampled_app.sampled_instances
     < r.Dsd_core.Sampled_app.total_instances)

let test_sampled_validation () =
  Alcotest.check_raises "p range"
    (Invalid_argument "Sampled_app.run: p must be in (0, 1]")
    (fun () ->
      ignore (Dsd_core.Sampled_app.run ~seed:1 ~p:0. (G.complete 3) P.edge))

(* ---- At_least_k ---- *)

let at_least_k_respects_size_prop psi (g, kseed) =
  let n = G.n g in
  let k = 1 + (kseed mod n) in
  let r = Dsd_core.At_least_k.run g psi ~k in
  Array.length r.Dsd_core.At_least_k.subgraph.D.vertices >= k

(* Oracle: densest subset with >= k vertices (exhaustive). *)
let brute_at_least_k g psi k =
  let n = G.n g in
  let best = ref 0. in
  for mask = 1 to (1 lsl n) - 1 do
    let vs = ref [] in
    for v = n - 1 downto 0 do
      if mask land (1 lsl v) <> 0 then vs := v :: !vs
    done;
    let a = Array.of_list !vs in
    if Array.length a >= k then begin
      let d = Helpers.density_of_subset g psi a in
      if d > !best then best := d
    end
  done;
  !best

let at_least_k_half_approx_prop psi (g, kseed) =
  (* The peel-suffix heuristic is a 1/3-approx for edges; we check the
     weaker bound opt / (2 |V_Psi|) for all psi plus never-exceeds. *)
  let n = G.n g in
  let k = 1 + (kseed mod n) in
  let opt = brute_at_least_k g psi k in
  let r = Dsd_core.At_least_k.run g psi ~k in
  let d = r.Dsd_core.At_least_k.subgraph.D.density in
  d <= opt +. 1e-9
  && (opt = 0. || d >= opt /. (2. *. float_of_int psi.P.size) -. 1e-9)

let test_at_least_k_known () =
  (* K6 + K4 (disjoint): unconstrained optimum is the K6 (2.5); asking
     for >= 7 vertices forces a larger, sparser answer. *)
  let g = Dsd_data.Paper_graphs.two_cliques ~a:6 ~b:4 ~bridge:false in
  let unconstrained = Dsd_core.At_least_k.run g P.edge ~k:1 in
  Helpers.check_float "k=1 is the EDS" 2.5
    unconstrained.Dsd_core.At_least_k.subgraph.D.density;
  let big = Dsd_core.At_least_k.run g P.edge ~k:7 in
  Alcotest.(check bool) "size respected" true
    (Array.length big.Dsd_core.At_least_k.subgraph.D.vertices >= 7);
  (* Best 10-vertex choice is the whole graph: (15+6)/10. *)
  let all = Dsd_core.At_least_k.run g P.edge ~k:10 in
  Helpers.check_float "k=10 is everything" 2.1
    all.Dsd_core.At_least_k.subgraph.D.density

let test_at_least_k_validation () =
  let g = G.complete 3 in
  Alcotest.check_raises "k range"
    (Invalid_argument "At_least_k.run: k out of range")
    (fun () -> ignore (Dsd_core.At_least_k.run g P.edge ~k:4))

(* residual_densities coherence: entry 0 is the full density and the
   tracked best matches the array max. *)
let residual_density_array_prop psi g =
  let d = Dsd_core.Clique_core.decompose ~track_density:true g psi in
  let arr = d.Dsd_core.Clique_core.residual_densities in
  let n = G.n g in
  if n = 0 then true
  else begin
    let full =
      float_of_int d.Dsd_core.Clique_core.mu_total /. float_of_int n
    in
    Float.abs (arr.(0) -. full) < 1e-9
    && Float.abs
         (Array.fold_left max 0. arr
          -. d.Dsd_core.Clique_core.best_residual_density)
       < 1e-9
  end

let arb_graph_k =
  QCheck.pair (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ()) QCheck.small_int

let suite =
  [
    Alcotest.test_case "sampling p=1 = peel" `Quick test_sampling_p1_equals_peel;
    Alcotest.test_case "sampled deterministic" `Quick test_sampled_deterministic_in_seed;
    Alcotest.test_case "sampled planted clique" `Slow test_sampled_finds_planted_clique;
    Alcotest.test_case "sampled validation" `Quick test_sampled_validation;
    Alcotest.test_case "at-least-k known" `Quick test_at_least_k_known;
    Alcotest.test_case "at-least-k validation" `Quick test_at_least_k_validation;
  ]
  @ List.concat_map
      (fun (name, psi) ->
        [
          Helpers.qtest ~count:20 ("sampled <= optimum: " ^ name)
            arb_graph_k (sampled_never_beats_optimum_prop psi);
          Helpers.qtest ~count:20 ("core-first shrinks universe: " ^ name)
            arb_graph_k (sampled_core_first_no_worse_count_prop psi);
          Helpers.qtest ~count:25 ("at-least-k size: " ^ name)
            arb_graph_k (at_least_k_respects_size_prop psi);
          Helpers.qtest ~count:20 ("at-least-k quality: " ^ name)
            arb_graph_k (at_least_k_half_approx_prop psi);
          Helpers.qtest ~count:20 ("residual density array: " ^ name)
            (Helpers.small_graph_arb ~max_n:12 ~max_m:36 ())
            (residual_density_array_prop psi);
        ])
      [ ("edge", P.edge); ("triangle", P.triangle); ("2-star", P.star 2) ]
