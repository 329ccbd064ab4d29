(* Graph inputs shared by the workloads.

   Each graph's shape comes from a Dsd_data.Gen generator with a fixed
   shape seed; the workload seed then relabels its vertices with a
   seeded permutation (and draws the query vertices and the served
   reads).  Every seed is therefore a distinct input —
   vertex order drives degeneracy ordering, peel tie-breaks, arc order
   and augmenting-path choice — while the size of the dense regions,
   which sets the cost of an exact search, stays fixed: across seeds,
   exact_batch's probe counts are identical and its augmenting paths
   agree within 2%. *)

module G = Dsd_graph.Graph
module Gen = Dsd_data.Gen
module Prng = Dsd_util.Prng

let permutation rng n =
  let perm = Array.init n Fun.id in
  Prng.shuffle rng perm;
  perm

let relabel rng g =
  let perm = permutation rng (G.n g) in
  G.of_edges ~n:(G.n g) (Array.map (fun (u, v) -> (perm.(u), perm.(v))) (G.edges g))

(* Barabási–Albert with a clique planted over the first hubs: an AS
   topology with a dense provider core (as733). *)
let provider_core ~seed ~n ~attach ~core =
  let g = Gen.barabasi_albert ~seed ~n ~attach in
  let edges = ref (Array.to_list (G.edges g)) in
  for u = 0 to core - 1 do
    for v = u + 1 to core - 1 do
      edges := (u, v) :: !edges
    done
  done;
  G.of_edge_list ~n !edges

(* A Chung–Lu power-law backbone with a dozen planted near-cliques of
   4-7 vertices: a protein network with complexes (yeast). *)
let complexes ~seed ~n =
  let backbone = Gen.power_law_chung_lu ~seed ~n ~alpha:2.9 ~avg_deg:3.4 in
  let rng = Prng.create (seed + 1) in
  let edges = ref (Array.to_list (G.edges backbone)) in
  for _ = 1 to 12 do
    let size = 4 + Prng.int rng 4 in
    let base = Prng.int rng (n - size) in
    for i = base to base + size - 1 do
      for j = i + 1 to base + size - 1 do
        if Prng.float rng 1.0 < 0.85 then edges := (i, j) :: !edges
      done
    done
  done;
  G.of_edge_list ~n !edges
