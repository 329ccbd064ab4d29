(* Max-flow / min-cut tests: textbook instances, Dinic vs Edmonds-Karp
   cross-check, and max-flow = min-cut-capacity on random networks. *)

module F = Dsd_flow.Flow_network
module FB = Dsd_core.Flow_build
module Prng = Dsd_util.Prng

(* CLRS figure 26.1-style classic network with max flow 23. *)
let clrs_network () =
  let net = F.create 6 in
  let e src dst cap = ignore (F.add_edge net ~src ~dst ~cap) in
  e 0 1 16.; e 0 2 13.;
  e 1 3 12.; e 2 1 4.; e 2 4 14.;
  e 3 2 9.; e 3 5 20.; e 4 3 7.; e 4 5 4.;
  net

let test_dinic_clrs () =
  let net = clrs_network () in
  Helpers.check_float "max flow" 23. (Dsd_flow.Dinic.max_flow net ~s:0 ~t:5)

let test_edmonds_karp_clrs () =
  let net = clrs_network () in
  Helpers.check_float "max flow" 23. (Dsd_check.Edmonds_karp.max_flow net ~s:0 ~t:5)

let test_disconnected () =
  let net = F.create 4 in
  ignore (F.add_edge net ~src:0 ~dst:1 ~cap:5.);
  ignore (F.add_edge net ~src:2 ~dst:3 ~cap:5.);
  Helpers.check_float "no path" 0. (Dsd_flow.Dinic.max_flow net ~s:0 ~t:3)

let test_single_edge () =
  let net = F.create 2 in
  ignore (F.add_edge net ~src:0 ~dst:1 ~cap:2.5);
  Helpers.check_float "single" 2.5 (Dsd_flow.Dinic.max_flow net ~s:0 ~t:1)

let test_parallel_edges () =
  let net = F.create 2 in
  ignore (F.add_edge net ~src:0 ~dst:1 ~cap:1.);
  ignore (F.add_edge net ~src:0 ~dst:1 ~cap:2.);
  Helpers.check_float "parallel" 3. (Dsd_flow.Dinic.max_flow net ~s:0 ~t:1)

let test_infinite_capacity_path () =
  let net = F.create 3 in
  ignore (F.add_edge net ~src:0 ~dst:1 ~cap:infinity);
  ignore (F.add_edge net ~src:1 ~dst:2 ~cap:7.);
  Helpers.check_float "bottleneck" 7. (Dsd_flow.Dinic.max_flow net ~s:0 ~t:2)

let test_min_cut_source_side () =
  let net = clrs_network () in
  let value, side = Dsd_flow.Min_cut.solve net ~s:0 ~t:5 in
  Helpers.check_float "value" 23. value;
  Alcotest.(check bool) "s in S" true side.(0);
  Alcotest.(check bool) "t not in S" false side.(5);
  Helpers.check_float "cut capacity = flow" value
    (Dsd_flow.Min_cut.cut_capacity net side)

let test_reset_flow () =
  let net = clrs_network () in
  ignore (Dsd_flow.Dinic.max_flow net ~s:0 ~t:5);
  F.reset_flow net;
  Helpers.check_float "resolve after reset" 23.
    (Dsd_flow.Dinic.max_flow net ~s:0 ~t:5)

(* Random network: Dinic = Edmonds-Karp, and both equal the capacity of
   the extracted cut. *)
let random_network seed =
  let r = Prng.create seed in
  let n = 2 + Prng.int r 12 in
  let net_a = F.create n and net_b = F.create n in
  let arcs = 1 + Prng.int r 40 in
  for _ = 1 to arcs do
    let src = Prng.int r n and dst = Prng.int r n in
    if src <> dst then begin
      let cap = float_of_int (1 + Prng.int r 20) in
      ignore (F.add_edge net_a ~src ~dst ~cap);
      ignore (F.add_edge net_b ~src ~dst ~cap)
    end
  done;
  (net_a, net_b, n)

let solvers_agree_prop seed =
  let net_a, net_b, n = random_network seed in
  let s = 0 and t = n - 1 in
  let fa = Dsd_flow.Dinic.max_flow net_a ~s ~t in
  let fb = Dsd_check.Edmonds_karp.max_flow net_b ~s ~t in
  Float.abs (fa -. fb) < 1e-6

let flow_equals_cut_prop seed =
  let net, _, n = random_network seed in
  let s = 0 and t = n - 1 in
  let value, side = Dsd_flow.Min_cut.solve net ~s ~t in
  Float.abs (value -. Dsd_flow.Min_cut.cut_capacity net side) < 1e-6

let test_add_edge_validation () =
  let net = F.create 2 in
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Flow_network.add_edge: negative capacity")
    (fun () -> ignore (F.add_edge net ~src:0 ~dst:1 ~cap:(-1.)));
  Alcotest.check_raises "node range"
    (Invalid_argument "Flow_network.add_edge: node out of range")
    (fun () -> ignore (F.add_edge net ~src:0 ~dst:5 ~cap:1.))

(* A re-solve on a built network allocates O(node count) scratch and
   nothing per arc: after a first solve (which builds the network's
   index), [reset_flow] + one Dinic pass + the residual BFS must stay
   under 8 words per node in total and 256 minor words.  The networks
   have over 256 nodes, so every per-node array is a major-heap block
   and the minor bound catches any per-arc or per-augmentation
   allocation. *)
let test_resolve_allocation () =
  let graphs =
    [ ("ssca", Dsd_data.Gen.ssca ~seed:4001 ~n:400 ~max_clique:8);
      ("er", Dsd_data.Gen.er_gnp ~seed:4002 ~n:300 ~p:0.06);
      ("ba", Dsd_data.Gen.barabasi_albert ~seed:4003 ~n:500 ~attach:4) ]
  in
  List.iter
    (fun (name, g) ->
      let psi = Dsd_pattern.Pattern.triangle in
      let instances = Dsd_core.Enumerate.instances g psi in
      let alpha =
        float_of_int instances.Dsd_clique.Instances.count
        /. float_of_int (Dsd_graph.Graph.n g)
      in
      let network = Helpers.network_at FB.Clique_flow g psi ~instances ~alpha in
      let { FB.net; source = s; sink = t; _ } = network in
      let nodes = F.node_count net in
      if nodes <= 256 then Alcotest.failf "%s: only %d nodes" name nodes;
      ignore (FB.solve network);
      F.reset_flow net;
      let minor0 = Gc.minor_words () in
      let total0 = Gc.allocated_bytes () in
      let flow = Dsd_flow.Dinic.max_flow net ~s ~t in
      let side = Dsd_flow.Min_cut.source_side net ~s in
      let total1 = Gc.allocated_bytes () in
      let minor1 = Gc.minor_words () in
      if not (flow > 0. && side.(s)) then Alcotest.failf "%s: trivial solve" name;
      let words = (total1 -. total0) /. float_of_int (Sys.word_size / 8) in
      if words > 8. *. float_of_int nodes then
        Alcotest.failf "%s: re-solve allocated %.0f words for %d nodes" name words
          nodes;
      if minor1 -. minor0 > 256. then
        Alcotest.failf "%s: re-solve allocated %.0f minor words" name
          (minor1 -. minor0))
    graphs

(* The three graphs the allocation tests share, each with more than 256
   nodes in its triangle network. *)
let allocation_graphs () =
  [ ("ssca", Dsd_data.Gen.ssca ~seed:4001 ~n:400 ~max_clique:8);
    ("er", Dsd_data.Gen.er_gnp ~seed:4002 ~n:300 ~p:0.06);
    ("ba", Dsd_data.Gen.barabasi_albert ~seed:4003 ~n:500 ~attach:4) ]

(* An exact probe on a built arena re-capacitates every arc in one pass
   and solves on the network's own scratch: after a first probe builds
   the triangle network, a second probe at the graph's density
   allocates at most 1,024 minor words, whatever the arc count (the
   side array and a few closures; nothing per arc or per node). *)
let test_probe_allocation () =
  List.iter
    (fun (name, g) ->
      let psi = Dsd_pattern.Pattern.triangle in
      let a = Dsd_core.Parametric.arena FB.Clique_flow g psi in
      let num = Dsd_core.Parametric.total a and den = Dsd_graph.Graph.n g in
      let first = Dsd_core.Parametric.probe_rational a ~num ~den in
      let w0 = Gc.minor_words () in
      let second = Dsd_core.Parametric.probe_rational a ~num ~den in
      let words = Gc.minor_words () -. w0 in
      Alcotest.(check (array int)) (name ^ ": same side") first second;
      if Array.length second = 0 then Alcotest.failf "%s: empty side" name;
      if words > 1024. then
        Alcotest.failf "%s: a second probe allocated %.0f minor words" name
          words)
    (allocation_graphs ())

(* With the index built, a Dinic pass plus the residual BFS allocate
   only the source-side array, one header and one word per node: the
   levels, cursors, DFS limits and BFS queue are the network's
   scratch. *)
let test_resolve_scratch () =
  List.iter
    (fun (name, g) ->
      let psi = Dsd_pattern.Pattern.triangle in
      let instances = Dsd_core.Enumerate.instances g psi in
      let alpha =
        float_of_int instances.Dsd_clique.Instances.count
        /. float_of_int (Dsd_graph.Graph.n g)
      in
      let network = Helpers.network_at FB.Clique_flow g psi ~instances ~alpha in
      let { FB.net; source = s; sink = t; _ } = network in
      let nodes = F.node_count net in
      ignore (FB.solve network);
      F.reset_flow net;
      let b0 = Gc.allocated_bytes () in
      let flow = Dsd_flow.Dinic.max_flow net ~s ~t in
      let side = Dsd_flow.Min_cut.source_side net ~s in
      let words =
        (Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8)
      in
      if not (flow > 0. && side.(s)) then Alcotest.failf "%s: trivial solve" name;
      if words > 2. *. float_of_int nodes then
        Alcotest.failf "%s: re-solve allocated %.0f words for %d nodes" name
          words nodes)
    (allocation_graphs ())

(* Ten disjoint K_40s: n + m = 8,200, with 98,800 triangles and
   913,900 4-cliques. *)
let ten_k40s () =
  let blocks = 10 and k = 40 in
  let edges = ref [] in
  for b = 0 to blocks - 1 do
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        edges := ((b * k) + i, (b * k) + j) :: !edges
      done
    done
  done;
  Dsd_graph.Graph.of_edge_list ~n:(blocks * k) !edges

(* Listing allocates O(n + m) minor words, whatever the clique
   count: the DAG, the per-depth candidate buffers and the output
   blocks are allocated per call (the large ones straight in the
   major heap), and the recursion itself allocates nothing. *)
let test_listing_allocation () =
  let g = ten_k40s () in
  let size = Dsd_graph.Graph.n g + Dsd_graph.Graph.m g in
  Alcotest.(check int) "n + m" 8200 size;
  let bound = (4 * size) + 4096 in
  let minor f =
    let w0 = Gc.minor_words () in
    let r = f () in
    (r, int_of_float (Gc.minor_words () -. w0))
  in
  List.iter
    (fun (h, expected) ->
      let c, words = minor (fun () -> Dsd_clique.Kclist.count g ~h) in
      Alcotest.(check int) (Printf.sprintf "%d-cliques counted" h) expected c;
      if words > bound then
        Alcotest.failf "count h=%d allocated %d minor words (bound %d)" h words
          bound;
      let psi = Dsd_pattern.Pattern.clique h in
      let insts, words =
        minor (fun () -> Dsd_core.Enumerate.instances g psi)
      in
      Alcotest.(check int) (Printf.sprintf "%d-cliques listed" h) expected
        insts.Dsd_clique.Instances.count;
      if words > bound then
        Alcotest.failf "instances h=%d allocated %d minor words (bound %d)" h
          words bound)
    [ (3, 98_800); (4, 913_900) ]

(* The peel allocates O(n) minor words, whatever the instance count:
   on an engine that is already built, [peel_canonical] retires each
   vertex through the store's own posting walk, or for edges the CSR
   row, so only per-vertex bookkeeping is allocated.  On the ten K_40s
   (n = 400) every clique size shares one bound. *)
let test_peel_allocation () =
  let g = ten_k40s () in
  let n = Dsd_graph.Graph.n g in
  let bound = (32 * n) + 4096 in
  List.iter
    (fun h ->
      let e = Dsd_core.Clique_core.engine g (Dsd_pattern.Pattern.clique h) in
      let w0 = Gc.minor_words () in
      let d = Dsd_core.Clique_core.peel_canonical ~track_density:true e in
      let words = int_of_float (Gc.minor_words () -. w0) in
      Alcotest.(check int)
        (Printf.sprintf "kmax h=%d" h)
        (Dsd_util.Binom.choose 39 (h - 1))
        d.Dsd_core.Clique_core.kmax;
      if words > bound then
        Alcotest.failf "peel h=%d allocated %d minor words (bound %d)" h words
          bound)
    [ 2; 3; 4 ]

let suite =
  [
    Alcotest.test_case "dinic clrs" `Quick test_dinic_clrs;
    Alcotest.test_case "edmonds-karp clrs" `Quick test_edmonds_karp_clrs;
    Alcotest.test_case "disconnected" `Quick test_disconnected;
    Alcotest.test_case "single edge" `Quick test_single_edge;
    Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
    Alcotest.test_case "infinite capacity" `Quick test_infinite_capacity_path;
    Alcotest.test_case "min cut source side" `Quick test_min_cut_source_side;
    Alcotest.test_case "reset flow" `Quick test_reset_flow;
    Alcotest.test_case "add_edge validation" `Quick test_add_edge_validation;
    Alcotest.test_case "re-solve allocates no per-arc memory" `Quick
      test_resolve_allocation;
    Helpers.qtest ~count:200 "dinic = edmonds-karp" QCheck.small_int solvers_agree_prop;
    Helpers.qtest ~count:200 "flow = cut capacity" QCheck.small_int flow_equals_cut_prop;
    Alcotest.test_case "listing allocates O(n + m) minor words" `Quick
      test_listing_allocation;
    Alcotest.test_case "the peel allocates O(n) minor words" `Quick
      test_peel_allocation;
    Alcotest.test_case "a second exact probe allocates nothing per arc" `Quick
      test_probe_allocation;
    Alcotest.test_case "re-solve allocates only the side array" `Quick
      test_resolve_scratch;
  ]
