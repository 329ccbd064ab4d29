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
  Helpers.check_float "max flow" 23. (Dsd_flow.Edmonds_karp.max_flow net ~s:0 ~t:5)

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
  let fb = Dsd_flow.Edmonds_karp.max_flow net_b ~s ~t in
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
        float_of_int (Array.length instances) /. float_of_int (Dsd_graph.Graph.n g)
      in
      let network = (FB.prepare FB.Clique_flow g psi ~instances ~alpha).network in
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
  ]
