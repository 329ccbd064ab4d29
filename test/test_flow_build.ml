(* Flow-network constructions: Lemma 14 (the min-cut decides "exists a
   subgraph denser than alpha") for all three families, decode
   round-trips, and the Density/Enumerate helpers. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module FB = Dsd_core.Flow_build
module D = Dsd_core.Density

(* Does g contain a subgraph with psi-density strictly above alpha?
   (exhaustive, n <= 12). *)
(* The network of [family] at [alpha], built in one go. *)
let network family g psi ~alpha =
  let instances =
    match family with
    | FB.Eds -> [||]
    | _ -> Dsd_core.Enumerate.instances g psi
  in
  (FB.prepare family g psi ~instances ~alpha).network

let exists_denser g psi alpha =
  let n = G.n g in
  let found = ref false in
  for mask = 1 to (1 lsl n) - 1 do
    if not !found then begin
      let vs = ref [] in
      for v = n - 1 downto 0 do
        if mask land (1 lsl v) <> 0 then vs := v :: !vs
      done;
      if Helpers.density_of_subset g psi (Array.of_list !vs) > alpha +. 1e-9
      then found := true
    end
  done;
  !found

let lemma14_family family psi (g, alpha) =
  if G.n g = 0 then true
  else begin
    let s_side = FB.solve (network family g psi ~alpha) in
    let expect = exists_denser g psi alpha in
    (* Exact boundary (density exactly alpha) may legitimately return a
       non-empty source side of equal density; only the two strict
       directions are required. *)
    if expect then Array.length s_side > 0
    else
      Array.length s_side = 0
      || Helpers.density_of_subset g psi s_side >= alpha -. 1e-9
  end

(* S-side density >= alpha whenever non-empty (the witness-quality
   property CoreExact's convergence rests on). *)
let witness_density_family family psi (g, alpha) =
  if G.n g = 0 then true
  else begin
    let s_side = FB.solve (network family g psi ~alpha) in
    Array.length s_side = 0
    || Helpers.density_of_subset g psi s_side >= alpha -. 1e-6
  end

let arb_graph_alpha =
  QCheck.make
    ~print:(fun (g, alpha) ->
      Format.asprintf "%a alpha=%.3f" G.pp g alpha)
    QCheck.Gen.(
      pair (Helpers.small_graph_gen ~max_n:9 ~max_m:22 ()) (float_bound_inclusive 3.0))

let test_eds_capacities () =
  (* Goldberg network of a triangle at alpha = 1: s->v arcs carry m,
     v->t arcs carry m + 2 alpha - deg = 3 + 2 - 2 = 3. *)
  let g = G.complete 3 in
  let fb = network FB.Eds g P.edge ~alpha:1.0 in
  Alcotest.(check int) "node count" 5 fb.FB.node_count;
  let module F = Dsd_flow.Flow_network in
  Alcotest.(check int) "arcs: 3 s->v, 3 v->t, 6 edge arcs" 12
    (F.edge_count fb.FB.net)

let test_clique_network_shape () =
  (* Figure 2 / Example 1: triangle network on the 4-vertex graph has
     s, 4 vertex nodes, edge nodes for the (h-1)-cliques extendable to
     triangles, t.  Only the triangle (B,C,D) exists, so its 3 edges
     become nodes. *)
  let g = Dsd_data.Paper_graphs.figure2 in
  let fb = network FB.Clique_flow g P.triangle ~alpha:0.5 in
  Alcotest.(check int) "nodes = 2 + 4 + 3" 9 fb.FB.node_count

let test_solve_decodes_vertices () =
  let g = Dsd_data.Paper_graphs.two_cliques ~a:5 ~b:3 ~bridge:false in
  (* K5 has edge density 2; alpha = 1.5 must expose it. *)
  let fb = network FB.Eds g P.edge ~alpha:1.5 in
  let side = FB.solve fb in
  Alcotest.(check (list int)) "source side = K5" [ 0; 1; 2; 3; 4 ]
    (Helpers.int_array_as_set side)

let test_density_helpers () =
  Helpers.check_float "min gap" (1. /. 20.) (D.min_gap 5);
  Helpers.check_float "min gap degenerate" 1. (D.min_gap 1);
  let a = { D.vertices = [| 0 |]; density = 1. } in
  let b = { D.vertices = [| 1 |]; density = 2. } in
  Alcotest.(check bool) "better picks denser" true (D.better a b == b);
  Alcotest.(check bool) "ties favour first" true (D.better b b == b);
  Helpers.check_float "empty" 0. D.empty.D.density

let test_density_of_vertices () =
  let g = Dsd_data.Paper_graphs.eds_vs_cds in
  let sg = D.of_vertices g P.triangle [| 7; 8; 9; 10 |] in
  Helpers.check_float "K4 triangle density" 1.0 sg.D.density;
  Alcotest.(check (array int)) "sorted" [| 7; 8; 9; 10 |] sg.D.vertices;
  let path = Dsd_data.Paper_graphs.path 4 in
  let sg = D.of_vertices path P.edge [| 2; 0; 2 |] in
  Alcotest.(check (array int)) "duplicates dropped" [| 0; 2 |] sg.D.vertices

(* Pinned searches use the generic networks (Parametric.pinned_family);
   the Goldberg construction has no pinning analysis. *)
let test_eds_rejects_pinned () =
  let g = G.complete 3 in
  Alcotest.check_raises "pinned Eds"
    (Invalid_argument "Flow_build.prepare: the Eds network cannot pin vertices")
    (fun () ->
      ignore (FB.prepare ~pinned:[| 0 |] FB.Eds g P.edge ~instances:[||] ~alpha:1.));
  Alcotest.(check int) "empty pin set builds" 5
    (FB.prepare ~pinned:[||] FB.Eds g P.edge ~instances:[||] ~alpha:1.)
      .FB.network.FB.node_count

let enumerate_dispatch_prop g =
  (* All enumeration paths agree on counts. *)
  List.for_all
    (fun (psi : P.t) ->
      Dsd_core.Enumerate.count g psi = Dsd_pattern.Match.count g psi
      && Array.length (Dsd_core.Enumerate.instances g psi)
         = Dsd_core.Enumerate.count g psi
      && Dsd_core.Enumerate.degrees g psi = Dsd_pattern.Match.degrees g psi)
    [ P.triangle; P.star 2; P.diamond; P.c3_star ]

let test_auto_family () =
  Alcotest.(check bool) "edge -> Eds" true (FB.auto_family P.edge = FB.Eds);
  Alcotest.(check bool) "triangle -> Clique_flow" true
    (FB.auto_family P.triangle = FB.Clique_flow);
  Alcotest.(check bool) "paw -> Pds" true (FB.auto_family P.c3_star = FB.Pds)

let suite =
  [
    Alcotest.test_case "eds network capacities" `Quick test_eds_capacities;
    Alcotest.test_case "clique network shape (fig 2)" `Quick test_clique_network_shape;
    Alcotest.test_case "solve decodes vertices" `Quick test_solve_decodes_vertices;
    Alcotest.test_case "density helpers" `Quick test_density_helpers;
    Alcotest.test_case "density of vertices" `Quick test_density_of_vertices;
    Alcotest.test_case "auto family" `Quick test_auto_family;
    Helpers.qtest ~count:40 "enumerate dispatch agreement"
      (Helpers.small_graph_arb ~max_n:9 ~max_m:22 ())
      enumerate_dispatch_prop;
  ]
  @ List.concat_map
      (fun (fname, family, psi) ->
        [
          Helpers.qtest ~count:40
            (Printf.sprintf "lemma 14 (%s)" fname)
            arb_graph_alpha (lemma14_family family psi);
          Helpers.qtest ~count:40
            (Printf.sprintf "witness density (%s)" fname)
            arb_graph_alpha (witness_density_family family psi);
        ])
      [ ("eds", FB.Eds, P.edge);
        ("clique h=3", FB.Clique_flow, P.triangle);
        ("clique h=2", FB.Clique_flow, P.edge);
        ("pds paw", FB.Pds, P.c3_star);
        ("pds-grouped C4", FB.Pds_grouped, P.diamond) ]
  @ [
      Alcotest.test_case "eds network rejects pinned vertices" `Quick
        test_eds_rejects_pinned;
    ]
