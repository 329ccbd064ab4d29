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
    | FB.Eds -> (Dsd_clique.Instances.empty ~arity:2)
    | _ -> Dsd_core.Enumerate.instances g psi
  in
  Helpers.network_at family g psi ~instances ~alpha

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
  (* The edge network of a triangle at alpha = 1: s->v arcs carry
     deg = 2, v->t arcs 2 alpha = 2, and each edge two unit arcs. *)
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

(* The edge network ties every pinned vertex to the source by one
   infinite arc, so every cut's source side holds the pins. *)
let test_eds_pins_vertices () =
  let module F = Dsd_flow.Flow_network in
  let g = G.complete 3 in
  let instances = Dsd_clique.Instances.empty ~arity:2 in
  let at ?pinned alpha =
    Helpers.network_at ?pinned FB.Eds g P.edge ~instances ~alpha
  in
  let fb = at ~pinned:[| 0 |] 5. in
  let tied = ref [] in
  F.iter_arcs_from fb.FB.net fb.FB.source ~f:(fun e ->
      if F.arc_cap fb.FB.net e = infinity then
        tied := (F.arc_dst fb.FB.net e - 1) :: !tied);
  Alcotest.(check (list int)) "one infinite source arc, to the pin" [ 0 ] !tied;
  (* At alpha = 5 no set beats its own size, so the unpinned side is
     empty and the pinned one is the pin alone; at alpha = 0.5 the
     triangle (density 1) joins it. *)
  Alcotest.(check (array int)) "unpinned side" [||] (FB.solve (at 5.));
  Alcotest.(check (array int)) "pinned side holds the pin" [| 0 |] (FB.solve fb);
  Alcotest.(check (array int)) "pinned side below rho" [| 0; 1; 2 |]
    (FB.solve (at ~pinned:[| 0 |] 0.5));
  Alcotest.(check int) "empty pin set builds" 5
    (FB.prepare ~pinned:[||] FB.Eds g P.edge ~instances).FB.node_count

let enumerate_dispatch_prop g =
  (* All enumeration paths agree on counts. *)
  List.for_all
    (fun (psi : P.t) ->
      Dsd_core.Enumerate.count g psi = Dsd_pattern.Match.count g psi
      && (Dsd_core.Enumerate.instances g psi).Dsd_clique.Instances.count
         = Dsd_core.Enumerate.count g psi
      && Dsd_core.Enumerate.degrees g psi = Dsd_pattern.Match.degrees g psi)
    [ P.triangle; P.star 2; P.diamond; P.c3_star ]

let test_auto_family () =
  Alcotest.(check bool) "edge -> Eds" true (FB.auto_family P.edge = FB.Eds);
  Alcotest.(check bool) "triangle -> Clique_flow" true
    (FB.auto_family P.triangle = FB.Clique_flow);
  Alcotest.(check bool) "paw -> Pds" true (FB.auto_family P.c3_star = FB.Pds)

(* The clique network's shape against brute force.  Node count
   n + lambda + 2, with lambda the distinct (h-1)-subsets of the
   h-cliques; one unit arc from each member v of each instance to the
   node of (instance - v); infinite arcs from each subset node to
   exactly its members; source arcs of cap deg(v), plus an infinite one
   per pinned vertex.  Then at three alphas the min-cut side equals the
   residual reachability of an Edmonds-Karp max flow on a second copy.
   Alphas are multiples of 1/4, so every capacity and flow is exact. *)
let clique_shape name g ~h ~pinned =
  let module F = Dsd_flow.Flow_network in
  let fail fmt = Alcotest.failf ("%s h=%d: " ^^ fmt) name h in
  let psi = P.clique h in
  let n = G.n g in
  let instances = Dsd_core.Enumerate.instances g psi in
  let insts =
    List.init instances.Dsd_clique.Instances.count
      (Dsd_clique.Instances.get instances)
  in
  let minus inst v = List.filter (( <> ) v) (Array.to_list inst) in
  let subsets = Hashtbl.create 64 in
  List.iter
    (fun inst -> Array.iter (fun v -> Hashtbl.replace subsets (minus inst v) ()) inst)
    insts;
  let lambda = Hashtbl.length subsets in
  let prepare alpha =
    Helpers.network_at ~pinned FB.Clique_flow g psi ~instances ~alpha
  in
  let fb = prepare 1. in
  let net = fb.FB.net in
  if fb.FB.node_count <> n + lambda + 2 || F.node_count net <> n + lambda + 2
  then fail "%d nodes, expected %d" fb.FB.node_count (n + lambda + 2);
  (* Forward arcs (even ids) leaving [x], as (head, cap). *)
  let out x =
    let acc = ref [] in
    F.iter_arcs_from net x ~f:(fun e ->
        if e land 1 = 0 then acc := (F.arc_dst net e, F.arc_cap net e) :: !acc);
    List.rev !acc
  in
  let is_vertex x = x >= 1 && x <= n in
  let is_subset x = x > n && x <= n + lambda in
  let members = Array.make (n + lambda + 2) [] in
  for x = n + 1 to n + lambda do
    let arcs = out x in
    if List.exists (fun (y, c) -> c <> infinity || not (is_vertex y)) arcs then
      fail "subset node %d has an arc that is not infinite to a vertex" x;
    let ms = List.sort compare (List.map (fun (y, _) -> y - 1) arcs) in
    if not (Hashtbl.mem subsets ms) then fail "node %d is no (h-1)-subset" x;
    members.(x) <- ms
  done;
  let named = Array.to_list (Array.sub members (n + 1) lambda) in
  if List.length (List.sort_uniq compare named) <> lambda then
    fail "subset nodes are not distinct";
  let deg = Dsd_clique.Instances.degrees ~n instances in
  for v = 0 to n - 1 do
    let units =
      List.filter_map
        (fun (y, c) ->
          if is_subset y then
            if c = 1. then Some members.(y)
            else fail "vertex %d: arc of cap %g to a subset" v c
          else if y = fb.FB.sink then None
          else fail "vertex %d: arc to node %d" v y)
        (out (v + 1))
    in
    let expected =
      List.filter_map
        (fun inst -> if Array.mem v inst then Some (minus inst v) else None)
        insts
    in
    if List.sort compare units <> List.sort compare expected then
      fail "vertex %d: unit arcs differ from its instances" v;
    let finite, inf =
      List.partition (fun (_, c) -> c < infinity)
        (List.filter (fun (y, _) -> y = v + 1) (out fb.FB.source))
    in
    let cap = List.fold_left (fun a (_, c) -> a +. c) 0. finite in
    if cap <> float_of_int deg.(v) || List.length finite > 1 then
      fail "vertex %d: source cap %g, degree %d" v cap deg.(v);
    if (inf <> []) <> Array.mem v pinned || List.length inf > 1 then
      fail "vertex %d: pinned arc mismatch" v
  done;
  let rho = float_of_int (List.length insts) /. float_of_int (max 1 n) in
  List.iter
    (fun q ->
      let alpha = Float.of_int (int_of_float (4. *. q *. rho)) /. 4. in
      let dinic = FB.cut (prepare alpha) ~f:(fun _ side -> side) in
      let ek = prepare alpha in
      ignore (Dsd_check.Edmonds_karp.max_flow ek.FB.net ~s:ek.FB.source ~t:ek.FB.sink);
      let side = Array.make (F.node_count ek.FB.net) false in
      let queue = Queue.create () in
      side.(ek.FB.source) <- true;
      Queue.add ek.FB.source queue;
      while not (Queue.is_empty queue) do
        let u = Queue.pop queue in
        F.iter_arcs_from ek.FB.net u ~f:(fun e ->
            let v = F.arc_dst ek.FB.net e in
            if (not side.(v)) && F.residual ek.FB.net e > F.eps then begin
              side.(v) <- true;
              Queue.add v queue
            end)
      done;
      if side <> dinic then fail "min-cut sides differ at alpha %g" alpha)
    [ 0.5; 1.; 1.5 ]

let test_clique_shape_brute () =
  for seed = 1 to 12 do
    let n = 8 + (seed mod 5) in
    let g = Dsd_data.Gen.er_gnp ~seed:(5100 + seed) ~n ~p:0.6 in
    let h = 2 + (seed mod 4) in
    let pinned = if seed mod 2 = 0 then [| 0; n / 2 |] else [||] in
    clique_shape (Printf.sprintf "gnp seed %d" seed) g ~h ~pinned
  done;
  let blocks = Dsd_data.Gen.disjoint_union (G.complete 8) (G.complete 10) in
  for h = 2 to 5 do
    clique_shape "K8 + K10" blocks ~h ~pinned:[||];
    clique_shape "K8 + K10 pinned" blocks ~h ~pinned:[| 3; 12 |]
  done

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
      Alcotest.test_case "eds network pins vertices to the source" `Quick
        test_eds_pins_vertices;
      Alcotest.test_case "clique network shape equals brute force" `Quick
        test_clique_shape_brute;
    ]
