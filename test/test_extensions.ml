(* Extension modules beyond the paper's core algorithms: Greedy++,
   the Bahmani streaming approximation, truss decomposition, DOT
   export. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module D = Dsd_core.Density

(* ---- Greedy++ ---- *)

(* Greedy++ carries PeelApp's 1/|V_Psi| guarantee (round 1 is a peel,
   modulo tie-breaking, and rounds only improve the tracked best). *)
let greedy_pp_ratio_prop psi g =
  let opt, _ = Helpers.brute_force_densest g psi in
  let gpp = Dsd_core.Greedy_pp.run ~rounds:4 g psi in
  gpp.Dsd_core.Greedy_pp.subgraph.D.density
  >= (opt /. float_of_int psi.P.size) -. 1e-9

let greedy_pp_monotone_prop psi g =
  let r = Dsd_core.Greedy_pp.run ~rounds:6 g psi in
  let ds = r.Dsd_core.Greedy_pp.densities in
  let ok = ref true in
  for i = 1 to Array.length ds - 1 do
    if ds.(i) < ds.(i - 1) -. 1e-12 then ok := false
  done;
  !ok

let greedy_pp_never_beats_optimum_prop psi g =
  let opt, _ = Helpers.brute_force_densest g psi in
  let r = Dsd_core.Greedy_pp.run ~rounds:6 g psi in
  r.Dsd_core.Greedy_pp.subgraph.D.density <= opt +. 1e-9

let test_greedy_pp_converges () =
  (* On a graph where plain peeling is suboptimal, extra rounds close
     most of the gap: K_{2,x} families are the classic hard case. *)
  let g = Dsd_data.Paper_graphs.theorem1_chain 30 in
  let exact = (Dsd_core.Core_exact.run g P.edge).subgraph in
  let one = Dsd_core.Greedy_pp.run ~rounds:1 g P.edge in
  let many = Dsd_core.Greedy_pp.run ~rounds:24 g P.edge in
  Alcotest.(check bool) "more rounds at least as good" true
    (many.Dsd_core.Greedy_pp.subgraph.D.density
     >= one.Dsd_core.Greedy_pp.subgraph.D.density -. 1e-9);
  Alcotest.(check bool) "within 2% of optimum" true
    (many.Dsd_core.Greedy_pp.subgraph.D.density >= 0.98 *. exact.D.density)

let test_greedy_pp_one_round_close_to_peel () =
  (* Round 1 replays PeelApp's bucket peel exactly (all loads are
     zero), so the one-round result is bit-identical to PeelApp. *)
  let g = Helpers.random_graph ~seed:91 ~max_n:40 ~max_m:160 () in
  let peel = (Dsd_core.Peel_app.run g P.triangle).Dsd_core.Peel_app.subgraph in
  let gpp = Dsd_core.Greedy_pp.run ~rounds:1 g P.triangle in
  Alcotest.(check bool) "density equal" true
    (gpp.Dsd_core.Greedy_pp.subgraph.D.density = peel.D.density);
  Alcotest.(check (array int)) "vertices equal" peel.D.vertices
    gpp.Dsd_core.Greedy_pp.subgraph.D.vertices

(* ---- Streaming ---- *)

let streaming_ratio_prop psi (g, eps_seed) =
  let eps = 0.05 +. (float_of_int (eps_seed mod 10) /. 10.) in
  let opt, _ = Helpers.brute_force_densest g psi in
  let r = Dsd_core.Streaming.run ~eps g psi in
  let bound = opt /. (float_of_int psi.P.size *. (1. +. eps)) in
  r.Dsd_core.Streaming.subgraph.D.density >= bound -. 1e-9
  && r.Dsd_core.Streaming.subgraph.D.density <= opt +. 1e-9

let test_streaming_pass_count () =
  (* Passes are logarithmic: even a 20k-vertex graph needs few. *)
  let g = Dsd_data.Gen.barabasi_albert ~seed:7 ~n:20_000 ~attach:3 in
  let r = Dsd_core.Streaming.run ~eps:0.5 g P.edge in
  Alcotest.(check bool) "few passes" true (r.Dsd_core.Streaming.passes <= 40);
  Alcotest.(check bool) "nonempty" true
    (Array.length r.Dsd_core.Streaming.subgraph.D.vertices > 0)

let test_streaming_validation () =
  Alcotest.check_raises "eps > 0"
    (Invalid_argument "Streaming.run: eps must be positive")
    (fun () -> ignore (Dsd_core.Streaming.run ~eps:0. (G.complete 3) P.edge))

(* ---- Truss ---- *)

let test_truss_complete () =
  (* Every edge of K_n lies in n-2 triangles: the whole graph is the
     n-truss. *)
  for n = 3 to 7 do
    let t = Dsd_core.Truss.decompose (G.complete n) in
    Alcotest.(check int) (Printf.sprintf "kmax K%d" n) n (Dsd_core.Truss.kmax t);
    Alcotest.(check int) "all edges in kmax truss"
      (n * (n - 1) / 2)
      (Array.length (Dsd_core.Truss.k_truss t ~k:n))
  done

let test_truss_figure3 () =
  let g = Dsd_data.Paper_graphs.figure3_like in
  let t = Dsd_core.Truss.decompose g in
  Alcotest.(check int) "kmax" 4 (Dsd_core.Truss.kmax t);
  (* K4 edges have truss 4; the pendant triangle 3; the bridge and the
     isolated edge 2. *)
  Alcotest.(check int) "K4 edge" 4 (Dsd_core.Truss.truss_number t ~u:0 ~v:1);
  Alcotest.(check int) "triangle edge" 3 (Dsd_core.Truss.truss_number t ~u:4 ~v:5);
  Alcotest.(check int) "isolated edge" 2 (Dsd_core.Truss.truss_number t ~u:6 ~v:7);
  Alcotest.check_raises "non-edge" Not_found (fun () ->
      ignore (Dsd_core.Truss.truss_number t ~u:0 ~v:7))

(* Definition check: inside the k-truss every edge has >= k-2 triangles
   formed by k-truss edges. *)
let truss_internal_support_prop g =
  let t = Dsd_core.Truss.decompose g in
  let ok = ref true in
  for k = 3 to Dsd_core.Truss.kmax t do
    let edges = Dsd_core.Truss.k_truss t ~k in
    let sub = G.of_edges ~n:(G.n g) edges in
    Array.iter
      (fun (u, v) ->
        let c = ref 0 in
        G.iter_neighbors sub u ~f:(fun w -> if G.mem_edge sub v w then incr c);
        if !c < k - 2 then ok := false)
      edges
  done;
  !ok

(* Truss numbers are maximal: recomputing the decomposition on the
   (k+1)-truss edge set must not reveal a higher level for excluded
   edges — checked indirectly via a naive fixpoint oracle. *)
let naive_truss_numbers g =
  let m = G.m g in
  let edges = G.edges g in
  let level = Array.make (max 1 m) 2 in
  for k = 3 to G.n g + 2 do
    (* Iteratively delete edges with support < k-2; survivors are the
       k-truss. *)
    let alive = Array.make m true in
    (* Start from all edges. *)
    let changed = ref true in
    while !changed do
      changed := false;
      let sub =
        G.of_edges ~n:(G.n g)
          (Array.of_seq
             (Seq.filter_map
                (fun i -> if alive.(i) then Some edges.(i) else None)
                (Seq.init m Fun.id)))
      in
      Array.iteri
        (fun i (u, v) ->
          if alive.(i) then begin
            let c = ref 0 in
            G.iter_neighbors sub u ~f:(fun w -> if G.mem_edge sub v w then incr c);
            if !c < k - 2 then begin
              alive.(i) <- false;
              changed := true
            end
          end)
        edges
    done;
    Array.iteri (fun i a -> if a then level.(i) <- k) alive
  done;
  level

let truss_matches_oracle_prop g =
  let t = Dsd_core.Truss.decompose g in
  let expect = naive_truss_numbers g in
  let ok = ref true in
  Array.iteri
    (fun i (u, v) ->
      if Dsd_core.Truss.truss_number t ~u ~v <> expect.(i) then ok := false)
    (G.edges g);
  !ok

(* ---- DOT export ---- *)

let test_dot_export () =
  let g = Dsd_data.Paper_graphs.figure2 in
  let path = Filename.temp_file "dsd_test" ".dot" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Dsd_graph.Io.write_dot path g ~highlight:[| 1; 2; 3 |];
      let ic = open_in path in
      let len = in_channel_length ic in
      let data = really_input_string ic len in
      close_in ic;
      Alcotest.(check bool) "graph block" true
        (String.length data > 0 && String.sub data 0 5 = "graph");
      (* 3 highlighted nodes, 4 edges, 3 of them inside the triangle. *)
      let count_sub needle =
        let n = ref 0 and i = ref 0 in
        let nl = String.length needle in
        while !i + nl <= String.length data do
          if String.sub data !i nl = needle then incr n;
          incr i
        done;
        !n
      in
      Alcotest.(check int) "highlights" 3 (count_sub "fillcolor");
      Alcotest.(check int) "bold edges" 3 (count_sub "penwidth");
      Alcotest.(check int) "edges" 4 (count_sub " -- "))

let suite =
  [
    Alcotest.test_case "greedy++ converges on K2x chain" `Quick test_greedy_pp_converges;
    Alcotest.test_case "greedy++ round 1 = peel" `Quick test_greedy_pp_one_round_close_to_peel;
    Alcotest.test_case "streaming pass count" `Slow test_streaming_pass_count;
    Alcotest.test_case "streaming validation" `Quick test_streaming_validation;
    Alcotest.test_case "truss of K_n" `Quick test_truss_complete;
    Alcotest.test_case "truss of figure 3" `Quick test_truss_figure3;
    Alcotest.test_case "dot export" `Quick test_dot_export;
    Helpers.qtest ~count:30 "truss internal support"
      (Helpers.small_graph_arb ~max_n:12 ~max_m:40 ())
      truss_internal_support_prop;
    Helpers.qtest ~count:20 "truss = naive oracle"
      (Helpers.small_graph_arb ~max_n:10 ~max_m:30 ())
      truss_matches_oracle_prop;
  ]
  @ List.concat_map
      (fun (name, psi) ->
        [
          Helpers.qtest ~count:20 ("greedy++ ratio: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (greedy_pp_ratio_prop psi);
          Helpers.qtest ~count:20 ("greedy++ monotone: " ^ name)
            (Helpers.small_graph_arb ~max_n:12 ~max_m:36 ())
            (greedy_pp_monotone_prop psi);
          Helpers.qtest ~count:20 ("greedy++ <= optimum: " ^ name)
            (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ())
            (greedy_pp_never_beats_optimum_prop psi);
          Helpers.qtest ~count:20 ("streaming ratio: " ^ name)
            (QCheck.pair (Helpers.small_graph_arb ~max_n:10 ~max_m:28 ()) QCheck.small_int)
            (streaming_ratio_prop psi);
        ])
      [ ("edge", P.edge); ("triangle", P.triangle); ("C4", P.diamond) ]
