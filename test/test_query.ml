(* Query-vertex CDS variant (Section 6.3): core-accelerated and naive
   searches against an exhaustive oracle restricted to supersets of the
   query. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module D = Dsd_core.Density

(* Densities are one int division each, so equal rationals have equal
   bits. *)
let same a b = Int64.bits_of_float a = Int64.bits_of_float b

let brute_force_with_query g psi query =
  let n = G.n g in
  assert (n <= 14);
  let qmask = Array.fold_left (fun acc q -> acc lor (1 lsl q)) 0 query in
  let best = ref 0. in
  for mask = 1 to (1 lsl n) - 1 do
    if mask land qmask = qmask then begin
      let vs = ref [] in
      for v = n - 1 downto 0 do
        if mask land (1 lsl v) <> 0 then vs := v :: !vs
      done;
      let d = Helpers.density_of_subset g psi (Array.of_list !vs) in
      if d > !best then best := d
    end
  done;
  !best

let arb_graph_query =
  QCheck.make
    ~print:(fun (g, q) ->
      Format.asprintf "%a q=%d" G.pp g q)
    QCheck.Gen.(pair (Helpers.small_graph_gen ~max_n:9 ~max_m:22 ()) small_nat)

let query_matches_brute_prop psi (g, qseed) =
  let q = qseed mod G.n g in
  let query = [| q |] in
  let expect = brute_force_with_query g psi query in
  let r = Dsd_core.Query_dsd.run g psi ~query in
  let naive = Dsd_core.Query_dsd.run_naive g psi ~query in
  same r.Dsd_core.Query_dsd.subgraph.D.density expect
  && same naive.Dsd_core.Query_dsd.subgraph.D.density expect

let query_two_vertices_prop psi (g, qseed) =
  if G.n g < 2 then true
  else begin
    let q1 = qseed mod G.n g in
    let q2 = (qseed * 7 + 3) mod G.n g in
    let query = if q1 = q2 then [| q1 |] else [| q1; q2 |] in
    let expect = brute_force_with_query g psi query in
    let r = Dsd_core.Query_dsd.run g psi ~query in
    same r.Dsd_core.Query_dsd.subgraph.D.density expect
  end

let result_contains_query_prop psi (g, qseed) =
  let q = qseed mod G.n g in
  let r = Dsd_core.Query_dsd.run g psi ~query:[| q |] in
  Array.exists (( = ) q) r.Dsd_core.Query_dsd.subgraph.D.vertices

let test_query_pulls_in_dense_region () =
  (* Query a vertex of the K4 side: the answer must contain the K4 and
     may not be the global EDS (the K6). *)
  let g = Dsd_data.Paper_graphs.two_cliques ~a:6 ~b:4 ~bridge:true in
  let r = Dsd_core.Query_dsd.run g P.edge ~query:[| 6 |] in
  let set = Helpers.int_array_as_set r.Dsd_core.Query_dsd.subgraph.D.vertices in
  Alcotest.(check bool) "contains query" true (List.mem 6 set);
  (* Best superset of vertex 6: the whole graph beats K4 alone here
     (bridged), so just check density is the brute-force optimum. *)
  Helpers.check_float "density"
    (brute_force_with_query g P.edge [| 6 |])
    r.Dsd_core.Query_dsd.subgraph.D.density

let test_query_on_global_optimum () =
  (* Querying inside the global EDS gives exactly the global EDS
     density. *)
  let g = Dsd_data.Paper_graphs.two_cliques ~a:6 ~b:4 ~bridge:false in
  let r = Dsd_core.Query_dsd.run g P.edge ~query:[| 0 |] in
  Helpers.check_float "global optimum" 2.5 r.Dsd_core.Query_dsd.subgraph.D.density

let test_query_validation () =
  let g = G.complete 3 in
  Alcotest.check_raises "empty query"
    (Invalid_argument "Query_dsd: empty query")
    (fun () -> ignore (Dsd_core.Query_dsd.run g P.edge ~query:[||]));
  Alcotest.check_raises "range"
    (Invalid_argument "Query_dsd: query vertex out of range")
    (fun () -> ignore (Dsd_core.Query_dsd.run g P.edge ~query:[| 9 |]))

let test_query_no_instances () =
  let g = Dsd_data.Paper_graphs.path 5 in
  let r = Dsd_core.Query_dsd.run g P.triangle ~query:[| 2 |] in
  Helpers.check_float "zero density" 0. r.Dsd_core.Query_dsd.subgraph.D.density;
  Alcotest.(check bool) "still contains query" true
    (Array.exists (( = ) 2) r.Dsd_core.Query_dsd.subgraph.D.vertices);
  let r = Dsd_core.Query_dsd.run g P.triangle ~query:[| 1; 1 |] in
  Alcotest.(check (array int)) "a repeated query vertex counts once" [| 1 |]
    r.Dsd_core.Query_dsd.subgraph.D.vertices

let suite =
  [
    Alcotest.test_case "query pulls dense region" `Quick test_query_pulls_in_dense_region;
    Alcotest.test_case "query on global optimum" `Quick test_query_on_global_optimum;
    Alcotest.test_case "query validation" `Quick test_query_validation;
    Alcotest.test_case "query with no instances" `Quick test_query_no_instances;
  ]
  @ List.concat_map
      (fun (name, psi) ->
        [
          Helpers.qtest ~count:25 ("query = brute force: " ^ name)
            arb_graph_query (query_matches_brute_prop psi);
          Helpers.qtest ~count:20 ("query pair = brute force: " ^ name)
            arb_graph_query (query_two_vertices_prop psi);
          Helpers.qtest ~count:25 ("result contains query: " ^ name)
            arb_graph_query (result_contains_query_prop psi);
        ])
      [ ("edge", P.edge); ("triangle", P.triangle); ("C4", P.diamond) ]
