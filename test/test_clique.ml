(* h-clique enumeration: known counts, kClist vs the naive oracle,
   instance-store behaviour. *)

module G = Dsd_graph.Graph
module K = Dsd_clique.Kclist
module N = Dsd_check.Naive
module Store = Dsd_clique.Instance_store
module Binom = Dsd_util.Binom

let test_kn_counts () =
  (* K_n contains C(n, h) h-cliques. *)
  for n = 2 to 8 do
    let g = G.complete n in
    for h = 1 to n do
      Alcotest.(check int)
        (Printf.sprintf "C(%d,%d)" n h)
        (Binom.choose n h) (K.count g ~h)
    done
  done

let test_no_cliques_beyond_omega () =
  let g = Dsd_data.Paper_graphs.cycle 6 in
  Alcotest.(check int) "edges" 6 (K.count g ~h:2);
  Alcotest.(check int) "no triangles in C6" 0 (K.count g ~h:3)

let test_figure2_triangles () =
  let g = Dsd_data.Paper_graphs.figure2 in
  Alcotest.(check int) "one triangle" 1 (K.count g ~h:3);
  Alcotest.(check (list (list int))) "members" [ [ 1; 2; 3 ] ]
    (Helpers.rows (K.list g ~h:3))

let test_instances_sorted_unique () =
  let g = Helpers.random_graph ~seed:9 ~max_n:12 ~max_m:40 () in
  let seen = Hashtbl.create 16 in
  K.iter g ~h:3 ~f:(fun inst ->
      let copy = Array.copy inst in
      Alcotest.(check bool) "sorted" true (copy.(0) < copy.(1) && copy.(1) < copy.(2));
      Alcotest.(check bool) "fresh" false (Hashtbl.mem seen copy);
      Hashtbl.add seen copy ())

let kclist_matches_naive_prop h g =
  let a = List.sort compare (Helpers.rows (K.list g ~h)) in
  let b = List.sort compare (Helpers.rows (N.list g ~h)) in
  a = b

let test_clique_degrees_sum () =
  let g = Helpers.random_graph ~seed:21 ~max_n:15 ~max_m:50 () in
  for h = 2 to 4 do
    let deg = Dsd_clique.Clique_count.degrees g ~h in
    Alcotest.(check int)
      (Printf.sprintf "sum deg = h * mu (h=%d)" h)
      (h * K.count g ~h)
      (Array.fold_left ( + ) 0 deg)
  done

let test_clique_degree_figure1 () =
  (* Paper, after Definition 3: in the two-triangles-sharing-an-edge
     subgraph, triangle-degrees are A=2, B=1, C=2 (A, C on the shared
     edge).  Encode: A=0, C=1 shared edge; B=2, D=3 apexes. *)
  let g = G.of_edge_list ~n:4 [ (0, 1); (0, 2); (1, 2); (0, 3); (1, 3) ] in
  let deg = Dsd_clique.Clique_count.degrees g ~h:3 in
  Alcotest.(check (array int)) "degrees" [| 2; 2; 1; 1 |] deg

let test_triangles_per_edge () =
  let g = G.complete 4 in
  let support = Dsd_clique.Clique_count.triangles_per_edge g in
  Alcotest.(check int) "six edges" 6 (Array.length support);
  Array.iter
    (fun ((_u, _v), c) -> Alcotest.(check int) "support 2 in K4" 2 c)
    support

let test_store_basic () =
  let g = G.complete 4 in
  let insts = K.list g ~h:3 in
  let store = Store.create ~n:4 insts in
  Alcotest.(check int) "total" 4 (Store.total store);
  Alcotest.(check int) "degree" 3 (Store.degree store 0);
  let touched = ref [] in
  let killed = Store.kill_vertex store 0 ~on_comember:(fun u -> touched := u :: !touched) in
  Alcotest.(check int) "killed" 3 killed;
  Alcotest.(check int) "live" 1 (Store.live_total store);
  Alcotest.(check int) "degree after" 0 (Store.degree store 0);
  (* Each survivor lost 2 of its 3 triangles. *)
  Alcotest.(check int) "survivor degree" 1 (Store.degree store 1);
  (* Co-member callbacks: each killed triangle notifies its 2 other
     members. *)
  Alcotest.(check int) "notifications" 6 (List.length !touched)

let test_store_kill_instance_and_reset () =
  let g = G.complete 4 in
  let store = Store.create ~n:4 (K.list g ~h:3) in
  Store.kill_instance store 0;
  Store.kill_instance store 0;
  Alcotest.(check int) "idempotent" 3 (Store.live_total store);
  let live_ids = ref [] in
  Store.iter_live_of_vertex store 3 ~f:(fun i -> live_ids := i :: !live_ids);
  Alcotest.(check bool) "posting filtered" true
    (not (List.mem 0 !live_ids));
  Store.reset store;
  Alcotest.(check int) "reset total" 4 (Store.live_total store);
  Alcotest.(check int) "reset degree" 3 (Store.degree store 0)

let store_degree_matches_recount_prop seed =
  (* Kill random vertices; the store's degrees must equal freshly
     enumerated degrees of the surviving induced subgraph. *)
  let r = Dsd_util.Prng.create seed in
  let g = Dsd_data.Gen.random_graph_for_tests r ~max_n:12 ~max_m:40 in
  let h = 3 in
  let store = Store.create ~n:(G.n g) (K.list g ~h) in
  let alive = Array.make (G.n g) true in
  let steps = Dsd_util.Prng.int r (max 1 (G.n g)) in
  for _ = 1 to steps do
    let v = Dsd_util.Prng.int r (G.n g) in
    if alive.(v) then begin
      alive.(v) <- false;
      ignore (Store.kill_vertex store v ~on_comember:(fun _ -> ()))
    end
  done;
  let live = Array.of_list (List.filter (fun v -> alive.(v)) (List.init (G.n g) Fun.id)) in
  let sub, map = G.induced g live in
  let expect = Dsd_clique.Clique_count.degrees sub ~h in
  let ok = ref true in
  Array.iteri
    (fun i v -> if Store.degree store v <> expect.(i) then ok := false)
    map;
  !ok

(* Instance ids fix the peels' posting order (so Greedy++'s heap ties)
   and the flow networks' arc order, so the flat lister must list
   exactly the reference's instances in exactly its order: for h in
   1..5 on 30 seeded graphs (Enumerate.instances; at h = 1, which no
   pattern names, the Kclist.list it dispatches to). *)
let test_instance_order_reference () =
  let graphs =
    List.init 30 (fun i ->
        let seed = 700 + i in
        (seed, Helpers.random_graph ~seed ~max_n:30 ~max_m:200 ()))
  in
  let hs = [ 1; 2; 3; 4; 5 ] in
  let reference =
    List.map
      (fun (_, g) ->
        List.map (fun h -> Dsd_check.Oracle.reference_clique_instances g ~h) hs)
      graphs
  in
  let check tag expected got =
    Alcotest.check Helpers.instances ("order " ^ tag) expected got
  in
  List.iter2
    (fun (seed, g) refs ->
      List.iter2
        (fun h r ->
          check
            (Printf.sprintf "%s h=%d sequential" (Helpers.seed_ctx seed) h)
            r
            (if h = 1 then Dsd_clique.Kclist.list g ~h
             else Dsd_core.Enumerate.instances g (Dsd_pattern.Pattern.clique h)))
        hs refs)
    graphs reference

let suite =
  [
    Alcotest.test_case "K_n counts" `Quick test_kn_counts;
    Alcotest.test_case "C6 has no triangles" `Quick test_no_cliques_beyond_omega;
    Alcotest.test_case "figure 2 triangles" `Quick test_figure2_triangles;
    Alcotest.test_case "instances sorted unique" `Quick test_instances_sorted_unique;
    Helpers.qtest ~count:60 "kclist = naive (h=3)"
      (Helpers.small_graph_arb ~max_n:12 ~max_m:40 ())
      (kclist_matches_naive_prop 3);
    Helpers.qtest ~count:60 "kclist = naive (h=4)"
      (Helpers.small_graph_arb ~max_n:12 ~max_m:40 ())
      (kclist_matches_naive_prop 4);
    Helpers.qtest ~count:40 "kclist = naive (h=5)"
      (Helpers.small_graph_arb ~max_n:11 ~max_m:35 ())
      (kclist_matches_naive_prop 5);
    Alcotest.test_case "degree sum identity" `Quick test_clique_degrees_sum;
    Alcotest.test_case "figure 1 triangle degrees" `Quick test_clique_degree_figure1;
    Alcotest.test_case "triangles per edge" `Quick test_triangles_per_edge;
    Alcotest.test_case "store basic" `Quick test_store_basic;
    Alcotest.test_case "store kill/reset" `Quick test_store_kill_instance_and_reset;
    Helpers.qtest ~count:80 "store degrees = recount" QCheck.small_int
      store_degree_matches_recount_prop;
    Alcotest.test_case "instance order equals the reference" `Slow
      test_instance_order_reference;
  ]
