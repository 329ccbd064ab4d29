(* Top-k locally densest subgraphs (Dsd_core.Topk_lds) against the
   exhaustive oracle, plus the bit-equality the canonical-region
   construction promises against the whole-remaining-graph reference
   (Dsd_check.Oracle.reference_topk) and with a cached decomposition.

   Every comparison here is EXACT — densities are quotients of small
   integers, so equal rationals divide to bit-identical floats and
   [Int64.bits_of_float] equality is the right notion of "same
   answer". *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module D = Dsd_core.Density
module T = Dsd_core.Topk_lds
module O = Dsd_check.Oracle

let patterns = [ ("edge", P.edge); ("triangle", P.triangle) ]

let show_regions rs =
  String.concat "; "
    (List.map
       (fun (d, vs) ->
         Printf.sprintf "%.6f:[%s]" d
           (String.concat "," (List.map string_of_int (Array.to_list vs))))
       rs)

let pairs_of result =
  List.map
    (fun (sg : D.subgraph) -> (sg.D.density, sg.D.vertices))
    result.T.regions

(* Bitwise equality of two region lists: same length, bit-identical
   densities, identical (sorted) vertex arrays. *)
let same_regions a b =
  List.length a = List.length b
  && List.for_all2
       (fun (da, va) (db, vb) ->
         Int64.bits_of_float da = Int64.bits_of_float db && va = vb)
       a b

let check_same ~ctx a b =
  if not (same_regions a b) then
    Alcotest.failf "%s:\n  %s\n  <> %s" ctx (show_regions a) (show_regions b)

(* ---- fixed fixtures ---- *)

let test_two_cliques () =
  let g = Dsd_data.Paper_graphs.two_cliques ~a:6 ~b:4 ~bridge:true in
  let r = T.run ~k:2 g P.edge in
  check_same ~ctx:"two_cliques k=2" (pairs_of r)
    [ (2.5, Array.init 6 Fun.id); (1.5, Array.init 4 (fun i -> 6 + i)) ]

let test_k_exhausts_regions () =
  (* k far beyond the supply of dense regions: extraction stops when
     the remaining graph holds no instance at all. *)
  let g = Dsd_data.Paper_graphs.two_cliques ~a:5 ~b:3 ~bridge:false in
  let r = T.run ~k:10 g P.triangle in
  Alcotest.(check int) "regions" 2 (List.length r.T.regions);
  Alcotest.(check bool) "rounds cover the dry round" true (r.T.stats.T.rounds >= 2)

let test_invalid_k () =
  let g = Dsd_data.Paper_graphs.two_cliques ~a:4 ~b:3 ~bridge:false in
  List.iter
    (fun k ->
      Alcotest.check_raises
        (Printf.sprintf "k=%d" k)
        (Invalid_argument "Topk_lds: k must be >= 1")
        (fun () -> ignore (T.run ~k g P.edge)))
    [ 0; -1 ]

let test_empty_graph () =
  let r = T.run ~k:3 (G.empty 0) P.edge in
  Alcotest.(check int) "regions" 0 (List.length r.T.regions);
  Alcotest.(check int) "rounds" 0 r.T.stats.T.rounds

let test_top1_matches_exact () =
  let g = Dsd_data.Paper_graphs.two_cliques ~a:6 ~b:4 ~bridge:true in
  List.iter
    (fun (name, psi) ->
      let top = (T.run ~k:1 g psi).T.regions in
      let exact = (Dsd_core.Exact.run g psi).Dsd_core.Exact.subgraph in
      match top with
      | [ sg ] ->
        Alcotest.(check bool)
          (name ^ " top-1 density = Exact density, bitwise") true
          (Int64.bits_of_float sg.D.density
          = Int64.bits_of_float exact.D.density)
      | _ -> Alcotest.failf "%s: expected exactly one region" name)
    patterns

(* ---- oracle differential ---- *)

(* Iterated extraction is prefix-stable by construction on both sides,
   so one oracle run at k = 3 checks every k in {1, 2, 3} against its
   prefix, for the core-pruned top-k and the whole-remaining-graph
   reference alike. *)
let test_oracle_differential () =
  for seed = 0 to 29 do
    let g = Helpers.random_graph ~seed ~max_n:10 ~max_m:24 () in
    List.iter
      (fun (name, psi) ->
        let truth = O.brute_force_topk ~k:3 g psi in
        List.iter
          (fun k ->
            let want =
              List.filteri (fun i _ -> i < k) truth
            in
            List.iter
              (fun (label, run) ->
                check_same
                  ~ctx:
                    (Printf.sprintf "%s %s k=%d %s" (Helpers.seed_ctx seed)
                       name k label)
                  (pairs_of (run ~k g psi)) want)
              [ ("pruned", fun ~k g psi -> T.run ~k g psi);
                ("reference", O.reference_topk) ])
          [ 1; 2; 3 ])
      patterns
  done

(* ---- configuration bit-equality on larger graphs ---- *)

let test_modes_bit_identical () =
  for seed = 0 to 9 do
    let g = Helpers.random_graph ~seed:(1000 + seed) ~max_n:40 ~max_m:150 () in
    List.iter
      (fun (name, psi) ->
        let reference = pairs_of (T.run ~k:3 g psi) in
        List.iter
          (fun (label, run) ->
            check_same
              ~ctx:
                (Printf.sprintf "%s %s vs %s" (Helpers.seed_ctx (1000 + seed))
                   name label)
              (pairs_of (run ())) reference)
          [ ("reference", fun () -> O.reference_topk ~k:3 g psi);
            ( "cached decomp",
              fun () ->
                let decomp =
                  Dsd_core.Clique_core.decompose ~track_density:true g psi
                in
                T.run ~decomp ~k:3 g psi ) ])
      patterns
  done

(* ---- structural invariants on random graphs ---- *)

let disjoint_and_sorted_prop psi g =
  let r = T.run ~k:4 g psi in
  let seen = Hashtbl.create 16 in
  let last = ref infinity in
  List.for_all
    (fun (sg : D.subgraph) ->
      let ok =
        Array.length sg.D.vertices > 0
        && sg.D.density > 0.
        && sg.D.density <= !last
        && Array.for_all (fun v -> not (Hashtbl.mem seen v)) sg.D.vertices
      in
      Array.iter (fun v -> Hashtbl.replace seen v ()) sg.D.vertices;
      last := sg.D.density;
      ok)
    r.T.regions

let suite =
  [ Alcotest.test_case "two cliques, k=2" `Quick test_two_cliques;
    Alcotest.test_case "k exhausts regions" `Quick test_k_exhausts_regions;
    Alcotest.test_case "invalid k" `Quick test_invalid_k;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "top-1 = Exact" `Quick test_top1_matches_exact;
    Alcotest.test_case "oracle differential (30 seeds)" `Slow
      test_oracle_differential;
    Alcotest.test_case "prune/decomp bit-identical" `Slow
      test_modes_bit_identical;
    Helpers.qtest ~count:60 "regions disjoint, densities non-increasing"
      (Helpers.small_graph_arb ~max_n:12 ~max_m:30 ())
      (disjoint_and_sorted_prop Dsd_pattern.Pattern.triangle);
  ]
