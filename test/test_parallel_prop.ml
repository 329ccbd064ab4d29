(* Properties of the shared domain pool (Dsd_util.Pool) and a
   randomized differential harness for every parallel solver path:
   whatever the pool size, results must be bit-identical to the
   sequential oracle.  This is the determinism contract the library's
   parallel decompositions are built on. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module Pool = Dsd_util.Pool
module CC = Dsd_core.Clique_core
module PA = Dsd_core.Peel_app
module D = Dsd_core.Density

(* ---- Pool primitives ---- *)

(* Every index in [0, n) is visited exactly once, whatever the chunk
   size, including chunk sizes that do not divide n and the n = 0 and
   n < chunks cases. *)
let test_covers_exactly_once () =
  Pool.with_pool 4 (fun pool ->
      List.iter
        (fun (n, chunk) ->
          let hits = Array.init n (fun _ -> Atomic.make 0) in
          Pool.parallel_for pool ?chunk ~n (fun lo hi ->
              Alcotest.(check bool) "chunk bounds" true (0 <= lo && lo < hi && hi <= n);
              for i = lo to hi - 1 do
                Atomic.incr hits.(i)
              done);
          Array.iteri
            (fun i c ->
              Alcotest.(check int)
                (Printf.sprintf "n=%d chunk=%s index %d" n
                   (match chunk with Some c -> string_of_int c | None -> "-")
                   i)
                1 (Atomic.get c))
            hits)
        [
          (0, None);
          (1, None);
          (7, Some 1);
          (64, Some 64);
          (65, Some 64);
          (100, Some 3);
          (1000, None);
        ])

(* map_chunks returns ascending contiguous chunks covering [0, n)
   regardless of which domain ran which chunk. *)
let test_map_chunks_order () =
  Pool.with_pool 3 (fun pool ->
      let n = 101 in
      let chunks = Pool.map_chunks pool ~chunk:7 ~n (fun lo hi -> (lo, hi)) in
      let pos = ref 0 in
      Array.iter
        (fun (lo, hi) ->
          Alcotest.(check int) "contiguous" !pos lo;
          Alcotest.(check bool) "non-empty" true (hi > lo);
          pos := hi)
        chunks;
      Alcotest.(check int) "covers n" n !pos)

(* fold_chunks reduces in chunk order even for a non-commutative
   merge, so the folded value is the same for every pool size. *)
let test_fold_deterministic_order () =
  let n = 257 in
  let digest pool =
    Pool.fold_chunks pool ~chunk:9 ~n ~init:"" ~merge:( ^ ) (fun lo hi ->
        Printf.sprintf "[%d,%d)" lo hi)
  in
  let expected = Pool.with_pool 1 digest in
  List.iter
    (fun size ->
      Alcotest.(check string)
        (Printf.sprintf "fold order, %d domains" size)
        expected
        (Pool.with_pool size digest))
    [ 2; 3; 4 ]

(* Submitting a job from inside a job body raises Nested instead of
   deadlocking, and the pool stays usable afterwards. *)
let test_nested_raises () =
  List.iter
    (fun size ->
      Pool.with_pool size (fun pool ->
          Alcotest.check_raises
            (Printf.sprintf "nested, %d domains" size)
            Pool.Nested
            (fun () ->
              Pool.parallel_for pool ~n:8 (fun _ _ ->
                  Pool.parallel_for pool ~n:2 (fun _ _ -> ())));
          (* Still functional after the failed job. *)
          let total =
            Pool.fold_chunks pool ~n:5 ~init:0 ~merge:( + ) (fun lo hi -> hi - lo)
          in
          Alcotest.(check int) "usable after Nested" 5 total))
    [ 1; 2 ]

(* A body exception is re-raised in the caller once the job drains. *)
let test_body_exception_propagates () =
  Pool.with_pool 2 (fun pool ->
      Alcotest.check_raises "re-raised" (Failure "boom") (fun () ->
          Pool.parallel_for pool ~chunk:1 ~n:16 (fun lo _ ->
              if lo = 7 then failwith "boom"));
      let count =
        Pool.fold_chunks pool ~n:10 ~init:0 ~merge:( + ) (fun lo hi -> hi - lo)
      in
      Alcotest.(check int) "usable after failure" 10 count)

(* ---- recommended_domains / DSD_DOMAINS ---- *)

let test_recommended_domains_env () =
  let rd () = Dsd_clique.Parallel.recommended_domains () in
  let fallback = max 1 (Domain.recommended_domain_count ()) in
  (* putenv cannot unset; an empty value takes the fallback path, so
     restoring to "" is equivalent to the variable being absent. *)
  Fun.protect
    ~finally:(fun () -> Unix.putenv "DSD_DOMAINS" "")
    (fun () ->
      Unix.putenv "DSD_DOMAINS" "3";
      Alcotest.(check int) "explicit" 3 (rd ());
      Unix.putenv "DSD_DOMAINS" " 2 ";
      Alcotest.(check int) "whitespace trimmed" 2 (rd ());
      Unix.putenv "DSD_DOMAINS" "0";
      Alcotest.(check int) "nonpositive ignored" fallback (rd ());
      Unix.putenv "DSD_DOMAINS" "-4";
      Alcotest.(check int) "negative ignored" fallback (rd ());
      Unix.putenv "DSD_DOMAINS" "soup";
      Alcotest.(check int) "garbage ignored" fallback (rd ());
      Unix.putenv "DSD_DOMAINS" "";
      Alcotest.(check int) "empty ignored" fallback (rd ()));
  Alcotest.(check bool) "positive without env" true (rd () >= 1)

(* ---- differential: parallel enumeration vs sequential kClist ---- *)

let domain_counts = [ 1; 2; 4 ]

let test_enumeration_differential () =
  let graphs =
    List.init 8 (fun i -> Helpers.random_graph ~seed:(50 + i) ~max_n:25 ~max_m:80 ())
  in
  List.iter
    (fun d ->
      Pool.with_pool d (fun pool ->
          List.iteri
            (fun gi g ->
              List.iter
                (fun h ->
                  let tag = Printf.sprintf "g%d h=%d d=%d" gi h d in
                  Alcotest.(check int) ("count " ^ tag)
                    (Dsd_clique.Kclist.count g ~h)
                    (Dsd_clique.Parallel.count_in pool g ~h);
                  Alcotest.check Helpers.instances ("list " ^ tag)
                    (Dsd_clique.Kclist.list g ~h)
                    (Dsd_clique.Parallel.list_in pool g ~h);
                  Alcotest.(check (array int)) ("degrees " ^ tag)
                    (Dsd_clique.Clique_count.degrees g ~h)
                    (Dsd_clique.Parallel.degrees_in pool g ~h))
                [ 2; 3; 4 ])
            graphs))
    domain_counts

(* Instance ids fix the peels' posting order (so Greedy++'s heap ties)
   and the flow networks' arc order, so the flat lister must list
   exactly the reference's instances in exactly its order: for h in
   1..5 on 30 seeded graphs, sequentially (Enumerate.instances; at
   h = 1, which no pattern names, the Kclist.list it dispatches to)
   and through Parallel.list_in at 1, 2 and 4 domains. *)
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
             else Dsd_core.Enumerate.instances g (P.clique h)))
        hs refs)
    graphs reference;
  List.iter
    (fun d ->
      Pool.with_pool d (fun pool ->
          List.iter2
            (fun (seed, g) refs ->
              List.iter2
                (fun h r ->
                  check
                    (Printf.sprintf "%s h=%d d=%d" (Helpers.seed_ctx seed) h d)
                    r
                    (Dsd_clique.Parallel.list_in pool g ~h))
                hs refs)
            graphs reference))
    domain_counts

(* ---- differential: core decomposition across pool sizes ---- *)

(* ~30 random graphs, h in {2, 3}: core numbers, kmax, mu and (in the
   density-tracking mode) the whole peel transcript must be identical
   across domains in {1, 2, 4} and equal to the sequential result. *)
let test_decompose_differential () =
  let graphs =
    List.init 30 (fun i -> Helpers.random_graph ~seed:(i + 1) ~max_n:30 ~max_m:90 ())
  in
  let patterns = [ P.edge; P.triangle ] in
  let seq =
    List.map
      (fun g -> List.map (fun psi -> CC.decompose g psi) patterns)
      graphs
  in
  List.iter
    (fun d ->
      Pool.with_pool d (fun pool ->
          List.iteri
            (fun gi g ->
              List.iteri
                (fun pi psi ->
                  let s = List.nth (List.nth seq gi) pi in
                  let tag = Printf.sprintf "g%d %s d=%d" gi psi.P.name d in
                  (* Frontier-synchronous engine (no density tracking):
                     canonical outputs match exactly. *)
                  let fast = CC.decompose ~pool ~track_density:false g psi in
                  Alcotest.(check (array int)) ("core " ^ tag) s.CC.core fast.CC.core;
                  Alcotest.(check int) ("kmax " ^ tag) s.CC.kmax fast.CC.kmax;
                  Alcotest.(check int) ("mu " ^ tag) s.CC.mu_total fast.CC.mu_total;
                  Alcotest.(check (array int)) ("kmax-core " ^ tag)
                    (CC.kmax_core s) (CC.kmax_core fast);
                  (* Density-tracking mode keeps the sequential peel
                     order, so every field is bit-identical. *)
                  let tracked = CC.decompose ~pool g psi in
                  Alcotest.(check (array int)) ("tracked core " ^ tag)
                    s.CC.core tracked.CC.core;
                  Alcotest.(check (array int)) ("tracked order " ^ tag)
                    s.CC.order tracked.CC.order;
                  Helpers.check_float ("rho' " ^ tag)
                    s.CC.best_residual_density tracked.CC.best_residual_density;
                  Alcotest.(check int) ("rho' start " ^ tag)
                    s.CC.best_residual_start tracked.CC.best_residual_start)
                patterns)
            graphs))
    domain_counts

(* Small graphs also against the fully naive threshold-peeling oracle
   (independent re-derivation, not just seq-vs-parallel agreement). *)
let test_decompose_vs_naive_oracle () =
  for seed = 1 to 6 do
    let g = Helpers.random_graph ~seed:(100 + seed) ~max_n:14 ~max_m:30 () in
    List.iter
      (fun psi ->
        let expected = Helpers.naive_core_numbers g psi in
        List.iter
          (fun d ->
            Pool.with_pool d (fun pool ->
                let got = CC.decompose ~pool ~track_density:false g psi in
                Alcotest.(check (array int))
                  (Printf.sprintf "%s %s d=%d" (Helpers.seed_ctx seed) psi.P.name d)
                  expected got.CC.core))
          domain_counts)
      [ P.edge; P.triangle ]
  done

(* ---- differential: CDS end-to-end across pool sizes ---- *)

let test_cds_differential () =
  let graphs =
    List.init 8 (fun i -> Helpers.random_graph ~seed:(200 + i) ~max_n:20 ~max_m:60 ())
  in
  let patterns = [ P.edge; P.triangle ] in
  List.iteri
    (fun gi g ->
      List.iter
        (fun psi ->
          let peel0 = PA.run g psi in
          let exact0 = Dsd_core.Api.densest_subgraph ~psi ~algorithm:Dsd_core.Api.Core_exact g in
          List.iter
            (fun d ->
              Pool.with_pool d (fun pool ->
                  let tag = Printf.sprintf "g%d %s d=%d" gi psi.P.name d in
                  let peel = PA.run ~pool g psi in
                  Alcotest.(check (array int)) ("peel vertices " ^ tag)
                    peel0.PA.subgraph.D.vertices peel.PA.subgraph.D.vertices;
                  Helpers.check_float ("peel density " ^ tag)
                    peel0.PA.subgraph.D.density peel.PA.subgraph.D.density;
                  let exact =
                    Dsd_core.Api.densest_subgraph ~pool ~psi
                      ~algorithm:Dsd_core.Api.Core_exact g
                  in
                  Alcotest.(check (array int)) ("exact vertices " ^ tag)
                    exact0.D.vertices exact.D.vertices;
                  Helpers.check_float ("exact density " ^ tag)
                    exact0.D.density exact.D.density))
            domain_counts)
        patterns)
    graphs

let suite =
  [
    Alcotest.test_case "pool covers exactly once" `Quick test_covers_exactly_once;
    Alcotest.test_case "map_chunks chunk order" `Quick test_map_chunks_order;
    Alcotest.test_case "fold deterministic order" `Quick test_fold_deterministic_order;
    Alcotest.test_case "nested job raises" `Quick test_nested_raises;
    Alcotest.test_case "body exception propagates" `Quick test_body_exception_propagates;
    Alcotest.test_case "recommended_domains env" `Quick test_recommended_domains_env;
    Alcotest.test_case "enumeration differential" `Slow test_enumeration_differential;
    Alcotest.test_case "decompose differential" `Slow test_decompose_differential;
    Alcotest.test_case "decompose vs naive oracle" `Slow test_decompose_vs_naive_oracle;
    Alcotest.test_case "cds differential" `Slow test_cds_differential;
    Alcotest.test_case "instance order equals the reference" `Slow
      test_instance_order_reference;
  ]
