(* Density-friendly decomposition (Dsd_core.Ld_decomposition) against
   the exhaustive union-of-argmax oracle and the per-level reference
   search, plus the pool-width bit-equality and the 2L - 1 probe count
   of the breakpoint search.

   Every comparison here is EXACT — marginal densities are quotients of
   small integers, so equal rationals divide to bit-identical floats
   and [Int64.bits_of_float] equality is the right notion of "same
   answer". *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module LD = Dsd_core.Ld_decomposition
module O = Dsd_check.Oracle

let patterns = [ ("edge", P.edge); ("triangle", P.triangle) ]

let show_levels ls =
  String.concat "; "
    (List.map
       (fun (m, vs) ->
         Printf.sprintf "%.6f:[%s]" m
           (String.concat "," (List.map string_of_int (Array.to_list vs))))
       ls)

let pairs_of (d : LD.t) =
  List.map (fun (l : LD.level) -> (l.marginal_density, l.vertices)) d.levels

let same_levels a b =
  List.length a = List.length b
  && List.for_all2
       (fun (ma, va) (mb, vb) ->
         Int64.bits_of_float ma = Int64.bits_of_float mb && va = vb)
       a b

let check_same ~ctx a b =
  if not (same_levels a b) then
    Alcotest.failf "%s:\n  %s\n  <> %s" ctx (show_levels a) (show_levels b)

(* ---- oracle differential ---- *)

(* 30 seeds x h in {2, 3}: the whole chain, bit-for-bit, for the
   default call and pool widths {1, 2, 4}.  Each level set is the
   maximal maximiser just below its breakpoint — the unique union of
   argmax augmentations, which is exactly what the oracle peels — so
   vertex sets match exactly, not just marginals. *)
let test_oracle_differential () =
  for seed = 0 to 29 do
    let g = Helpers.random_graph ~seed ~max_n:10 ~max_m:24 () in
    List.iter
      (fun (name, psi) ->
        let truth = O.brute_force_ld_decomposition g psi in
        let pooled width () =
          Dsd_util.Pool.with_pool ~sequential_below:0 width (fun pool ->
              LD.decompose ~pool g psi)
        in
        let runs =
          [ ("default", fun () -> LD.decompose g psi);
            ("pool-1", pooled 1);
            ("pool-2", pooled 2);
            ("pool-4", pooled 4) ]
        in
        List.iter
          (fun (label, run) ->
            check_same
              ~ctx:
                (Printf.sprintf "%s %s %s" (Helpers.seed_ctx seed) name label)
              (pairs_of (run ())) truth)
          runs)
      patterns
  done

(* ---- the reference search on larger graphs ---- *)

(* Beyond the oracle's n <= 12 range: the breakpoint search against
   the per-level reference search — levels, marginal bits and prefix
   sizes. *)
let test_equals_reference () =
  for seed = 0 to 9 do
    let g = Helpers.random_graph ~seed:(2000 + seed) ~max_n:40 ~max_m:150 () in
    List.iter
      (fun (name, psi) ->
        let reference = O.reference_ld_decomposition g psi in
        let d = LD.decompose g psi in
        let prefixes (d : LD.t) =
          List.map (fun (l : LD.level) -> l.prefix_size) d.levels
        in
        let ctx = Printf.sprintf "%s %s" (Helpers.seed_ctx (2000 + seed)) name in
        check_same ~ctx (pairs_of d) (pairs_of reference);
        Alcotest.(check (list int)) (ctx ^ " prefix sizes")
          (prefixes reference) (prefixes d))
      patterns
  done

(* A chain of L positive levels costs exactly 2L - 1 probes: every
   probe either splits a chord at a new chain set or emits a level. *)
let test_probe_count () =
  for seed = 0 to 9 do
    let g = Helpers.random_graph ~seed:(3000 + seed) ~max_n:20 ~max_m:60 () in
    List.iter
      (fun (name, psi) ->
        let d = LD.decompose g psi in
        let positive =
          List.length
            (List.filter (fun (l : LD.level) -> l.marginal_density > 0.)
               d.LD.levels)
        in
        Alcotest.(check int)
          (Printf.sprintf "%s %s probes" (Helpers.seed_ctx (3000 + seed)) name)
          (max 0 ((2 * positive) - 1))
          d.LD.iterations)
      patterns
  done

(* ---- qcheck: prefix outputs sorted and duplicate-free ---- *)

let prefix_sorted_prop psi g =
  let d = LD.decompose g psi in
  let t = List.length d.LD.levels in
  let ok = ref true in
  for i = 0 to t do
    let p = LD.prefix d i in
    for j = 1 to Array.length p - 1 do
      (* strictly increasing = sorted AND duplicate-free *)
      if p.(j - 1) >= p.(j) then ok := false
    done;
    let expect =
      List.fold_left
        (fun acc (l : LD.level) -> acc + Array.length l.vertices)
        0
        (List.filteri (fun j _ -> j < i) d.LD.levels)
    in
    if Array.length p <> expect then ok := false
  done;
  !ok

let suite =
  [ Alcotest.test_case "oracle differential (30 seeds, pools 1/2/4)" `Slow
      test_oracle_differential;
    Alcotest.test_case "larger graphs equal the reference search" `Slow
      test_equals_reference;
    Alcotest.test_case "exactly 2L-1 probes for L positive levels" `Quick
      test_probe_count;
    Helpers.qtest ~count:60 "prefix outputs sorted and duplicate-free"
      (Helpers.small_graph_arb ~max_n:12 ~max_m:30 ())
      (prefix_sorted_prop Dsd_pattern.Pattern.triangle);
    Helpers.qtest ~count:60 "prefix outputs sorted and duplicate-free (edge)"
      (Helpers.small_graph_arb ~max_n:12 ~max_m:30 ())
      (prefix_sorted_prop Dsd_pattern.Pattern.edge);
  ]
