(* The retarget fast path vs fresh per-alpha builds: a bisection over
   one network warm-retargeted by [Flow_network.retarget] (what Inc_dsd
   and the reference searches of Dsd_check.Oracle run) and a
   hand-written fresh-build loop run the *same* alpha schedule and must
   see identical cut vertex sets, densities and iteration counts on
   every graph/pattern combination.
   Plus the obs accounting
   contract: builds + retargets = probes for every exact solver, with
   one build per arena (rebuilds only on Optimisation-3 shrinks), and
   the bisection's own loop laws. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module FB = Dsd_core.Flow_build
module F = Dsd_flow.Flow_network
module Parametric = Dsd_core.Parametric
module Obs = Dsd_obs.Control
module Counter = Dsd_obs.Counter

type trace = {
  iterations : int;
  cuts : int list list;   (* per-iteration source-side vertex sets *)
  density : float;
}

(* Algorithm 1's former binary search two ways: [`Fresh] is a
   hand-written loop that builds a new network at every alpha,
   [`Retarget] is [Parametric.bisect] over one network built once and
   warm-retargeted.  Both compute identical alphas because the
   cut-emptiness decisions (which steer l/u) must agree, so the fresh
   loop checks the retarget path too. *)
let binary_search mode g psi =
  let family = FB.auto_family psi in
  let instances =
    match family with
    | FB.Eds -> (Dsd_clique.Instances.empty ~arity:2)
    | _ -> Dsd_core.Enumerate.instances g psi
  in
  let max_deg =
    match family with
    | FB.Eds -> G.max_degree g
    | _ -> Array.fold_left max 0 (Dsd_clique.Instances.degrees ~n:(G.n g) instances)
  in
  if G.n g = 0 || max_deg = 0 then { iterations = 0; cuts = []; density = 0. }
  else begin
    let gap = Dsd_core.Density.stop_gap (G.n g) in
    let u0 = float_of_int max_deg in
    let cuts = ref [] in
    let best = ref [||] in
    (* Records one probe's cut; true when it is non-empty. *)
    let record side =
      cuts := Helpers.int_array_as_set side :: !cuts;
      if Array.length side > 0 then best := side;
      Array.length side > 0
    in
    (match mode with
     | `Fresh ->
       let l = ref 0. and u = ref u0 in
       while !u -. !l >= gap do
         let alpha = (!l +. !u) /. 2. in
         let t = Helpers.network_at family g psi ~instances ~alpha in
         if record (FB.solve t) then l := alpha else u := alpha
       done
     | `Retarget ->
       let t = FB.prepare family g psi ~instances in
       Parametric.bisect ~gap:(Fun.const gap) ~l:0. ~u:u0 (fun alpha ->
           F.retarget t.FB.net ~s:t.FB.source ~sink:t.FB.sink ~alpha;
           if record (FB.solve t) then Some alpha else None));
    let density =
      if Array.length !best = 0 then 0.
      else (Dsd_core.Density.of_vertices g psi !best).Dsd_core.Density.density
    in
    { iterations = List.length !cuts; cuts = List.rev !cuts; density }
  end

let patterns =
  [ ("edge", P.edge); ("triangle", P.triangle); ("diamond", P.diamond);
    ("2-star", P.star 2) ]

let check_same_trace label fresh retarget =
  Alcotest.(check int) (label ^ ": iterations") fresh.iterations
    retarget.iterations;
  Alcotest.(check (list (list int))) (label ^ ": per-iteration cuts")
    fresh.cuts retarget.cuts;
  Alcotest.(check bool) (label ^ ": density") true
    (Float.equal fresh.density retarget.density)

let test_differential_sequential () =
  for seed = 1 to 30 do
    let g = Helpers.random_graph ~seed ~max_n:12 ~max_m:28 () in
    List.iter
      (fun (pname, psi) ->
        let label = Printf.sprintf "%s psi=%s" (Helpers.seed_ctx seed) pname in
        let fresh = binary_search `Fresh g psi in
        let retarget = binary_search `Retarget g psi in
        check_same_trace label fresh retarget)
      patterns
  done

(* Warm-retargeting a solved network to a new alpha must yield a
   network arc-for-arc bit-identical (dst, capacity) to a fresh build
   at that alpha, its kept flow within every capacity; and
   [recapacitate ~den:2 ~num:5], reading the same laws, must zero every
   flow and write exactly twice those capacities.  (The equivalences of
   the kept flow live in test_warmstart.ml.) *)
let test_retarget_matches_fresh_arcs () =
  let g = Helpers.random_graph ~seed:7 ~max_n:14 ~max_m:40 () in
  List.iter
    (fun family ->
      let psi = match family with FB.Eds -> P.edge | _ -> P.triangle in
      let instances =
        match family with
        | FB.Eds -> (Dsd_clique.Instances.empty ~arity:2)
        | _ -> Dsd_core.Enumerate.instances g psi
      in
      let rt = Helpers.network_at family g psi ~instances ~alpha:1.0 in
      ignore (FB.solve rt);
      (* dirty the flow state *)
      F.retarget rt.FB.net ~s:rt.FB.source ~sink:rt.FB.sink ~alpha:2.5;
      let fresh = (Helpers.network_at family g psi ~instances ~alpha:2.5).FB.net in
      let net = rt.FB.net in
      let bits = Int64.bits_of_float in
      Alcotest.(check int) "arc count" (F.arc_count fresh) (F.arc_count net);
      for e = 0 to F.arc_count fresh - 1 do
        if F.arc_dst fresh e <> F.arc_dst net e then
          Alcotest.failf "arc %d: dst differs" e;
        if bits (F.arc_cap fresh e) <> bits (F.arc_cap net e) then
          Alcotest.failf "arc %d: cap %g vs %g" e (F.arc_cap fresh e)
            (F.arc_cap net e);
        if F.arc_flow net e > F.arc_cap net e +. F.eps then
          Alcotest.failf "arc %d: kept flow %g above cap %g" e
            (F.arc_flow net e) (F.arc_cap net e)
      done;
      ignore (F.recapacitate net ~den:2 ~num:5);
      for e = 0 to F.arc_count fresh - 1 do
        if bits (2. *. F.arc_cap fresh e) <> bits (F.arc_cap net e) then
          Alcotest.failf "arc %d: recapacitated cap %g, expected 2 x %g" e
            (F.arc_cap net e) (F.arc_cap fresh e);
        if F.arc_flow net e <> 0. then
          Alcotest.failf "arc %d: flow not reset" e
      done)
    [ FB.Eds; FB.Clique_flow; FB.Pds; FB.Pds_grouped ]

(* ---- Obs accounting contracts (ISSUE acceptance criteria) ---- *)

let builds () = Counter.get Counter.Flow_networks_built
let retargets () = Counter.get Counter.Flow_retargets

let test_exact_builds_once () =
  let g = Helpers.random_graph ~seed:11 ~max_n:20 ~max_m:60 () in
  let r =
    Obs.with_recording (fun () -> Dsd_core.Exact.run g P.triangle)
  in
  let iters = r.Dsd_core.Exact.stats.Dsd_core.Exact.iterations in
  Alcotest.(check bool) "ran a real search" true (iters > 1);
  Alcotest.(check int) "exactly one network built" 1 (builds ());
  Alcotest.(check int) "every other iteration retargets" (iters - 1)
    (retargets ())

let test_core_exact_accounting () =
  (* builds <= 1 + shrink count per component and builds + retargets =
     iterations exactly: the first probe on an arena builds (never a
     retarget), every later probe on it counts a retarget.  The
     peeling witness (Pruning 1) often seeds the exact optimum on small
     graphs, collapsing the search to a single probe — so scan seeds,
     assert the accounting identity on every run, and require that the
     range contains at least one genuinely multi-iteration search where
     the retarget path engages. *)
  let multi_iter = ref 0 in
  for seed = 1 to 60 do
    let g = Helpers.random_graph ~seed ~max_n:26 ~max_m:90 () in
    let r =
      Obs.with_recording (fun () -> Dsd_core.Core_exact.run g P.triangle)
    in
    let iters = r.Dsd_core.Core_exact.stats.Dsd_core.Core_exact.iterations in
    Alcotest.(check int)
      (Printf.sprintf "%s: builds + retargets = iterations" (Helpers.seed_ctx seed))
      iters
      (builds () + retargets ());
    if iters > 1 then begin
      incr multi_iter;
      Alcotest.(check bool)
        (Printf.sprintf "%s: retargeting engaged" (Helpers.seed_ctx seed))
        true (retargets () > 0)
    end
  done;
  Alcotest.(check bool) "some search was multi-iteration" true (!multi_iter > 0)

let test_core_exact_accounting_all_pruning_combos () =
  let g = Helpers.random_graph ~seed:31 ~max_n:22 ~max_m:70 () in
  List.iter
    (fun (p1, p2) ->
      let prunings = Dsd_core.Core_exact.{ p1; p2 } in
      let r =
        Obs.with_recording (fun () ->
            Dsd_core.Core_exact.run ~prunings g P.triangle)
      in
      let iters = r.Dsd_core.Core_exact.stats.Dsd_core.Core_exact.iterations in
      Alcotest.(check int)
        (Printf.sprintf "p1=%b p2=%b: builds + retargets" p1 p2)
        iters
        (builds () + retargets ()))
    [ (false, false); (true, false); (false, true); (true, true) ]

let test_query_accounting () =
  let g = Dsd_data.Paper_graphs.two_cliques ~a:6 ~b:4 ~bridge:true in
  let r =
    Obs.with_recording (fun () ->
        Dsd_core.Query_dsd.run g P.triangle ~query:[| G.n g - 1 |])
  in
  let iters = r.Dsd_core.Query_dsd.iterations in
  Alcotest.(check int) "builds + retargets = iterations" iters
    (builds () + retargets ());
  Alcotest.(check bool) "at most one build" true (builds () <= 1)

let test_topk_accounting () =
  (* Every round builds one arena over its candidate set and
     re-capacitates it for every later probe. *)
  let g = Dsd_data.Gen.planted_clique ~seed:5 ~n:120 ~p:0.06 ~clique:8 in
  let r =
    Obs.with_recording (fun () -> Dsd_core.Topk_lds.run ~k:3 g P.triangle)
  in
  let iters = r.Dsd_core.Topk_lds.stats.Dsd_core.Topk_lds.iterations in
  Alcotest.(check int) "builds + retargets = iterations" iters
    (builds () + retargets ());
  Alcotest.(check bool) "retargeting engaged" true (retargets () > 0)

(* The breakpoint search builds one network and re-capacitates it for
   every later probe. *)
let test_hierarchy_accounting () =
  let g = Dsd_data.Gen.planted_clique ~seed:5 ~n:120 ~p:0.06 ~clique:8 in
  let t =
    Obs.with_recording (fun () ->
        Dsd_core.Ld_decomposition.decompose g P.triangle)
  in
  let iters = t.Dsd_core.Ld_decomposition.iterations in
  Alcotest.(check int) "one network build" 1 (builds ());
  Alcotest.(check int) "builds + retargets = iterations" iters
    (builds () + retargets ());
  Alcotest.(check int) "ld_probes = iterations" iters
    (Counter.get Counter.Ld_probes);
  Alcotest.(check bool) "retargeting engaged" true (retargets () > 0)

(* Exact's [?prepared] slot: the first run fills it, a second run on the
   filled slot builds nothing, retargets every probe and answers the
   same. *)
let test_exact_slot_reuse () =
  let g = Dsd_data.Gen.planted_clique ~seed:5 ~n:120 ~p:0.06 ~clique:8 in
  let slot = ref None in
  let run () =
    Obs.with_recording (fun () -> Dsd_core.Exact.run ~prepared:slot g P.triangle)
  in
  let first = run () in
  Alcotest.(check int) "first run builds once" 1 (builds ());
  Alcotest.(check bool) "slot filled" true (Option.is_some !slot);
  let second = run () in
  let iters = second.Dsd_core.Exact.stats.Dsd_core.Exact.iterations in
  Alcotest.(check bool) "ran a real search" true (iters > 1);
  Alcotest.(check int) "second run builds nothing" 0 (builds ());
  Alcotest.(check int) "second run retargets every probe" iters (retargets ());
  Alcotest.(check (array int)) "same vertices"
    first.Dsd_core.Exact.subgraph.Dsd_core.Density.vertices
    second.Dsd_core.Exact.subgraph.Dsd_core.Density.vertices;
  Alcotest.(check bool) "same density" true
    (Float.equal first.Dsd_core.Exact.subgraph.Dsd_core.Density.density
       second.Dsd_core.Exact.subgraph.Dsd_core.Density.density)

(* Every exact answer rests on [Parametric.probe_rational], so it
   refuses the probes it cannot compute exactly: a non-positive
   denominator, a negative numerator, and a denominator that scales
   the figure-3 network's capacities past 2^53.  A refused probe leaves
   the arena usable. *)
let test_probe_rational_preconditions () =
  let g = Dsd_data.Paper_graphs.figure3_like in
  let arena = Parametric.arena (Parametric.pinned_family P.triangle) g P.triangle in
  let refuses label f =
    match f () with
    | (_ : int array) -> Alcotest.failf "%s: probe accepted" label
    | exception Invalid_argument _ -> ()
  in
  refuses "den = 0" (fun () -> Parametric.probe_rational arena ~num:1 ~den:0);
  refuses "den < 0" (fun () -> Parametric.probe_rational arena ~num:1 ~den:(-3));
  refuses "num < 0" (fun () -> Parametric.probe_rational arena ~num:(-1) ~den:2);
  refuses "capacities past 2^53" (fun () ->
      Parametric.probe_rational arena ~num:1 ~den:(1 lsl 52));
  (* K4 holds the four triangles of figure 3 at density 1: a probe just
     below it finds K4, one at it finds nothing. *)
  Alcotest.(check (array int)) "below rho" [| 0; 1; 2; 3 |]
    (Parametric.probe_rational arena ~num:3 ~den:4);
  Alcotest.(check (array int)) "at rho" [||]
    (Parametric.probe_rational arena ~num:1 ~den:1)

(* [Parametric.bisect] on random threshold predicates: below a hidden
   threshold [t] the decision raises l to a point in [alpha, t), at or
   above it lowers u.  Mirroring those moves, every probe must lie
   strictly inside the current (l, u) — so l never falls and u never
   rises — and the loop must exit with u - l < gap, also when the gap
   shrinks as the search goes. *)
let bisect_prop (u0, t_frac, gap_exp, (jump, shrink)) =
  let gap0 = 2. ** -.float_of_int gap_exp in
  let probes = ref 0 in
  let gap () =
    if shrink then gap0 /. float_of_int (1 + min !probes 8) else gap0
  in
  let t = t_frac *. u0 in
  let l = ref 0. and u = ref u0 in
  let inside = ref true in
  Parametric.bisect ~gap ~l:0. ~u:u0 (fun alpha ->
      incr probes;
      if not (!l < alpha && alpha < !u) then inside := false;
      if alpha < t then begin
        let l' = alpha +. (jump *. (t -. alpha)) in
        l := l';
        Some l'
      end
      else begin
        u := alpha;
        None
      end);
  !inside && !u -. !l < gap ()

let arb_bisect =
  QCheck.(
    quad (float_range 0.5 100.) (float_range 0. 1.) (int_range 1 20)
      (pair (float_range 0. 0.99) bool))

let suite =
  [
    Alcotest.test_case "differential: retarget = fresh (sequential)" `Quick
      test_differential_sequential;
    Alcotest.test_case "retarget matches fresh build arc-for-arc" `Quick
      test_retarget_matches_fresh_arcs;
    Alcotest.test_case "obs: Exact builds once, retargets rest" `Quick
      test_exact_builds_once;
    Alcotest.test_case "obs: CoreExact builds + retargets = iterations" `Quick
      test_core_exact_accounting;
    Alcotest.test_case "obs: accounting holds under all pruning combos" `Quick
      test_core_exact_accounting_all_pruning_combos;
    Alcotest.test_case "obs: Query builds at most once" `Quick
      test_query_accounting;
    Alcotest.test_case "obs: Topk builds + retargets = iterations" `Quick
      test_topk_accounting;
    Alcotest.test_case "obs: hierarchy builds + retargets = probes" `Quick
      test_hierarchy_accounting;
    Alcotest.test_case "obs: Exact reuses a filled prepared slot" `Quick
      test_exact_slot_reuse;
    Alcotest.test_case "probe_rational refuses inexact probes" `Quick
      test_probe_rational_preconditions;
    Helpers.qtest ~count:300 "bisect: probes inside (l, u), exits below gap"
      arb_bisect bisect_prop;
  ]
