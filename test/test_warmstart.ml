(* Warm-started retargeting vs reset retargeting.

   The warm path ([Flow_network.retarget]) keeps the previous probe's
   flow across a capacity change: each sloped arc's cap is rewritten
   from its law, over-committed sink arcs are repaired as by
   [set_cap_warm] (excess drained back to the source), and the solver
   then augments from that feasible state.  Against the reset path
   ([reset_flow] before the same retarget) the min-cut *value* and the
   dense-side *vertex set* must be identical — the source-reachable set
   of a residual graph is the same for every max flow (the minimal min
   cut is unique) — for both Dinic and Edmonds-Karp, across all four
   network families, on alpha schedules that move in both
   directions.  Feasibility (capacity bounds +
   conservation) is asserted after every drain, before the solver
   runs.  [set_cap_warm], the one repair, is pinned on hand-built
   networks and by a property: lowering any flow-carrying arc of a
   random network keeps the flow feasible, and a re-solve reaches what
   Edmonds-Karp finds from scratch.  Warm retargets serve Inc_dsd and
   the float reference searches; the exact solvers re-aim with
   [Flow_network.recapacitate], which keeps the flow while a search
   rises on one exact grid, and the accounting contracts pin that:
   every probe is a build or a retarget, a search that probes one arena
   twice starts a probe warm, and nothing is drained. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module F = Dsd_flow.Flow_network
module FB = Dsd_core.Flow_build
module Prng = Dsd_util.Prng
module Obs = Dsd_obs.Control
module Counter = Dsd_obs.Counter

let solvers =
  [ ("dinic", Dsd_flow.Dinic.max_flow);
    ("edmonds-karp", Dsd_check.Edmonds_karp.max_flow) ]

(* One pattern per network family; h = 2 (edge) and h = 3 (triangle)
   cover the clique constructions, diamond/2-star the PDS ones. *)
let cases =
  [ ("edge/Eds", P.edge, FB.Eds);
    ("triangle/Clique", P.triangle, FB.Clique_flow);
    ("2-star/Pds", P.star 2, FB.Pds);
    ("diamond/Grouped", P.diamond, FB.Pds_grouped) ]

let instances_for g psi family =
  match family with
  | FB.Eds -> (Dsd_clique.Instances.empty ~arity:2)
  | _ -> Dsd_core.Enumerate.instances g psi

(* Net outflow of node [v] (twins carry negated incoming flow). *)
let excess net v =
  Array.fold_left (fun acc e -> acc +. F.arc_flow net e) 0. (F.arcs_from net v)

(* Full feasibility: flow within capacity on every arc, conservation
   at every non-terminal node. *)
let check_feasible label (t : FB.t) =
  let net = t.FB.net in
  for e = 0 to F.arc_count net - 1 do
    if F.arc_flow net e > F.arc_cap net e +. F.eps then
      Alcotest.failf "%s: arc %d flow %g above cap %g" label e
        (F.arc_flow net e) (F.arc_cap net e)
  done;
  for v = 0 to F.node_count net - 1 do
    if v <> t.FB.source && v <> t.FB.sink then begin
      let ex = excess net v in
      if Float.abs ex > 1e-6 then
        Alcotest.failf "%s: node %d violates conservation (excess %g)" label v
          ex
    end
  done

(* A deliberately non-monotone alpha schedule spanning [0, u]: the
   binary searches only ever halve the interval, so this exercises
   larger cap jumps in both directions than they would. *)
let schedule u =
  [ 0.4 *. u; 0.9 *. u; 0.15 *. u; u; 0.5 *. u; 0.02 *. u; 0.75 *. u;
    0.3 *. u ]

(* Run the schedule once on one network, warm or with the flow reset
   before every retarget, returning the per-step (flow value,
   dense-side vertex list).  The solver is driven directly (not via
   Min_cut.solve) so Edmonds-Karp gets the same treatment as Dinic. *)
let drive solver ~warm g psi family alphas =
  let instances = instances_for g psi family in
  let t = FB.prepare family g psi ~instances in
  let net = t.FB.net in
  List.map
    (fun alpha ->
      if not warm then F.reset_flow net;
      F.retarget net ~s:t.FB.source ~sink:t.FB.sink ~alpha;
      check_feasible "after retarget" t;
      ignore (solver net ~s:t.FB.source ~t:t.FB.sink);
      check_feasible "after solve" t;
      let value = F.flow_value net ~s:t.FB.source in
      let side = Dsd_flow.Min_cut.source_side net ~s:t.FB.source in
      let dense = ref [] in
      for v = t.FB.n_vertices - 1 downto 0 do
        if side.(v + 1) then dense := v :: !dense
      done;
      (value, !dense))
    alphas

let max_alpha g psi family =
  match family with
  | FB.Eds -> float_of_int (G.max_degree g)
  | _ ->
    let instances = instances_for g psi family in
    Array.fold_left max 0
      (Dsd_clique.Instances.degrees ~n:(G.n g) instances)
    |> float_of_int

let test_warm_vs_reset_differential () =
  List.iter
    (fun (sname, solver) ->
      for seed = 1 to 12 do
        let g = Helpers.random_graph ~seed ~max_n:12 ~max_m:30 () in
        List.iter
          (fun (cname, psi, family) ->
            let u = max_alpha g psi family in
            if u > 0. then begin
              let alphas = schedule u in
              let reset = drive solver ~warm:false g psi family alphas in
              let warm = drive solver ~warm:true g psi family alphas in
              List.iteri
                (fun i ((rv, rside), (wv, wside)) ->
                  let label =
                    Printf.sprintf "%s %s %s step=%d" sname cname (Helpers.seed_ctx seed) i
                  in
                  Alcotest.(check (float 1e-6))
                    (label ^ ": min-cut value") rv wv;
                  Alcotest.(check (list int))
                    (label ^ ": dense side") rside wside)
                (List.combine reset warm)
            end)
          cases
      done)
    solvers

(* set_cap_warm on a sink arc: lower a saturated sink arc and check the
   drained flow landed back at the source. *)
let test_sink_arc_drains_excess () =
  (* source -> a -> sink, source -> b -> sink, a -> b cross arc. *)
  let net = F.create 4 in
  let s = 0 and a = 1 and b = 2 and t = 3 in
  ignore (F.add_edge net ~src:s ~dst:a ~cap:10.);
  ignore (F.add_edge net ~src:s ~dst:b ~cap:10.);
  let e_at = F.add_edge net ~src:a ~dst:t ~cap:8. in
  ignore (F.add_edge net ~src:b ~dst:t ~cap:8.);
  ignore (F.add_edge net ~src:a ~dst:b ~cap:5.);
  let pushed = Dsd_flow.Dinic.max_flow net ~s ~t in
  Alcotest.(check (float 1e-9)) "initial max flow" 16. pushed;
  (* Lower a->t below its committed 8 units of flow; the 5-unit excess
     must drain a -> s (possibly via b for the part that arrived on
     s->a but left through the cross arc — here a's inflow is direct). *)
  let paths = F.set_cap_warm net ~s ~sink:t e_at 3. in
  Alcotest.(check bool) "used at least one drain path" true (paths > 0);
  Alcotest.(check (float 1e-9)) "arc back at capacity" 3.
    (F.arc_flow net e_at);
  Alcotest.(check (float 1e-9)) "total flow dropped by the excess" 11.
    (F.flow_value net ~s);
  (* Conservation at both interior nodes. *)
  Alcotest.(check (float 1e-9)) "node a conserves" 0. (excess net a);
  Alcotest.(check (float 1e-9)) "node b conserves" 0. (excess net b);
  (* Re-solving from the repaired state restores the new max flow. *)
  let delta = Dsd_flow.Dinic.max_flow net ~s ~t in
  Alcotest.(check (float 1e-9)) "resolve finds the lost capacity" 11.
    (F.flow_value net ~s);
  Alcotest.(check bool) "resume pushed only a delta" true (delta <= 5.)

let test_raise_is_noop () =
  let net = F.create 3 in
  let e = F.add_edge net ~src:0 ~dst:1 ~cap:4. in
  ignore (F.add_edge net ~src:1 ~dst:2 ~cap:4.);
  ignore (Dsd_flow.Dinic.max_flow net ~s:0 ~t:2);
  (* cap raised: still feasible *)
  Alcotest.(check int) "no drain paths" 0 (F.set_cap_warm net ~s:0 ~sink:2 e 6.)

(* set_cap_warm as a property.  On a random integer network solved by
   Dinic, lower one flow-carrying arc — leaving the source, entering the
   sink, or internal — to an integer below its flow.  The repaired flow
   must stay feasible (0 <= flow <= cap on every arc, conservation at
   every internal node), and Dinic resumed from it must reach the
   max-flow value and the minimal min-cut side that Edmonds-Karp finds
   on a fresh copy at the new capacities.  Integer capacities keep
   every flow exact, so the sides compare node for node. *)
let random_integer_network r =
  let n = 3 + Prng.int r 10 in
  let net = F.create n in
  for _ = 1 to 2 + Prng.int r (4 * n) do
    let src = Prng.int r n and dst = Prng.int r n in
    if src <> dst then
      ignore (F.add_edge net ~src ~dst ~cap:(float_of_int (1 + Prng.int r 9)))
  done;
  net

let copy_network net =
  let fresh = F.create (F.node_count net) in
  for e = 0 to F.edge_count net - 1 do
    let a = 2 * e in
    ignore
      (F.add_edge fresh ~src:(F.arc_dst net (a + 1)) ~dst:(F.arc_dst net a)
         ~cap:(F.arc_cap net a))
  done;
  fresh

let test_repair_property () =
  let kinds = [| "source"; "sink"; "internal" |] in
  let lowered = Array.make 3 0 in
  for seed = 1 to 300 do
    let r = Helpers.rng seed in
    let net = random_integer_network r in
    let s = 0 and t = F.node_count net - 1 in
    ignore (Dsd_flow.Dinic.max_flow net ~s ~t);
    let carrying =
      List.init (F.edge_count net) (fun e -> 2 * e)
      |> List.filter (fun a -> F.arc_flow net a > 0.5)
      |> Array.of_list
    in
    if Array.length carrying > 0 then begin
      let a = carrying.(Prng.int r (Array.length carrying)) in
      let kind =
        if F.arc_dst net (a lxor 1) = s then 0
        else if F.arc_dst net a = t then 1
        else 2
      in
      lowered.(kind) <- lowered.(kind) + 1;
      let cap = float_of_int (Prng.int r (int_of_float (F.arc_flow net a))) in
      let ctx =
        Printf.sprintf "%s: %s arc %d lowered to %g" (Helpers.seed_ctx seed)
          kinds.(kind) a cap
      in
      ignore (F.set_cap_warm net ~s ~sink:t a cap);
      for e = 0 to F.edge_count net - 1 do
        let f = F.arc_flow net (2 * e) in
        if f < -.F.eps || f > F.arc_cap net (2 * e) +. F.eps then
          Alcotest.failf "%s: arc %d carries %g of %g" ctx (2 * e) f
            (F.arc_cap net (2 * e))
      done;
      for v = 1 to t - 1 do
        if Float.abs (excess net v) > 1e-9 then
          Alcotest.failf "%s: node %d violates conservation (excess %g)" ctx v
            (excess net v)
      done;
      ignore (Dsd_flow.Dinic.max_flow net ~s ~t);
      let fresh = copy_network net in
      let value = Dsd_check.Edmonds_karp.max_flow fresh ~s ~t in
      Alcotest.(check (float 1e-9)) (ctx ^ ": max-flow value") value
        (F.flow_value net ~s);
      Alcotest.(check (array bool)) (ctx ^ ": min-cut side")
        (Dsd_flow.Min_cut.source_side fresh ~s)
        (Dsd_flow.Min_cut.source_side net ~s)
    end
  done;
  Array.iteri
    (fun i c ->
      if c < 20 then Alcotest.failf "only %d %s arcs lowered" c kinds.(i))
    lowered

(* ---- Obs accounting contracts ---- *)

let counter = Counter.get

(* Exact probes keep their flow on one grid: the first probe on an
   arena builds it, every later one re-aims it (a retarget), and a
   search that probes one arena twice rises on its grid, so it starts
   at least one probe warm.  Nothing is ever drained: a warm aim only
   raises capacities. *)
let check_probe_accounting label ~probes =
  let builds = counter Counter.Flow_networks_built in
  Alcotest.(check int)
    (label ^ ": builds + retargets = probes")
    probes
    (builds + counter Counter.Flow_retargets);
  if probes > builds then
    Alcotest.(check bool) (label ^ ": a second probe on one arena starts warm")
      true
      (counter Counter.Flow_warm_starts > 0);
  Alcotest.(check int) (label ^ ": nothing drained") 0
    (counter Counter.Flow_excess_drained)

let test_warm_accounting_exact () =
  let g = Helpers.random_graph ~seed:11 ~max_n:20 ~max_m:60 () in
  let r = Obs.with_recording (fun () -> Dsd_core.Exact.run g P.triangle) in
  let probes = r.Dsd_core.Exact.stats.Dsd_core.Exact.iterations in
  Alcotest.(check bool) "ran a real search" true (probes > 1);
  check_probe_accounting "Exact" ~probes

let test_warm_accounting_core_exact () =
  for seed = 1 to 20 do
    let g = Helpers.random_graph ~seed ~max_n:26 ~max_m:90 () in
    let r =
      Obs.with_recording (fun () -> Dsd_core.Core_exact.run g P.triangle)
    in
    check_probe_accounting
      (Printf.sprintf "CoreExact %s" (Helpers.seed_ctx seed))
      ~probes:r.Dsd_core.Core_exact.stats.Dsd_core.Core_exact.iterations
  done

let test_warm_accounting_pexact_variants () =
  let g = Helpers.random_graph ~seed:23 ~max_n:18 ~max_m:60 () in
  let r =
    Obs.with_recording (fun () ->
        Dsd_core.Exact.run ~family:FB.Pds g P.triangle)
  in
  check_probe_accounting "PExact"
    ~probes:r.Dsd_core.Exact.stats.Dsd_core.Exact.iterations;
  let r =
    Obs.with_recording (fun () -> Dsd_core.Core_pexact.run g P.diamond)
  in
  check_probe_accounting "CorePExact"
    ~probes:r.Dsd_core.Core_exact.stats.Dsd_core.Core_exact.iterations

let test_warm_accounting_query () =
  let g = Dsd_data.Paper_graphs.two_cliques ~a:6 ~b:4 ~bridge:true in
  let r =
    Obs.with_recording (fun () ->
        Dsd_core.Query_dsd.run g P.triangle ~query:[| G.n g - 1 |])
  in
  check_probe_accounting "Query" ~probes:r.Dsd_core.Query_dsd.iterations

let suite =
  [
    Alcotest.test_case "warm = reset: values + dense sides (all families)"
      `Quick test_warm_vs_reset_differential;
    Alcotest.test_case "restore_arc drains excess to the source" `Quick
      test_sink_arc_drains_excess;
    Alcotest.test_case "restore_arc is a no-op on feasible arcs" `Quick
      test_raise_is_noop;
    Alcotest.test_case "obs: Exact warm accounting" `Quick
      test_warm_accounting_exact;
    Alcotest.test_case "obs: CoreExact warm accounting" `Quick
      test_warm_accounting_core_exact;
    Alcotest.test_case "obs: PExact/CorePExact warm accounting" `Quick
      test_warm_accounting_pexact_variants;
    Alcotest.test_case "obs: Query warm accounting" `Quick
      test_warm_accounting_query;
    Alcotest.test_case "set_cap_warm: lowered arcs re-solve to Edmonds-Karp"
      `Quick test_repair_property;
  ]
