(* The incremental subsystem pinned against from-scratch rebuilds.

   The battery streams random insert/delete batches (30+ seeds, h in
   {2, 3}, mixed batch sizes) into one long-lived Inc_dsd session and
   asserts, after EVERY batch, that the patched state is bit-identical
   to a rebuild: the snapshot's edge set against the rebuilt graph,
   density and CDS vertex set against a fresh session on the rebuilt
   graph, and density against CoreExact.  Every failure message
   carries the Helpers.seed_ctx replay recipe. *)

module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module Dyn = Dsd_graph.Dynamic
module Inc = Dsd_core.Inc_dsd
module Delta = Dsd_check.Delta
module F = Dsd_flow.Flow_network

let psi_of_h = function
  | 2 -> P.edge
  | 3 -> P.triangle
  | h -> P.clique h

let sorted_edges edges =
  let l =
    Array.to_list
      (Array.map (fun (u, v) -> if u <= v then (u, v) else (v, u)) edges)
  in
  List.sort_uniq compare l

(* One batch's worth of assertions: patched session vs rebuilt graph. *)
let check_against_rebuild ~ctx session rebuilt =
  let psi = Inc.psi session in
  let dyn = Inc.dynamic session in
  Alcotest.(check (list (pair int int)))
    (ctx ^ ": snapshot edge set")
    (sorted_edges (G.edges rebuilt))
    (sorted_edges (G.edges (Dyn.snapshot dyn)));
  let patched = Inc.query session in
  let fresh = Inc.query (Inc.create rebuilt psi) in
  if patched.density <> fresh.density then
    Alcotest.failf "%s: patched density %.17g <> rebuilt %.17g" ctx
      patched.density fresh.density;
  Alcotest.(check (array int))
    (ctx ^ ": patched CDS vertex set vs rebuilt")
    fresh.vertices patched.vertices;
  let core =
    (Dsd_core.Core_exact.run rebuilt psi).Dsd_core.Core_exact.subgraph
  in
  if patched.density <> core.density then
    Alcotest.failf "%s: incremental density %.17g <> CoreExact %.17g" ctx
      patched.density core.density

(* ---- the differential battery ---- *)

let battery_one ~seed ~h =
  let g0 = Helpers.random_graph ~seed ~max_n:12 ~max_m:25 () in
  let n = G.n g0 in
  let psi = psi_of_h h in
  let session = Inc.create g0 psi in
  let rng = Helpers.rng ((seed * 1000) + h) in
  let edges = ref (G.edges g0) in
  let batch_no = ref 0 in
  (* several generator rounds so the stream mixes growth and decay *)
  for _round = 1 to 2 do
    let script = Delta.generate rng (G.of_edges ~n !edges) in
    Array.iter
      (fun batch ->
        incr batch_no;
        ignore (Inc.apply session batch);
        edges := Delta.final_edges ~n !edges [| batch |];
        let rebuilt = G.of_edges ~n !edges in
        check_against_rebuild
          ~ctx:
            (Printf.sprintf "%s h=%d batch=%d (%s)" (Helpers.seed_ctx seed)
               h !batch_no
               (Delta.to_string [| batch |]))
          session rebuilt)
      script
  done

let test_battery () =
  for seed = 1 to 35 do
    List.iter (fun h -> battery_one ~seed ~h) [ 2; 3 ]
  done

(* Sessions for three patterns attached to one handle, patched
   together by [apply_all] over the battery's streams: after every
   batch each equals a rebuild, as a session that owns its handle
   does.  A session of another handle is refused. *)
let shared_one ~seed =
  let g0 = Helpers.random_graph ~seed ~max_n:12 ~max_m:25 () in
  let n = G.n g0 in
  let dyn = Dyn.of_graph g0 in
  let sessions =
    List.map (Inc.attach dyn) [ P.edge; P.triangle; P.clique 4 ]
  in
  let rng = Helpers.rng ((seed * 1000) + 4) in
  let edges = ref (G.edges g0) in
  let batch_no = ref 0 in
  for _round = 1 to 2 do
    let script = Delta.generate rng (G.of_edges ~n !edges) in
    Array.iter
      (fun batch ->
        incr batch_no;
        ignore (Inc.apply_all dyn sessions batch);
        edges := Delta.final_edges ~n !edges [| batch |];
        let rebuilt = G.of_edges ~n !edges in
        let ctx =
          Printf.sprintf "%s shared batch=%d (%s)" (Helpers.seed_ctx seed)
            !batch_no
            (Delta.to_string [| batch |])
        in
        List.iter
          (fun s ->
            check_against_rebuild
              ~ctx:(Printf.sprintf "%s %s" ctx (Inc.psi s).P.name)
              s rebuilt)
          sessions)
      script
  done;
  let other = Inc.create g0 P.triangle in
  Alcotest.check_raises "a session of another handle is refused"
    (Invalid_argument "Inc_dsd.apply_all: a session reads another handle")
    (fun () -> ignore (Inc.apply_all dyn (other :: sessions) [||]))

let test_shared_battery () =
  for seed = 1 to 35 do
    shared_one ~seed
  done

(* ---- edge cases: empty graph, delete to empty ---- *)

let test_empty_graph () =
  let g = G.of_edges ~n:0 [||] in
  let session = Inc.create g P.edge in
  ignore (Inc.apply session [||]);
  let sg = Inc.query session in
  Helpers.check_float "empty graph density" 0.0 sg.density;
  Alcotest.(check int) "empty graph CDS" 0 (Array.length sg.vertices)

let test_delete_to_empty () =
  List.iter
    (fun h ->
      let seed = 99 + h in
      let g = Helpers.random_graph ~seed ~max_n:8 ~max_m:14 () in
      let n = G.n g in
      let session = Inc.create g (psi_of_h h) in
      let edges = ref (G.edges g) in
      (* one delete per batch until nothing is left *)
      Array.iter
        (fun (u, v) ->
          let batch = [| Dyn.Remove (u, v) |] in
          ignore (Inc.apply session batch);
          edges := Delta.final_edges ~n !edges [| batch |];
          check_against_rebuild
            ~ctx:
              (Printf.sprintf "%s h=%d delete (%d,%d)" (Helpers.seed_ctx seed)
                 h u v)
            session (G.of_edges ~n !edges))
        (G.edges g);
      Alcotest.(check int)
        (Helpers.seed_ctx seed ^ ": graph drained to zero edges")
        0
        (Dyn.m (Inc.dynamic session));
      Alcotest.(check int)
        (Helpers.seed_ctx seed ^ ": no live instances after draining")
        0
        (Inc.live_instances session);
      (* and regrow: the session must come back from empty *)
      ignore (Inc.apply session (Array.map (fun (u, v) -> Dyn.Add (u, v)) (G.edges g)));
      check_against_rebuild
        ~ctx:(Helpers.seed_ctx seed ^ ": regrown after delete-to-empty")
        session g)
    [ 2; 3 ]

(* ---- Dynamic unit behaviour ---- *)

let test_dynamic_noops () =
  let t = Dyn.create ~n:4 [| (0, 1); (1, 2) |] in
  Alcotest.(check bool) "self-loop insert is a no-op" false (Dyn.add_edge t 2 2);
  Alcotest.(check bool) "duplicate insert is a no-op" false (Dyn.add_edge t 1 0);
  Alcotest.(check bool) "absent delete is a no-op" false (Dyn.remove_edge t 0 3);
  Alcotest.(check int) "m unchanged by no-ops" 2 (Dyn.m t);
  Alcotest.(check bool) "insert" true (Dyn.add_edge t 0 2);
  Alcotest.(check bool) "mem_edge symmetric" true (Dyn.mem_edge t 2 0);
  Alcotest.(check int) "m after insert" 3 (Dyn.m t);
  Alcotest.(check bool) "delete" true (Dyn.remove_edge t 2 1);
  Alcotest.(check int) "m after delete" 2 (Dyn.m t);
  Alcotest.(check (array int)) "neighbors sorted" [| 1; 2 |] (Dyn.neighbors t 0)

(* An edge change allocates O(1) minor words: each endpoint's
   adjacency set gains or loses one cell, and nothing else is kept.
   The graph has the serve benchmark stream graph's shape; 1,000 of
   its edges, spread over the edge array, are removed and re-added. *)
let test_dynamic_allocation () =
  let g = Dsd_data.Gen.barabasi_albert ~seed:2003 ~n:2000 ~attach:3 in
  let all = G.edges g in
  let edges = Array.init 1000 (fun i -> all.(i * Array.length all / 1000)) in
  let t = Dyn.of_graph g in
  let removes = Array.map (fun (u, v) -> Dyn.Remove (u, v)) edges in
  let adds = Array.map (fun (u, v) -> Dyn.Add (u, v)) edges in
  let changes = 2 * Array.length edges in
  let bound = (16 * changes) + 4096 in
  let w0 = Gc.minor_words () in
  let removed = Dyn.apply t removes in
  let added = Dyn.apply t adds in
  let words = int_of_float (Gc.minor_words () -. w0) in
  Alcotest.(check int) "every change applied" changes (removed + added);
  Alcotest.(check int) "edge count restored" (G.m g) (Dyn.m t);
  if words > bound then
    Alcotest.failf "%d edge changes allocated %d minor words (bound %d)"
      changes words bound

(* A query costs O(vertices in live instances + instance nodes), not
   O(n): after an apply on a triangle session over K6 plus 100,000
   isolated vertices, the query (some 40 probes of a cold bisection
   with n's stopping gap) allocates well under one n-cell array, where
   every probe over an n-node arena would allocate several. *)
let test_query_allocation () =
  let isolated = 100_000 in
  let n = 6 + isolated in
  let k6 = ref [] in
  for u = 0 to 5 do
    for v = u + 1 to 5 do
      k6 := (u, v) :: !k6
    done
  done;
  let session = Inc.create (G.of_edges ~n (Array.of_list !k6)) P.triangle in
  (* vertex 6 joins a live instance: the triangle {0, 1, 6} *)
  ignore (Inc.apply session [| Dyn.Add (0, 6); Dyn.Add (1, 6) |]);
  let b0 = Gc.allocated_bytes () in
  let sg = Inc.query session in
  let words =
    int_of_float ((Gc.allocated_bytes () -. b0) /. float_of_int (Sys.word_size / 8))
  in
  let bound = n / 4 in
  if words > bound then
    Alcotest.failf "a query allocated %d words (bound %d, n = %d)" words bound n;
  Alcotest.(check (array int)) "the CDS is the K6" [| 0; 1; 2; 3; 4; 5 |]
    sg.vertices;
  let core =
    (Dsd_core.Core_exact.run (Inc.graph session) P.triangle)
      .Dsd_core.Core_exact.subgraph
  in
  if sg.density <> core.density then
    Alcotest.failf "incremental density %.17g <> CoreExact %.17g" sg.density
      core.density

(* ---- Delta model and shrinker ---- *)

let test_delta_final_edges () =
  let script =
    [| [| Dyn.Add (0, 1); Dyn.Add (1, 1); Dyn.Add (0, 1) |];
       [| Dyn.Remove (2, 3); Dyn.Add (2, 0); Dyn.Remove (1, 0) |];
    |]
  in
  Alcotest.(check (list (pair int int)))
    "self-loops, duplicates and absent deletes are no-ops"
    [ (0, 2) ]
    (Array.to_list (Delta.final_edges ~n:4 [||] script))

let test_delta_shrink () =
  let script =
    [| [| Dyn.Add (0, 1); Dyn.Add (1, 2) |];
       [| Dyn.Remove (0, 1); Dyn.Add (2, 3) |];
       [| Dyn.Add (3, 4) |];
    |]
  in
  let still_fails s =
    Array.exists (fun b -> Array.exists (( = ) (Dyn.Remove (0, 1))) b) s
  in
  let minimal = Delta.shrink script ~still_fails in
  Alcotest.(check string)
    "shrinks to the single culprit op" "-0,1" (Delta.to_string minimal);
  Alcotest.(check bool)
    "shrunk script still fails" true (still_fails minimal)

(* ---- flow-arena repair primitives ---- *)

(* net outflow at a node: 0 on every conserving node of a feasible flow *)
let imbalance net v =
  let total = ref 0.0 in
  F.iter_arcs_from net v ~f:(fun a -> total := !total +. F.arc_flow net a);
  !total

let check_feasible ~ctx net ~s ~t =
  for a = 0 to (2 * F.edge_count net) - 1 do
    if F.arc_flow net a > F.arc_cap net a +. F.eps then
      Alcotest.failf "%s: arc %d over capacity (flow %g, cap %g)" ctx a
        (F.arc_flow net a) (F.arc_cap net a)
  done;
  for v = 0 to F.node_count net - 1 do
    if v <> s && v <> t && Float.abs (imbalance net v) > 1e-7 then
      Alcotest.failf "%s: conservation violated at node %d (net %g)" ctx v
        (imbalance net v)
  done

let test_add_node () =
  let net = F.create 2 in
  let a = F.add_node net in
  Alcotest.(check int) "fresh id" 2 a;
  Alcotest.(check int) "node count grew" 3 (F.node_count net);
  let e = F.add_edge net ~src:0 ~dst:a ~cap:1.5 in
  Alcotest.(check int) "arcs to the new node work" a (F.arc_dst net e)

(* s -> a -> b -> t path saturated, then the internal arc is lowered
   under flow: set_cap_warm must drain the surplus at a and cancel the
   deficit at b, leaving a feasible (here: smaller) flow. *)
let test_repair_internal_arc () =
  let net = F.create 4 in
  let s = 0 and a = 1 and b = 2 and t = 3 in
  let _sa = F.add_edge net ~src:s ~dst:a ~cap:2.0 in
  let ab = F.add_edge net ~src:a ~dst:b ~cap:2.0 in
  let _bt = F.add_edge net ~src:b ~dst:t ~cap:2.0 in
  let flow, _ = Dsd_flow.Min_cut.solve net ~s ~t in
  Helpers.check_float "max flow before" 2.0 flow;
  ignore (F.set_cap_warm net ~s ~sink:t ab 0.5);
  check_feasible ~ctx:"internal arc" net ~s ~t;
  Helpers.check_float "flow value shrank to the new bottleneck" 0.5
    (F.flow_value net ~s)

(* lowering a source arc under flow: set_cap_warm repairs the head-side
   deficit by cancelling forward flow to the sink *)
let test_repair_source_arc () =
  let net = F.create 4 in
  let s = 0 and a = 1 and b = 2 and t = 3 in
  let sa = F.add_edge net ~src:s ~dst:a ~cap:2.0 in
  let _ab = F.add_edge net ~src:a ~dst:b ~cap:2.0 in
  let _bt = F.add_edge net ~src:b ~dst:t ~cap:2.0 in
  ignore (Dsd_flow.Min_cut.solve net ~s ~t);
  ignore (F.set_cap_warm net ~s ~sink:t sa 1.0);
  check_feasible ~ctx:"source arc" net ~s ~t;
  Helpers.check_float "flow value shrank to the new source cap" 1.0
    (F.flow_value net ~s)

let suite =
  [
    Alcotest.test_case "differential battery (35 seeds x h in {2,3})" `Slow
      test_battery;
    Alcotest.test_case "empty graph" `Quick test_empty_graph;
    Alcotest.test_case "delete to empty and regrow" `Quick
      test_delete_to_empty;
    Alcotest.test_case "Dynamic: no-op semantics" `Quick test_dynamic_noops;
    Alcotest.test_case "Dynamic edge changes allocate O(1) minor words"
      `Quick test_dynamic_allocation;
    Alcotest.test_case "Delta: final_edges model" `Quick
      test_delta_final_edges;
    Alcotest.test_case "Delta: shrinker minimizes" `Quick test_delta_shrink;
    Alcotest.test_case "Flow: add_node grows the arena" `Quick test_add_node;
    Alcotest.test_case "Flow: restore_arc_full repairs internal arcs" `Quick
      test_repair_internal_arc;
    Alcotest.test_case "Flow: restore_arc_head repairs source arcs" `Quick
      test_repair_source_arc;
    Alcotest.test_case "a query allocates O(instances), not O(n)" `Quick
      test_query_allocation;
    Alcotest.test_case "sessions sharing one handle equal rebuilds" `Slow
      test_shared_battery;
  ]
