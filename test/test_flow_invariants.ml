(* Flow-invariant property suite on randomized networks, run for both
   Dinic and Edmonds-Karp: conservation at every non-terminal node,
   max-flow = min-cut capacity, residuals never negative beyond eps,
   and [reset_flow] restoring a bit-identical capacity vector; a
   network grown between solves keeps each node's arcs in insertion
   order and re-solves exactly like the same arcs built in one go.  Plus
   the pinned [set_cap] semantics: lowering a capacity below committed
   flow is *rejected* (never silently saturated) — lowering under flow
   is [set_cap_warm]'s job (test_warmstart.ml). *)

module F = Dsd_flow.Flow_network
module Prng = Dsd_util.Prng

let solvers =
  [ ("dinic", Dsd_flow.Dinic.max_flow);
    ("edmonds-karp", Dsd_check.Edmonds_karp.max_flow) ]

(* Seeded network with mixed integer/fractional capacities. *)
let random_network seed =
  let r = Prng.create seed in
  let n = 2 + Prng.int r 14 in
  let net = F.create n in
  let arcs = 1 + Prng.int r (4 * n) in
  for _ = 1 to arcs do
    let src = Prng.int r n and dst = Prng.int r n in
    if src <> dst then begin
      let cap =
        if Prng.int r 3 = 0 then Prng.float r 10.
        else float_of_int (1 + Prng.int r 20)
      in
      ignore (F.add_edge net ~src ~dst ~cap)
    end
  done;
  (net, n)

(* Net outflow of [v]: [arcs_from v] holds forward arcs (+flow) and
   residual twins of incoming arcs (-flow of the forward arc), so the
   sum is outflow - inflow. *)
let excess net v =
  Array.fold_left
    (fun acc e -> acc +. F.arc_flow net e)
    0. (F.arcs_from net v)

let seeds = List.init 60 Fun.id

let test_conservation (_, max_flow) () =
  List.iter
    (fun seed ->
      let net, n = random_network seed in
      let s = 0 and t = n - 1 in
      let value = max_flow net ~s ~t in
      for v = 0 to n - 1 do
        let e = excess net v in
        let expect = if v = s then value else if v = t then -.value else 0. in
        if Float.abs (e -. expect) > 1e-6 then
          Alcotest.failf "%s node=%d excess %f, expected %f" (Helpers.seed_ctx seed) v e
            expect
      done)
    seeds

let test_flow_equals_cut (_, max_flow) () =
  List.iter
    (fun seed ->
      let net, n = random_network seed in
      let s = 0 and t = n - 1 in
      let value = max_flow net ~s ~t in
      let side = Dsd_flow.Min_cut.source_side net ~s in
      Alcotest.(check bool) "t not on source side" false side.(t);
      Alcotest.(check (float 1e-6))
        (Printf.sprintf "%s flow = cut capacity" (Helpers.seed_ctx seed))
        value
        (Dsd_flow.Min_cut.cut_capacity net side))
    seeds

let test_residual_never_negative (_, max_flow) () =
  List.iter
    (fun seed ->
      let net, n = random_network seed in
      ignore (max_flow net ~s:0 ~t:(n - 1));
      for e = 0 to F.arc_count net - 1 do
        if F.residual net e < -.F.eps then
          Alcotest.failf "%s arc=%d residual %g < -eps" (Helpers.seed_ctx seed) e
            (F.residual net e)
      done)
    seeds

let test_reset_flow_bit_identical (_, max_flow) () =
  List.iter
    (fun seed ->
      let net, n = random_network seed in
      let caps0 =
        Array.init (F.arc_count net) (fun e ->
            Int64.bits_of_float (F.arc_cap net e))
      in
      let v1 = max_flow net ~s:0 ~t:(n - 1) in
      F.reset_flow net;
      for e = 0 to F.arc_count net - 1 do
        if Int64.bits_of_float (F.arc_cap net e) <> caps0.(e) then
          Alcotest.failf "%s arc=%d capacity changed" (Helpers.seed_ctx seed) e;
        if F.arc_flow net e <> 0. then
          Alcotest.failf "%s arc=%d flow not zeroed" (Helpers.seed_ctx seed) e
      done;
      let v2 = max_flow net ~s:0 ~t:(n - 1) in
      Alcotest.(check (float 0.))
        (Printf.sprintf "%s re-solve identical" (Helpers.seed_ctx seed))
        v1 v2)
    seeds

(* ---- growth between solves ---- *)

(* Grow a network the way the incremental arena does: batches of
   [add_node] and [add_edge] with a solve after each, the committed
   flow carried into the next batch.  Returns the network and its arcs
   as [(src, dst, cap)] in creation order. *)
let grown_network max_flow seed =
  let r = Prng.create (1000 + seed) in
  let net = F.create (2 + Prng.int r 6) in
  let arcs = ref [] in
  for _ = 0 to Prng.int r 6 do
    for _ = 1 to Prng.int r 3 do
      ignore (F.add_node net)
    done;
    let n = F.node_count net in
    for _ = 0 to Prng.int r (2 * n) do
      let src = Prng.int r n and dst = Prng.int r n in
      if src <> dst then begin
        let cap =
          if Prng.int r 3 = 0 then Prng.float r 10.
          else float_of_int (1 + Prng.int r 20)
        in
        ignore (F.add_edge net ~src ~dst ~cap);
        arcs := (src, dst, cap) :: !arcs
      end
    done;
    ignore (max_flow net ~s:0 ~t:1)
  done;
  (net, List.rev !arcs)

(* Flow value, source side and augmenting paths of one solve. *)
let counted_solve max_flow net =
  let value, side =
    Dsd_obs.Control.with_recording (fun () ->
        let value = max_flow net ~s:0 ~t:1 in
        (value, Dsd_flow.Min_cut.source_side net ~s:0))
  in
  (value, side, Dsd_obs.Counter.get Dsd_obs.Counter.Flow_augmentations)

let test_growth_between_solves (_, max_flow) () =
  List.iter
    (fun seed ->
      let ctx = Helpers.seed_ctx seed in
      let net, arcs = grown_network max_flow seed in
      let n = F.node_count net in
      for v = 2 to n - 1 do
        if Float.abs (excess net v) > 1e-6 then
          Alcotest.failf "%s node=%d not conserved after growth" ctx v
      done;
      (* Arc 2i runs src -> dst and its twin 2i+1 dst -> src, so each
         node's arcs in creation order are the ids whose tail it is. *)
      let expected = Array.make n [] in
      List.iteri
        (fun i (src, dst, _) ->
          expected.(src) <- (2 * i) :: expected.(src);
          expected.(dst) <- ((2 * i) + 1) :: expected.(dst))
        arcs;
      for v = 0 to n - 1 do
        if F.arcs_from net v <> Array.of_list (List.rev expected.(v)) then
          Alcotest.failf "%s node=%d arcs not in insertion order" ctx v
      done;
      let fresh = F.create n in
      List.iter
        (fun (src, dst, cap) -> ignore (F.add_edge fresh ~src ~dst ~cap))
        arcs;
      F.reset_flow net;
      let v1, side1, aug1 = counted_solve max_flow net in
      let v2, side2, aug2 = counted_solve max_flow fresh in
      if Int64.bits_of_float v1 <> Int64.bits_of_float v2 then
        Alcotest.failf "%s flow %h (grown) vs %h (one go)" ctx v1 v2;
      if side1 <> side2 then Alcotest.failf "%s source sides differ" ctx;
      Alcotest.(check int) (ctx ^ " augmenting paths") aug2 aug1)
    seeds

(* ---- set_cap / eps audit (pinned behaviour: reject, don't saturate) ---- *)

let test_set_cap_validation () =
  let net = F.create 2 in
  let e = F.add_edge net ~src:0 ~dst:1 ~cap:5. in
  Alcotest.check_raises "arc out of range"
    (Invalid_argument "Flow_network.set_cap: arc out of range")
    (fun () -> F.set_cap net 99 1.);
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Flow_network.set_cap: negative capacity")
    (fun () -> F.set_cap net e (-1.));
  Alcotest.check_raises "nan capacity"
    (Invalid_argument "Flow_network.set_cap: negative capacity")
    (fun () -> F.set_cap net e Float.nan)

let test_set_cap_below_committed_flow_rejected () =
  let net = F.create 2 in
  let e = F.add_edge net ~src:0 ~dst:1 ~cap:5. in
  Helpers.check_float "saturating flow" 5. (Dsd_flow.Dinic.max_flow net ~s:0 ~t:1);
  Alcotest.check_raises "lowering under flow rejected"
    (Invalid_argument "Flow_network.set_cap: capacity below committed flow")
    (fun () -> F.set_cap net e 3.);
  (* Exactly the committed flow is allowed: residual goes to ~0 but
     never negative beyond eps. *)
  F.set_cap net e 5.;
  Alcotest.(check bool) "residual >= -eps" true (F.residual net e >= -.F.eps)

let test_set_cap_after_reset_flow () =
  let net = F.create 2 in
  let e = F.add_edge net ~src:0 ~dst:1 ~cap:5. in
  ignore (Dsd_flow.Dinic.max_flow net ~s:0 ~t:1);
  F.reset_flow net;
  F.set_cap net e 3.;
  Helpers.check_float "re-solve at lowered capacity" 3.
    (Dsd_flow.Dinic.max_flow net ~s:0 ~t:1)

let test_set_cap_raise_finds_more_flow () =
  (* Raising above committed flow composes with the residual state: the
     solver finds exactly the extra headroom. *)
  let net = F.create 2 in
  let e = F.add_edge net ~src:0 ~dst:1 ~cap:2. in
  Helpers.check_float "first pass" 2. (Dsd_flow.Dinic.max_flow net ~s:0 ~t:1);
  F.set_cap net e 5.;
  Helpers.check_float "incremental flow" 3. (Dsd_flow.Dinic.max_flow net ~s:0 ~t:1)

let test_set_cap_infinity () =
  let net = F.create 2 in
  let e = F.add_edge net ~src:0 ~dst:1 ~cap:1. in
  F.set_cap net e infinity;
  Helpers.check_float "infinite cap readable" infinity (F.arc_cap net e)

let suite =
  List.concat_map
    (fun ((name, _) as solver) ->
      [ Alcotest.test_case (name ^ ": conservation at non-terminals") `Quick
          (test_conservation solver);
        Alcotest.test_case (name ^ ": max-flow = min-cut capacity") `Quick
          (test_flow_equals_cut solver);
        Alcotest.test_case (name ^ ": residual >= -eps") `Quick
          (test_residual_never_negative solver);
        Alcotest.test_case (name ^ ": reset_flow bit-identical caps") `Quick
          (test_reset_flow_bit_identical solver);
        Alcotest.test_case (name ^ ": growth between solves") `Quick
          (test_growth_between_solves solver) ])
    solvers
  @ [
      Alcotest.test_case "set_cap validation" `Quick test_set_cap_validation;
      Alcotest.test_case "set_cap below committed flow rejected" `Quick
        test_set_cap_below_committed_flow_rejected;
      Alcotest.test_case "set_cap after reset_flow" `Quick
        test_set_cap_after_reset_flow;
      Alcotest.test_case "set_cap raise finds more flow" `Quick
        test_set_cap_raise_finds_more_flow;
      Alcotest.test_case "set_cap to infinity" `Quick test_set_cap_infinity;
    ]
