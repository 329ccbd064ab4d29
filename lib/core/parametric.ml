module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern
module F = Dsd_flow.Flow_network

type arena = {
  build : unit -> Flow_build.t;
  slot : Flow_build.t option ref;
  graph : G.t;  (* G[within], in local ids *)
  map : int array option;  (* local id -> caller id; None = identity *)
  eds : bool;
  instances : Dsd_clique.Instances.t;  (* of [graph]; empty for Eds *)
  inside : bool array;
  mutable probes : int;
}

let pinned_family (psi : P.t) =
  match psi.kind with
  | P.Clique -> Flow_build.Clique_flow
  | P.Star _ | P.Cycle4 | P.Generic -> Flow_build.Pds_grouped

let arena ?within ?pinned ?instances ?(slot = ref None) family g psi =
  let graph, map =
    match within with
    | None -> (g, None)
    | Some vs ->
      let sub, map = G.induced g vs in
      (sub, Some map)
  in
  let pinned =
    match (pinned, map) with
    | Some pins, Some map ->
      let local = Array.make (G.n g) (-1) in
      Array.iteri (fun i v -> local.(v) <- i) map;
      let pins = Array.map (Array.get local) pins in
      if Array.exists (fun v -> v < 0) pins then
        invalid_arg "Parametric.arena: a pinned vertex lies outside [within]";
      Some pins
    | _ -> pinned
  in
  (* Goldberg's network sums its scaled capacities to
     2 n' m' den + 2 n' num over G[within] (n' vertices, m' edges), and
     a witness of g has den <= n and num <= m.  Where that can reach
     2^53 the instance network takes its place: its minimal min cut has
     the same vertex side, and it sums to about 4 m' den + 2 n' num.
     Either way the Eds family ignores caller instances. *)
  let family, instances =
    match family with
    | Flow_build.Eds ->
      let f = float_of_int in
      let sum =
        2. *. f (G.n graph) *. ((f (G.m graph) *. f (G.n g)) +. f (G.m g))
      in
      ((if sum < 0x1p53 then family else pinned_family psi), None)
    | _ -> (family, instances)
  in
  let eds = family = Flow_build.Eds in
  let instances =
    match instances with
    | _ when eds -> Dsd_clique.Instances.empty ~arity:psi.P.size
    | Some i -> i
    | None -> Enumerate.instances graph psi
  in
  { build =
      (fun () ->
        Flow_build.prepare ?pinned family graph psi ~instances);
    slot;
    graph;
    map;
    eds;
    instances;
    inside = Array.make (max 1 (G.n graph)) false;
    probes = 0 }

let total a = if a.eds then G.m a.graph else a.instances.count

(* The source side in local ids. *)
let probe_local a ~num ~den =
  if den <= 0 then invalid_arg "Parametric.probe_rational: den <= 0";
  if num < 0 then invalid_arg "Parametric.probe_rational: num < 0";
  let network =
    match !(a.slot) with
    | Some network ->
      Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_retargets;
      network
    | None ->
      let network = a.build () in
      a.slot := Some network;
      network
  in
  (* Cold and scaled by [den]: the law base + coef * num / den becomes
     base * den + coef * num, an integer like every other capacity.
     Dinic stays exact while no flow value can reach 2^53, which the
     sum of the finite capacities bounds. *)
  Dsd_obs.Span.with_ Dsd_obs.Phase.retarget (fun () ->
      if F.recapacitate network.Flow_build.net ~den ~num >= 0x1p53 then
        invalid_arg
          "Parametric.probe_rational: the scaled capacities reach 2^53");
  a.probes <- a.probes + 1;
  Flow_build.solve network

let lift a side =
  match a.map with
  | None -> side
  | Some map -> Array.map (Array.get map) side

let probe_rational a ~num ~den = lift a (probe_local a ~num ~den)

(* c(S) for a local side S: instances inside S, or edges of G[S]. *)
let count a side =
  Array.iter (fun v -> a.inside.(v) <- true) side;
  let c =
    if a.eds then
      Array.fold_left
        (fun c v ->
          G.fold_neighbors a.graph v ~init:c ~f:(fun c u ->
              if u > v && a.inside.(u) then c + 1 else c))
        0 side
    else Dsd_clique.Instances.count_inside a.instances a.inside
  in
  Array.iter (fun v -> a.inside.(v) <- false) side;
  c

let dinkelbach ?(restrict = fun ~num:_ ~den:_ -> None) a witness =
  let rec go a ((s, c) as best) =
    let side = probe_local a ~num:c ~den:(Array.length s) in
    let c' = count a side and den = Array.length side in
    if c' * Array.length s > c * den then
      go
        (Option.value (restrict ~num:c' ~den) ~default:a)
        (lift a side, c')
    else best
  in
  go a witness

let probes a = a.probes

let nodes a =
  match !(a.slot) with
  | Some network -> network.Flow_build.node_count
  | None -> 0

let bisect ~gap ~l ~u decide =
  let l = ref l and u = ref u in
  while !u -. !l >= gap () do
    let alpha = (!l +. !u) /. 2. in
    match decide alpha with
    | Some l' -> l := l'
    | None -> u := alpha
  done
