module G = Dsd_graph.Graph

type stats = {
  iterations : int;
  last_network_nodes : int;
  mu : int;
  elapsed_s : float;
}

type result = {
  subgraph : Density.subgraph;
  stats : stats;
}

let run ?pool ?(warm = true) ?family ?instances ?prepared g psi =
  Dsd_obs.Span.with_ Dsd_obs.Phase.exact @@ fun () ->
  let t0 = Dsd_util.Timer.now_s () in
  let n = G.n g in
  let family =
    match family with
    | Some f -> f
    | None -> Flow_build.auto_family psi
  in
  let instances =
    match (family, instances) with
    | Flow_build.Eds, _ -> [||]  (* the EDS network needs no instance list *)
    | _, Some i -> i             (* enumerated once by a caller that repeats *)
    | _, None -> Enumerate.instances ?pool g psi
  in
  let max_deg =
    match family with
    | Flow_build.Eds -> G.max_degree g
    | _ ->
      Array.fold_left max 0 (Flow_build.instance_degrees ?pool n instances)
  in
  let mu =
    match family with
    | Flow_build.Eds -> G.m g
    | _ -> Array.length instances
  in
  let finish best iterations last_nodes =
    { subgraph = best;
      stats =
        { iterations;
          last_network_nodes = last_nodes;
          mu;
          elapsed_s = Dsd_util.Timer.now_s () -. t0 } }
  in
  if n = 0 || mu = 0 then finish Density.empty 0 0
  else begin
    (* The network topology is alpha-invariant: build the arena once on
       the first iteration, then only re-point the alpha arcs.  A
       caller-owned [?prepared] slot survives this call, so a server
       answering the same (g, psi) twice pays the build exactly once
       and every later search is pure retargets (warm-started from
       whatever flow the previous search left committed — the min-cut
       source side is unique, so results are unchanged). *)
    let arena =
      Parametric.arena ?pool ~warm ?slot:prepared family g psi ~instances
    in
    let best_vertices = ref [||] in
    let iterations = ref 0 in
    (* Algorithm 1 lines 1-3: l = 0, u = max clique-degree; stop when
       the interval is below the minimal density gap. *)
    Parametric.bisect
      ~gap:(Fun.const (Density.stop_gap n))
      ~l:0. ~u:(float_of_int max_deg)
      (fun alpha ->
        incr iterations;
        Dsd_obs.Counter.incr Dsd_obs.Counter.Core_iterations;
        let s_side = Parametric.probe arena alpha in
        if Array.length s_side = 0 then None
        else begin
          best_vertices := s_side;
          Some alpha
        end);
    let best =
      if Array.length !best_vertices = 0 then
        (* The optimum equals the trivial lower bound only when every
           density is 0, excluded above; the remaining corner is a
           single dense component found at the first step. *)
        Density.empty
      else Density.of_vertices g psi !best_vertices
    in
    finish best !iterations (Parametric.nodes arena)
  end
