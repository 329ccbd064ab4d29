module G = Dsd_graph.Graph

type prunings = { p1 : bool; p2 : bool }

let all_prunings = { p1 = true; p2 = true }
let no_prunings = { p1 = false; p2 = false }

type stats = {
  iterations : int;
  network_nodes : int list;
  kmax : int;
  decompose_s : float;
  flow_s : float;
  elapsed_s : float;
}

type result = {
  subgraph : Density.subgraph;
  stats : stats;
}

let run ?pool ?(prunings = all_prunings) ?family ?decomp g psi =
  Dsd_obs.Span.with_ Dsd_obs.Phase.core_exact @@ fun () ->
  let t0 = Dsd_util.Timer.now_s () in
  let p = psi.Dsd_pattern.Pattern.size in
  let family =
    match family with
    | Some f -> f
    | None -> Flow_build.auto_family psi
  in
  let iterations = ref 0 in
  let network_nodes = ref [] in
  let flow_s = ref 0. in
  (* ---- Step 1: (k, Psi)-core decomposition, tracking rho' ---- *)
  (* A caller-supplied decomposition (the serving layer's prepared-state
     cache) replaces the expensive step when it carries the density
     tracking Pruning1 reads; one that lacks it is recomputed rather
     than trusted, so results never depend on how the cache was
     populated. *)
  let decomp, decompose_s =
    match decomp with
    | Some d
      when (not prunings.p1)
           || Array.length d.Clique_core.residual_densities > 0
           || d.Clique_core.mu_total = 0 ->
      (d, 0.)
    | _ ->
      Dsd_util.Timer.time (fun () ->
          Clique_core.decompose ?pool ~track_density:prunings.p1 g psi)
  in
  let kmax = decomp.Clique_core.kmax in
  let finish (vertices, c) =
    { subgraph = Density.of_count vertices c;
      stats =
        { iterations = !iterations;
          network_nodes = List.rev !network_nodes;
          kmax;
          decompose_s;
          flow_s = !flow_s;
          elapsed_s = Dsd_util.Timer.now_s () -. t0 } }
  in
  if decomp.Clique_core.mu_total = 0 then finish ([||], 0)
  else begin
    (* The best witnessed set and its instance count.  Its density is
       the search's lower bound, and already at least Theorem 1's
       kmax / |V_Psi|: the kmax-core is itself a residual graph, and
       every vertex in it has kmax instances inside it. *)
    let best =
      ref
        (if prunings.p1 then
           ( Clique_core.best_residual decomp,
             decomp.Clique_core.best_residual_count )
         else
           let vs = Clique_core.kmax_core decomp in
           (vs, Density.count g psi vs))
    in
    let beats c vs =
      let bv, bc = !best in
      c * Array.length bv > bc * Array.length vs
    in
    let ceil_best () =
      let bv, bc = !best in
      Density.ceil_ratio bc (Array.length bv)
    in
    let components k =
      let core_graph, core_map =
        G.induced g (Clique_core.core_vertices decomp ~k)
      in
      Dsd_graph.Traversal.component_members core_graph
      |> List.map (Array.map (fun v -> core_map.(v)))
    in
    let level = max 1 (ceil_best ()) in
    (* ---- Pruning2: per-component densities of the core ---- *)
    let level, comps =
      let comps = components level in
      if prunings.p2 then begin
        List.iter
          (fun comp ->
            let c = Density.count g psi comp in
            if beats c comp then best := (comp, c))
          comps;
        let k2 = ceil_best () in
        (* Re-locate in the higher core. *)
        if k2 > level then (k2, components k2) else (level, comps)
      end
      else (level, comps)
    in
    (* ---- Per-component exact searches ----
       Each component starts at the post-Pruning2 bound, so its probes
       depend only on the component.  A component whose core-number
       upper bound lies strictly below the running best can hold
       neither a denser set nor a tie; the strict [beats] keeps the
       first component to reach the optimum. *)
    let start = !best in
    let shrink comp k =
      Array.of_list
        (List.filter
           (fun v -> decomp.Clique_core.core.(v) >= k)
           (Array.to_list comp))
    in
    List.iter
      (fun comp ->
        let ub =
          Array.fold_left
            (fun acc v -> max acc decomp.Clique_core.core.(v))
            0 comp
        in
        let bv, bc = !best in
        if Array.length comp >= p && ub * Array.length bv >= bc then begin
          let arenas = ref [] in
          let arena_on vs =
            let a = Parametric.arena ?pool ~within:vs family g psi in
            arenas := a :: !arenas;
            a
          in
          (* Optimisation 3: once the witnessed density passes the
             component's core level, every denser set lies in the
             higher core, so the search continues on a smaller
             network. *)
          let comp = ref comp and level = ref level in
          let restrict ~num ~den =
            let k = Density.ceil_ratio num den in
            if k <= !level then None
            else begin
              level := k;
              let smaller = shrink !comp k in
              if Array.length smaller >= p
                 && Array.length smaller < Array.length !comp
              then begin
                comp := smaller;
                Some (arena_on smaller)
              end
              else None
            end
          in
          let first = arena_on !comp in
          let (side, c), secs =
            Dsd_util.Timer.time (fun () ->
                Parametric.dinkelbach ~restrict first start)
          in
          flow_s := !flow_s +. secs;
          List.iter
            (fun a ->
              let probes = Parametric.probes a in
              iterations := !iterations + probes;
              for _ = 1 to probes do
                network_nodes := Parametric.nodes a :: !network_nodes
              done)
            (List.rev !arenas);
          if beats c side then best := (side, c)
        end)
      comps;
    Dsd_obs.Counter.add Dsd_obs.Counter.Core_iterations !iterations;
    finish !best
  end
