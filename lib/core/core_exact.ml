module G = Dsd_graph.Graph

type prunings = { p1 : bool; p2 : bool; p3 : bool }

let all_prunings = { p1 = true; p2 = true; p3 = true }
let no_prunings = { p1 = false; p2 = false; p3 = false }

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

let safe_ceil = Dsd_util.Float_guard.safe_ceil

let run ?pool ?(warm = true) ?(prunings = all_prunings) ?family ?decomp
    g psi =
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
  let finish best =
    { subgraph = best;
      stats =
        { iterations = !iterations;
          network_nodes = List.rev !network_nodes;
          kmax;
          decompose_s;
          flow_s = !flow_s;
          elapsed_s = Dsd_util.Timer.now_s () -. t0 } }
  in
  if decomp.Clique_core.mu_total = 0 then finish Density.empty
  else begin
    (* Seed the answer with the densest subgraph already witnessed so
       an optimum equal to the lower bound survives the feasibility
       skips below. *)
    let seed_vertices =
      if prunings.p1 then Clique_core.best_residual decomp
      else Clique_core.kmax_core decomp
    in
    let best = ref (Density.of_vertices g psi seed_vertices) in
    (* Theorem 1 lower bound, improved by Pruning1's rho'. *)
    let l = ref (max (float_of_int kmax /. float_of_int p) !best.density) in
    let k'' = ref (max 1 (safe_ceil !l)) in
    (* ---- Pruning2: per-component densities of the core ---- *)
    let core_set = Clique_core.core_vertices decomp ~k:!k'' in
    let core_graph, core_map = G.induced g core_set in
    let component_sets =
      Dsd_graph.Traversal.component_members core_graph
      |> List.map (Array.map (fun v -> core_map.(v)))
    in
    let components =
      if prunings.p2 then begin
        List.iter
          (fun comp ->
            let cand = Density.of_vertices g psi comp in
            if cand.density > !best.density then best := cand)
          component_sets;
        l := max !l !best.density;
        let k2 = max !k'' (safe_ceil !l) in
        if k2 > !k'' then begin
          k'' := k2;
          (* Re-locate in the higher core. *)
          let core_set = Clique_core.core_vertices decomp ~k:!k'' in
          let core_graph, core_map = G.induced g core_set in
          Dsd_graph.Traversal.component_members core_graph
          |> List.map (Array.map (fun v -> core_map.(v)))
        end
        else component_sets
      end
      else component_sets
    in
    (* ---- Domain-striped per-component binary searches ----
       Each component's probe sequence is self-contained: the lower
       bound is frozen at the post-Pruning2 value l0, and Pruning-3
       shrinks are keyed to the component-local l, so a component's
       probe transcript depends only on the component — never on
       scheduling.  A shared atomic carries the best exact witnessed
       density so far; it is consulted ONLY for the strict
       result-invariant skip [ub < best]: a component whose core-number
       upper bound lies strictly below an already-witnessed density can
       hold neither the maximiser nor a tie, whatever the schedule.
       Candidates merge in component order with a strict [>], so the
       returned subgraph is bit-identical for every pool size,
       including no pool. *)
    let l0 = !l in
    let k0 = !k'' in
    let comps = Array.of_list components in
    let ncomps = Array.length comps in
    let best_rho = Atomic.make !best.Density.density in
    (* slot = (candidate, probe count, network sizes in probe order,
       flow seconds): stats always recorded, candidate only when the
       component produced a witness. *)
    let slots = Array.make ncomps (None, 0, [], 0.) in
    (* Restrict a component to vertices whose core number certifies
       membership in the ceil(l)-core. *)
    let shrink comp threshold =
      Array.of_list
        (List.filter
           (fun v -> decomp.Clique_core.core.(v) >= threshold)
           (Array.to_list comp))
    in
    let process ?pool ci =
      let iters = ref 0 in
      let nodes = ref [] in
      let span = Dsd_util.Timer.Span.create () in
      let probe arena alpha =
        incr iters;
        Dsd_obs.Counter.incr Dsd_obs.Counter.Core_iterations;
        Dsd_util.Timer.Span.start span;
        let s_side = Parametric.probe arena alpha in
        nodes := Parametric.nodes arena :: !nodes;
        Dsd_util.Timer.Span.stop span;
        s_side
      in
      (* Line 6: if l has outgrown this core level, drop low-core
         vertices before doing any flow work. *)
      let comp =
        if safe_ceil l0 > k0 then shrink comps.(ci) (safe_ceil l0)
        else comps.(ci)
      in
      (* Per-component upper bound: max core number inside. *)
      let ub =
        float_of_int
          (Array.fold_left
             (fun acc v -> max acc decomp.Clique_core.core.(v))
             0 comp)
      in
      let cand = ref None in
      if Array.length comp >= p && not (ub < Atomic.get best_rho) then begin
        (* Per-component arena over G[comp]: built at the first probe
           and only re-capacitated later.  A Pruning-3 core shrink
           changes the vertex set, so it starts a fresh arena. *)
        let comp = ref comp in
        let map = ref [||] in
        let arena_on vs =
          let gc, m = G.induced g vs in
          map := m;
          Parametric.arena ?pool ~warm family gc psi
            ~instances:(Enumerate.instances ?pool gc psi)
        in
        let arena = ref (arena_on !comp) in
        (* Feasibility probe at alpha = l (lines 7-9). *)
        let s0 = probe !arena l0 in
        if Array.length s0 > 0 then begin
          let l = ref l0 in
          let witness = ref (Array.map (fun v -> !map.(v)) s0) in
          let gap () =
            if prunings.p3 then Density.stop_gap (Array.length !comp)
            else Density.stop_gap (G.n g)
          in
          Parametric.bisect ~gap ~l:l0 ~u:ub (fun alpha ->
              let s_side = probe !arena alpha in
              if Array.length s_side = 0 then None
              else begin
                witness := Array.map (fun v -> !map.(v)) s_side;
                (* Optimisation 3: raise l, shrink the component (and
                   so the next network) to the higher core. *)
                if safe_ceil alpha > safe_ceil !l then begin
                  let smaller = shrink !comp (safe_ceil alpha) in
                  if Array.length smaller >= p
                     && Array.length smaller < Array.length !comp
                  then begin
                    comp := smaller;
                    arena := arena_on smaller
                  end
                end;
                l := alpha;
                Some alpha
              end);
          let c = Density.of_vertices g psi !witness in
          Parametric.raise_to best_rho c.Density.density;
          cand := Some c
        end
      end;
      slots.(ci) <-
        (!cand, !iters, List.rev !nodes, Dsd_util.Timer.Span.total_s span)
    in
    Parametric.striped ?pool ncomps process;
    Array.iter
      (fun (cand, it, nds, fs) ->
        iterations := !iterations + it;
        List.iter (fun nc -> network_nodes := nc :: !network_nodes) nds;
        flow_s := !flow_s +. fs;
        match cand with
        | Some c when c.Density.density > !best.Density.density -> best := c
        | _ -> ())
      slots;
    finish !best
  end
