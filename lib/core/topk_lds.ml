module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern

type stats = {
  rounds : int;
  iterations : int;
  components_pruned : int;
  elapsed_s : float;
}

type result = {
  regions : Density.subgraph list;
  stats : stats;
}

let safe_ceil = Dsd_util.Float_guard.safe_ceil

(* Exact optimum and canonical maximal densest subgraph of gr[verts]
   (verts in gr-local ids, regions reported in g-global ids via
   map_r).  None when the part holds no Psi-instance.

   The binary search keeps the Query_dsd invariant — l is always the
   exact density of a witnessed subset, u only drops when a min cut
   certifies no denser subset exists — so on termination the witness
   density IS the part's rho (no density fits strictly between l and u
   once u - l < min_gap).  One extra min cut at rho - stop_gap then
   canonicalizes: densest subsets are closed under union (instance
   counts are supermodular), so at that alpha the maximiser of
   mu(S) - alpha |S| is unique — the union of all densest subsets —
   and any min cut returns it.  The witness is pinned to the source
   side, which cannot change the unique answer (it contains every
   densest subset) but routes the cut through the pinned prepared-arena
   path. *)
let solve_part ?pool ~warm g gr ~map_r psi ~verts ~u0 ~iterations =
  let cg, cmap = G.induced gr verts in
  let instances = Enumerate.instances ?pool cg psi in
  if Array.length instances = 0 then None
  else begin
    let global_of side = Array.map (fun v -> map_r.(cmap.(v))) side in
    let u0 =
      match u0 with
      | Some b -> b
      | None ->
        (* the loose Exact-style bound: max instance degree *)
        float_of_int
          (Array.fold_left max 0
             (Flow_build.instance_degrees ?pool (G.n cg) instances))
    in
    (* Seed: the whole part is a subset of itself, so its exact density
       is a sound lower bound with itself as witness. *)
    let witness_local = ref (Array.init (G.n cg) Fun.id) in
    let witness = ref (Density.of_vertices g psi (global_of !witness_local)) in
    let l0 = !witness.Density.density in
    let gap = Density.stop_gap (G.n cg) in
    let probe arena alpha =
      incr iterations;
      Parametric.probe arena alpha
    in
    let family = Parametric.pinned_family psi in
    let arena = Parametric.arena ?pool ~warm family cg psi ~instances in
    Parametric.bisect ~gap:(Fun.const gap) ~l:l0 ~u:(Float.max u0 l0)
      (fun alpha ->
        let side = probe arena alpha in
        if Array.length side = 0 then None
        else begin
          let cand = Density.of_vertices g psi (global_of side) in
          if cand.Density.density > alpha then begin
            witness := cand;
            witness_local := side;
            Some cand.Density.density
          end
          else None
        end);
    let rho = !witness.Density.density in
    (* The pinned arcs differ from the search arena: a one-shot build. *)
    let canonical =
      Parametric.arena ?pool ~pinned:!witness_local family cg psi ~instances
    in
    Some (rho, global_of (probe canonical (rho -. gap)))
  end

(* One extraction round over the remaining graph gr: the exact round
   optimum and its canonical region, or None when gr has no instances
   left.  [prev_rho] is the previous round's density — a sound upper
   bound, since the remaining graph only shrinks. *)
let round_pruned ?pool ~warm ~decomp g gr ~map_r (psi : P.t) ~prev_rho
    ~iterations ~pruned =
  let d =
    match decomp with
    | Some d
      when Array.length d.Clique_core.residual_densities > 0
           || d.Clique_core.mu_total = 0 ->
      d
    | _ -> Clique_core.decompose ?pool ~track_density:true gr psi
  in
  if d.Clique_core.mu_total = 0 then None
  else begin
    let p = psi.P.size in
    let kmax = d.Clique_core.kmax in
    (* Every densest subset S has min instance-degree >= ceil(rho_opt)
       inside S, so S survives peeling up to that level: S lives in the
       ceil(l)-core for any lower bound l <= rho_opt. *)
    let l0 =
      Float.max
        (float_of_int kmax /. float_of_int p)
        d.Clique_core.best_residual_density
    in
    let k'' = min kmax (max 1 (safe_ceil l0)) in
    let candidates = Clique_core.core_vertices d ~k:k'' in
    let cand_g, cand_map = G.induced gr candidates in
    (* Components of the induced candidate subgraph: instances are
       connected, so no instance spans two components and densest
       subsets split cleanly across them. *)
    let comps =
      Dsd_graph.Traversal.component_members cand_g
      |> List.map (fun comp ->
             let comp = Array.map (fun v -> cand_map.(v)) comp in
             let bound =
               Array.fold_left
                 (fun acc v -> max acc d.Clique_core.core.(v))
                 0 comp
             in
             (float_of_int bound, comp))
      |> List.stable_sort (fun (a, _) (b, _) -> compare b a)
    in
    (* Striped strict-skip solves: one slot per component holds its
       outcome; a shared atomic carries the best exact rho witnessed so
       far.  A skipped component has bound < some witnessed rho <=
       rho_star, so it can neither set rho_star nor tie it — the merged
       union below is schedule-invariant.  (The probe/prune tallies are
       not: they depend on how far the bound had advanced at each
       check, which is why --stats runs pin --domains 1.) *)
    let comps = Array.of_list comps in
    let ncomps = Array.length comps in
    let slots = Array.make ncomps `Pruned in
    let best_rho = Atomic.make 0. in
    let process ?pool ci =
      let bound, comp = comps.(ci) in
      (* The skip is strict: a component tied with the best so far has
         bound >= its own rho = best, so ties are always solved — the
         canonical region is the union over ALL tied components. *)
      if bound < Atomic.get best_rho then slots.(ci) <- `Pruned
      else begin
        let iters = ref 0 in
        let r =
          solve_part ?pool ~warm g gr ~map_r psi ~verts:comp
            ~u0:(Some (Float.min bound prev_rho))
            ~iterations:iters
        in
        Option.iter (fun (rho, _) -> Parametric.raise_to best_rho rho) r;
        slots.(ci) <- `Solved (r, !iters)
      end
    in
    Parametric.striped ?pool ncomps process;
    let solved = ref [] in
    Array.iter
      (function
        | `Pruned ->
          incr pruned;
          Dsd_obs.Counter.incr Dsd_obs.Counter.Topk_components_pruned
        | `Solved (r, it) -> (
          iterations := !iterations + it;
          match r with
          | None -> ()
          | Some (rho, region) -> solved := (rho, region) :: !solved))
      slots;
    match !solved with
    | [] -> None
    | solved ->
      let rho_star = List.fold_left (fun a (r, _) -> Float.max a r) 0. solved in
      (* Exact rationals divide to bit-identical floats, so float
         equality here is rational equality. *)
      let union =
        List.concat_map
          (fun (r, region) ->
            if r = rho_star then Array.to_list region else [])
          solved
      in
      Some (Density.of_vertices g psi (Array.of_list union))
  end

let round_unpruned ?pool ~warm g gr ~map_r psi ~iterations =
  let verts = Array.init (G.n gr) Fun.id in
  match
    solve_part ?pool ~warm g gr ~map_r psi ~verts ~u0:None ~iterations
  with
  | None -> None
  | Some (_rho, region) -> Some (Density.of_vertices g psi region)

let run ?pool ?(warm = true) ?(prune = true) ?decomp ~k g psi =
  if k < 1 then invalid_arg "Topk_lds: k must be >= 1";
  Dsd_obs.Span.with_ Dsd_obs.Phase.topk @@ fun () ->
  let t0 = Dsd_util.Timer.now_s () in
  let n = G.n g in
  let iterations = ref 0 in
  let pruned = ref 0 in
  let rounds = ref 0 in
  let remaining = Array.make (max 1 n) true in
  let n_remaining = ref n in
  let regions = ref [] in
  let prev_rho = ref infinity in
  let stop = ref (n = 0) in
  while (not !stop) && List.length !regions < k do
    incr rounds;
    Dsd_obs.Counter.incr Dsd_obs.Counter.Topk_rounds;
    let rest = ref [] in
    for v = n - 1 downto 0 do
      if remaining.(v) then rest := v :: !rest
    done;
    let gr, map_r = G.induced g (Array.of_list !rest) in
    let round_region =
      if prune then
        (* A caller-supplied decomposition only matches the first round
           (it describes the full graph). *)
        let decomp = if !rounds = 1 then decomp else None in
        round_pruned ?pool ~warm ~decomp g gr ~map_r psi
          ~prev_rho:!prev_rho ~iterations ~pruned
      else round_unpruned ?pool ~warm g gr ~map_r psi ~iterations
    in
    match round_region with
    | None -> stop := true
    | Some region when Array.length region.Density.vertices = 0 ->
      (* cannot happen (instances exist => positive optimum), but never
         loop on an empty extraction *)
      stop := true
    | Some region ->
      regions := region :: !regions;
      Dsd_obs.Counter.incr Dsd_obs.Counter.Topk_regions;
      Array.iter (fun v -> remaining.(v) <- false) region.Density.vertices;
      n_remaining := !n_remaining - Array.length region.Density.vertices;
      prev_rho := region.Density.density;
      if !n_remaining = 0 then stop := true
  done;
  { regions = List.rev !regions;
    stats =
      { rounds = !rounds;
        iterations = !iterations;
        components_pruned = !pruned;
        elapsed_s = Dsd_util.Timer.now_s () -. t0 } }
