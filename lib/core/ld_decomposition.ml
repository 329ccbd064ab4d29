module G = Dsd_graph.Graph
module P = Dsd_pattern.Pattern

type level = {
  vertices : int array;
  marginal_density : float;
  prefix_size : int;
}

type t = {
  levels : level list;
  iterations : int;
  elapsed_s : float;
}

let safe_ceil = Dsd_util.Float_guard.safe_ceil

(* The candidate subgraph a level's binary search runs on: induced
   graph, both id maps, its instance list and a scratch membership
   mask.  Level 1 restricts to the ceil(l0)-core exactly as Topk_lds;
   every later level's canonical witness lives in B ∪ (1, Psi)-core
   (each new vertex joins an instance inside the witness, and that
   instance's vertices mutually certify core number >= 1), and B itself
   is inside the 1-core by induction — so one shared context covers all
   levels after the first. *)
type ctx = {
  gc : G.t;
  cand : int array;          (* sorted global ids = map, local i -> global *)
  back : int array;          (* global -> local, -1 outside *)
  insts : int array array;   (* Psi-instances of gc, local ids *)
  inside : bool array;       (* scratch for mu counting *)
}

let mk_ctx ?pool g psi cand =
  let gc, map = G.induced g cand in
  let back = Array.make (max 1 (G.n g)) (-1) in
  Array.iteri (fun i v -> back.(v) <- i) map;
  let insts = Enumerate.instances ?pool gc psi in
  { gc; cand = map; back; insts; inside = Array.make (max 1 (G.n gc)) false }

(* mu of a local vertex set, counted over the cached instance list.
   Instances of the induced candidate graph are exactly the instances
   of g inside the candidate set, so this is integer-identical to
   re-enumerating the induced subgraph (the old per-probe mu_of). *)
let mu_inside ctx side =
  Array.iter (fun v -> ctx.inside.(v) <- true) side;
  let mu = ref 0 in
  Array.iter
    (fun inst ->
      if Array.for_all (fun v -> ctx.inside.(v)) inst then incr mu)
    ctx.insts;
  Array.iter (fun v -> ctx.inside.(v) <- false) side;
  !mu

let decompose ?pool ?decomp ?(prepared = true) ?(warm = true) g (psi : P.t) =
  Dsd_obs.Span.with_ Dsd_obs.Phase.ld @@ fun () ->
  let t0 = Dsd_util.Timer.now_s () in
  let n = G.n g in
  (* A caller-supplied decomposition is only usable when it tracked the
     residual densities Pruning1 needs (or the graph has no instances
     at all, where every field is trivial). *)
  let d =
    match decomp with
    | Some d
      when Array.length d.Clique_core.residual_densities > 0
           || d.Clique_core.mu_total = 0 ->
      d
    | _ -> Clique_core.decompose ?pool ~track_density:true g psi
  in
  let family = Parametric.pinned_family psi in
  let probes = ref 0 in
  let gap = Density.stop_gap n in
  let in_b = Array.make (max 1 n) false in
  let b = ref [||] in (* current prefix B; sorted by construction *)
  let mu_b = ref 0 in
  let levels = ref [] in
  let emit lvl =
    Dsd_obs.Counter.incr Dsd_obs.Counter.Ld_levels;
    levels := lvl :: !levels
  in
  (* The final level: whatever is left once no strictly positive
     marginal remains.  The certified bound u < gap < 1/n at that point
     forces the numerator mu(V) - mu(B) to be exactly 0, so the quotient
     is an exact 0. (kept as the same division the fixtures pinned). *)
  let emit_zero () =
    let rest = ref [] in
    for v = n - 1 downto 0 do
      if not in_b.(v) then rest := v :: !rest
    done;
    match !rest with
    | [] -> ()
    | rest ->
      let nb = Array.length !b in
      emit
        { vertices = Array.of_list rest;
          marginal_density =
            (if n = nb then 0.
             else
               float_of_int (d.Clique_core.mu_total - !mu_b)
               /. float_of_int (n - nb));
          prefix_size = n }
  in
  if n > 0 then begin
    if d.Clique_core.mu_total = 0 then emit_zero ()
    else begin
      let p = psi.P.size in
      let kmax = d.Clique_core.kmax in
      let core1 = lazy (mk_ctx ?pool g psi (Clique_core.core_vertices d ~k:1)) in
      (* Marginal densities strictly decrease along the chain, so each
         level's search starts its upper bound at the previous level's
         value; level 1 starts at the kmax sandwich bound rho <= kmax. *)
      let upper = ref (float_of_int (max 1 kmax)) in
      let finished = ref false in
      let first = ref true in
      while not !finished do
        let ctx =
          if !first then begin
            (* Theorem-1 pruning, as Topk_lds.round_pruned: the densest
               subsets all survive peeling to the ceil(l0)-core. *)
            let l0 =
              Float.max
                (float_of_int kmax /. float_of_int p)
                d.Clique_core.best_residual_density
            in
            let k1 = min kmax (max 1 (safe_ceil l0)) in
            if k1 <= 1 then Lazy.force core1
            else mk_ctx ?pool g psi (Clique_core.core_vertices d ~k:k1)
          end
          else Lazy.force core1
        in
        first := false;
        if Array.length !b = Array.length ctx.cand then begin
          (* B has swallowed the whole 1-core: every instance is inside
             B already, so the rest is one final zero-marginal level. *)
          emit_zero ();
          finished := true
        end
        else begin
          (* Find max over S ⊋ B of (mu(S) - mu(B)) / (|S| - |B|) with
             its witness, by binary search on the marginal alpha: with B
             pinned to the source the min cut maximises mu(S) - alpha |S|
             over S ⊇ B, and marginal > alpha for some S iff the
             maximiser beats f(B). *)
          let pinned = Array.map (fun v -> ctx.back.(v)) !b in
          let fresh () =
            Parametric.arena ?pool ~pinned ~warm family ctx.gc psi
              ~instances:ctx.insts
          in
          let arena = ref (fresh ()) in
          let solve_at alpha =
            incr probes;
            Dsd_obs.Counter.incr Dsd_obs.Counter.Ld_probes;
            if not prepared then arena := fresh ();
            if Parametric.built !arena then
              Dsd_obs.Counter.incr Dsd_obs.Counter.Ld_retargets;
            Parametric.probe !arena alpha
          in
          let nb = Array.length !b in
          let marginal s_mu s_card =
            if s_card = nb then 0.
            else float_of_int (s_mu - !mu_b) /. float_of_int (s_card - nb)
          in
          let best_m = ref None in
          Parametric.bisect ~gap:(Fun.const gap) ~l:0. ~u:!upper (fun alpha ->
              let side = solve_at alpha in
              let m = marginal (mu_inside ctx side) (Array.length side) in
              if Array.length side > nb && m > alpha then begin
                best_m := Some m;
                Some m
              end
              else None);
          match !best_m with
          | None ->
            emit_zero ();
            finished := true
          | Some best_m ->
            (* Canonicalization cut: on termination best_m IS the level's
               exact marginal (distinct marginals over the same B differ
               by >= 2 * stop_gap).  At alpha = best_m - gap the value
               f(S) - f(B) is |X| * gap for max-marginal sets and < 0 for
               everything else, and max-marginal sets are closed under
               union — so the maximiser is unique: the union of them
               all.  Any min cut returns it, making the level set
               deterministic (and the chain the density-friendly
               decomposition, not just some max-marginal chain). *)
            let side = solve_at (best_m -. gap) in
            let s_mu = mu_inside ctx side in
            (* solve returns ascending local ids and cand is ascending,
               so s — and therefore b and the level's vertices — are
               sorted by construction; no defensive re-sort. *)
            let s = Array.map (fun v -> ctx.cand.(v)) side in
            let xs =
              Array.of_list
                (List.filter (fun v -> not in_b.(v)) (Array.to_list s))
            in
            Array.iter (fun v -> in_b.(v) <- true) xs;
            emit
              { vertices = xs;
                marginal_density = best_m;
                prefix_size = Array.length s };
            b := s;
            mu_b := s_mu;
            upper := best_m;
            if Array.length s = n then finished := true
        end
      done
    end
  end;
  { levels = List.rev !levels;
    iterations = !probes;
    elapsed_s = Dsd_util.Timer.now_s () -. t0 }

let prefix t i =
  (* Out-of-range indices used to fall through the recursion and
     silently return the full vertex set — for i < 0 as well, which is
     never what the caller meant. *)
  if i < 0 || i > List.length t.levels then
    invalid_arg
      (Printf.sprintf "Ld_decomposition.prefix: index %d not in [0, %d]" i
         (List.length t.levels));
  let rec take acc k = function
    | [] -> acc
    | _ when k = 0 -> acc
    | level :: rest -> take (Array.to_list level.vertices @ acc) (k - 1) rest
  in
  (* Each level block is sorted, but blocks interleave in general, so
     the prefix still merges by sorting the concatenation. *)
  let vs = Array.of_list (take [] i t.levels) in
  Array.sort compare vs;
  vs
