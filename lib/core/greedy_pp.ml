module G = Dsd_graph.Graph
module CC = Clique_core

type result = {
  subgraph : Density.subgraph;
  rounds : int;
  densities : float array;
  elapsed_s : float;
}

let run ?(rounds = 8) g psi =
  if rounds < 1 then invalid_arg "Greedy_pp.run: rounds must be >= 1";
  let t0 = Dsd_util.Timer.now_s () in
  let n = G.n g in
  let e = CC.engine g psi in
  let mu_total = CC.total e in
  if mu_total = 0 || n = 0 then
    { subgraph = Density.empty;
      rounds;
      densities = Array.make rounds 0.;
      elapsed_s = Dsd_util.Timer.now_s () -. t0 }
  else begin
    let loads = Array.make n 0 in
    let best = ref Density.empty in
    let densities = Array.make rounds 0. in
    let keep (d : CC.t) =
      if d.best_residual_density > !best.Density.density then
        best :=
          { Density.vertices = CC.best_residual d;
            density = d.best_residual_density }
    in
    (* Round 1 is PeelApp bit-for-bit: all loads are zero, so it IS the
       canonical round-synchronous peel — run it as such, charging each
       vertex's removal-time degree to its load through the on_peel
       hook.  Later rounds order by loads + degree, which no threshold
       peel can batch, so they pop a sequential lazy heap (loads grow
       past any bucket bound) on the same skeleton and engine. *)
    keep
      (CC.peel_canonical
         ~on_peel:(fun v killed -> loads.(v) <- loads.(v) + killed)
         ~track_density:true e);
    densities.(0) <- !best.Density.density;
    (* Deduplicate co-member notifications per deletion (one final-key
       update per touched vertex). *)
    let stamp = Array.make n (-1) in
    let touched = Dsd_util.Vec.Int.create () in
    let ops = ref 0 in
    for round = 1 to rounds - 1 do
      CC.reset e;
      let heap = Dsd_util.Lazy_heap.create ~n in
      for v = 0 to n - 1 do
        Dsd_util.Lazy_heap.add heap ~item:v ~key:(loads.(v) + CC.degree e v)
      done;
      let pop () =
        Option.map
          (fun (v, _key) -> (v, CC.degree e v))
          (Dsd_util.Lazy_heap.pop_min heap)
      in
      let retire v =
        incr ops;
        let tag = !ops in
        Dsd_util.Vec.Int.clear touched;
        let killed =
          CC.kill e v ~on_comember:(fun u ->
              if stamp.(u) <> tag then begin
                stamp.(u) <- tag;
                Dsd_util.Vec.Int.push touched u
              end)
        in
        loads.(v) <- loads.(v) + killed;
        Dsd_util.Vec.Int.iter
          (fun u ->
            if Dsd_util.Lazy_heap.mem heap u then
              Dsd_util.Lazy_heap.update heap ~item:u
                ~key:(loads.(u) + CC.degree e u))
          touched;
        killed
      in
      keep (CC.peel ~n ~mu_total ~track_density:true ~pop ~retire);
      densities.(round) <- !best.Density.density
    done;
    { subgraph = !best;
      rounds;
      densities;
      elapsed_s = Dsd_util.Timer.now_s () -. t0 }
  end
