module G = Dsd_graph.Graph

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
  let instances = Enumerate.instances g psi in
  let mu_total = instances.Dsd_clique.Instances.count in
  if mu_total = 0 || n = 0 then
    { subgraph = Density.empty;
      rounds;
      densities = Array.make rounds 0.;
      elapsed_s = Dsd_util.Timer.now_s () -. t0 }
  else begin
    let store = Dsd_clique.Instance_store.create ~n instances in
    let loads = Array.make n 0 in
    let best = ref Density.empty in
    let densities = Array.make rounds 0. in
    (* Round 1 is PeelApp bit-for-bit: all loads are zero, so it IS the
       canonical round-synchronous peel — run it on the shared engine,
       charging each vertex's removal-time degree to its load through
       the on_peel hook.  Later rounds order by
       loads + degree, which no threshold peel can batch, so they keep
       the sequential lazy heap (loads grow past any bucket bound). *)
    let _, order0, _, bd0, bs0, _, _ =
      Clique_core.peel_store
        ~on_peel:(fun v killed -> loads.(v) <- loads.(v) + killed)
        ~track_density:true ~n store
    in
    if bd0 > !best.Density.density then begin
      let vs = Array.sub order0 bs0 (n - bs0) in
      Array.sort compare vs;
      best := { Density.vertices = vs; density = bd0 }
    end;
    densities.(0) <- !best.Density.density;
    let order = Array.make n 0 in
    (* Deduplicate co-member notifications per deletion (one final-key
       update per touched vertex, as in Clique_core's peel). *)
    let stamp = Array.make n (-1) in
    let touched = Dsd_util.Vec.Int.create () in
    let ops = ref 0 in
    for round = 1 to rounds - 1 do
      Dsd_clique.Instance_store.reset store;
      let heap = Dsd_util.Lazy_heap.create ~n in
      for v = 0 to n - 1 do
        Dsd_util.Lazy_heap.add heap ~item:v
          ~key:(loads.(v) + Dsd_clique.Instance_store.degree store v)
      done;
      let pop () = Dsd_util.Lazy_heap.pop_min heap in
      let update u key = Dsd_util.Lazy_heap.update heap ~item:u ~key in
      let mem u = Dsd_util.Lazy_heap.mem heap u in
      let mu_live = ref mu_total in
      let best_density = ref (float_of_int mu_total /. float_of_int n) in
      let best_start = ref 0 in
      for i = 0 to n - 1 do
        match pop () with
        | None -> assert false
        | Some (v, _key) ->
          order.(i) <- v;
          let deg_v = Dsd_clique.Instance_store.degree store v in
          loads.(v) <- loads.(v) + deg_v;
          incr ops;
          let tag = !ops in
          Dsd_util.Vec.Int.clear touched;
          let killed =
            Dsd_clique.Instance_store.kill_vertex store v ~on_comember:(fun u ->
                if stamp.(u) <> tag then begin
                  stamp.(u) <- tag;
                  Dsd_util.Vec.Int.push touched u
                end)
          in
          Dsd_util.Vec.Int.iter
            (fun u ->
              if mem u then
                update u
                  (loads.(u) + Dsd_clique.Instance_store.degree store u))
            touched;
          mu_live := !mu_live - killed;
          if i < n - 1 then begin
            let d = float_of_int !mu_live /. float_of_int (n - i - 1) in
            if d > !best_density then begin
              best_density := d;
              best_start := i + 1
            end
          end
      done;
      if !best_density > !best.Density.density then begin
        let vs = Array.sub order !best_start (n - !best_start) in
        Array.sort compare vs;
        best := { Density.vertices = vs; density = !best_density }
      end;
      densities.(round) <- !best.Density.density
    done;
    { subgraph = !best;
      rounds;
      densities;
      elapsed_s = Dsd_util.Timer.now_s () -. t0 }
  end
