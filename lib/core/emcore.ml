module G = Dsd_graph.Graph

type result = {
  subgraph : Density.subgraph;
  kmax : int;
  rounds : int;
  elapsed_s : float;
}

let run g =
  let t0 = Dsd_util.Timer.now_s () in
  let n = G.n g in
  let order = Array.init n (fun v -> v) in
  Array.sort (fun a b -> compare (G.degree g b) (G.degree g a)) order;
  (* Ten blocks per pass mimics EMcore's partition granularity; the
     degree bound forces more passes than CoreApp's core bound. *)
  let block = max 1 (n / 10) in
  let kmax = ref 0 in
  let best = ref [||] in
  let rounds = ref 0 in
  let window = ref 0 in
  let continue_ = ref (n > 0) in
  while !continue_ do
    incr rounds;
    window := min n (!window + block);
    let w_vertices = Array.sub order 0 !window in
    let gw, map = G.induced g w_vertices in
    let dg = Dsd_graph.Degeneracy.compute gw in
    let k = dg.degeneracy in
    if k >= !kmax && k > 0 then begin
      kmax := k;
      let core = Dsd_util.Vec.Int.create () in
      Array.iteri
        (fun v c -> if c >= k then Dsd_util.Vec.Int.push core map.(v))
        dg.core;
      best := Dsd_util.Vec.Int.to_array core
    end;
    if !window >= n then continue_ := false
    else if G.degree g order.(!window) < !kmax then continue_ := false
  done;
  let subgraph =
    if Array.length !best = 0 then Density.empty
    else Density.of_vertices g (Dsd_pattern.Pattern.clique 2) !best
  in
  { subgraph; kmax = !kmax; rounds = !rounds; elapsed_s = Dsd_util.Timer.now_s () -. t0 }
