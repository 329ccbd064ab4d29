module G = Dsd_graph.Graph

type result = {
  subgraph : Density.subgraph;
  core : int array;
  kmax : int;
  updates : int;
  elapsed_s : float;
}

let run g psi =
  let t0 = Dsd_util.Timer.now_s () in
  let n = G.n g in
  let instances = Enumerate.instances g psi in
  let h = instances.Dsd_clique.Instances.arity in
  let mem = instances.members in
  let iter_inst i f =
    for p = i * h to ((i + 1) * h) - 1 do
      f mem.(p)
    done
  in
  let posting = Array.make n [] in
  for i = 0 to instances.count - 1 do
    iter_inst i (fun v -> posting.(v) <- i :: posting.(v))
  done;
  let nu = Dsd_clique.Instances.degrees ~n instances in
  (* h-index of v over min co-member values, capped at nu(v): the
     largest k such that at least k of v's instances have every other
     member at value >= k. *)
  let h_index v =
    let cap = nu.(v) in
    if cap = 0 then 0
    else begin
      let counts = Array.make (cap + 1) 0 in
      List.iter
        (fun i ->
          let m = ref max_int in
          iter_inst i (fun u -> if u <> v && nu.(u) < !m then m := nu.(u));
          let m = min !m cap in
          counts.(m) <- counts.(m) + 1)
        posting.(v);
      let rec scan k acc =
        let acc = acc + counts.(k) in
        if acc >= k then k else scan (k - 1) acc
      in
      scan cap 0
    end
  in
  let in_queue = Array.make n true in
  let queue = Queue.create () in
  for v = 0 to n - 1 do
    Queue.add v queue
  done;
  let updates = ref 0 in
  while not (Queue.is_empty queue) do
    let v = Queue.pop queue in
    in_queue.(v) <- false;
    incr updates;
    let fresh = h_index v in
    if fresh < nu.(v) then begin
      nu.(v) <- fresh;
      (* Co-members above the new value may now be able to drop. *)
      List.iter
        (fun i ->
          iter_inst i (fun u ->
              if u <> v && nu.(u) > fresh && not in_queue.(u) then begin
                in_queue.(u) <- true;
                Queue.add u queue
              end))
        posting.(v)
    end
  done;
  let kmax = Array.fold_left max 0 nu in
  let core_vs = Dsd_util.Vec.Int.create () in
  Array.iteri
    (fun v k -> if k >= kmax && kmax > 0 then Dsd_util.Vec.Int.push core_vs v)
    nu;
  let members = Dsd_util.Vec.Int.to_array core_vs in
  let subgraph =
    if Array.length members = 0 then Density.empty
    else Density.of_vertices g psi members
  in
  { subgraph;
    core = nu;
    kmax;
    updates = !updates;
    elapsed_s = Dsd_util.Timer.now_s () -. t0 }
