module F = Flow_network

(* Level graph + DFS blocking flow with per-node arc cursors ("current
   arc" optimisation), read straight off the network's CSR view.  Float
   capacities: an arc is usable while its residual exceeds [F.eps].

   The BFS stops once it dequeues a node at the sink's level: a
   shortest augmenting path visits no other node at or past that level,
   so the DFS finds the same paths in the same order as over the whole
   labelling.  The solve starts from whatever feasible flow the network
   holds, so a caller that keeps the flow (a warm
   [Flow_network.recapacitate] or [retarget]) pays only for the
   difference.

   Nothing in the phase loop allocates, and no per-node array is
   allocated either: [level], [cursor], [lim] and [got] are the
   network's scratch.  The BFS queue is the cursor array, idle until
   the BFS is done, and the DFS passes its float limit and result
   through [lim] and [got], indexed by recursion depth, so no call
   boxes a float. *)

let max_flow net ~s ~t =
  if s = t then invalid_arg "Dinic.max_flow: s = t";
  let { F.nodes = n; start; arcs; dst; cap; flow; level; cursor; lim; got } =
    F.view net
  in
  let eps = F.eps in
  lim.(0) <- infinity;
  let build_levels () =
    Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_level_builds;
    Array.fill level 0 n (-1);
    let queue = cursor in
    level.(s) <- 0;
    queue.(0) <- s;
    let head = ref 0 and tail = ref 1 and stop = ref n in
    while !head < !tail && level.(queue.(!head)) < !stop do
      let u = queue.(!head) in
      incr head;
      let next = level.(u) + 1 in
      for i = start.(u) to start.(u + 1) - 1 do
        let e = arcs.(i) in
        let v = dst.(e) in
        if level.(v) < 0 && cap.(e) -. flow.(e) > eps then begin
          level.(v) <- next;
          if v = t then stop := next;
          queue.(!tail) <- v;
          incr tail
        end
      done
    done;
    level.(t) >= 0
  in
  (* Push at most [lim.(d)] from [u] (at depth [d]) towards [t] and
     leave the amount pushed in [got.(d)].  The search never writes
     [lim.(0)]: every search from [s] starts unbounded. *)
  let rec dfs u d =
    if u = t then begin
      Dsd_obs.Counter.incr Dsd_obs.Counter.Flow_augmentations;
      got.(d) <- lim.(d)
    end
    else begin
      got.(d) <- 0.;
      let next = level.(u) + 1 in
      let stop = start.(u + 1) in
      let continue = ref true in
      while !continue && cursor.(u) < stop do
        let e = arcs.(cursor.(u)) in
        let v = dst.(e) in
        let r = cap.(e) -. flow.(e) in
        if level.(v) = next && r > eps then begin
          let room = lim.(d) -. got.(d) in
          lim.(d + 1) <- (if room <= r then room else r);
          dfs v (d + 1);
          let f = got.(d + 1) in
          if f > eps then begin
            flow.(e) <- flow.(e) +. f;
            flow.(e lxor 1) <- flow.(e lxor 1) -. f;
            got.(d) <- got.(d) +. f;
            if lim.(d) -. got.(d) <= eps then continue := false
          end
          else
            (* Dead end below; advance past this arc. *)
            cursor.(u) <- cursor.(u) + 1
        end
        else cursor.(u) <- cursor.(u) + 1
      done
    end
  in
  let total = ref 0. in
  while build_levels () do
    Array.blit start 0 cursor 0 n;
    dfs s 0;
    while got.(0) > eps do
      total := !total +. got.(0);
      dfs s 0
    done
  done;
  !total
